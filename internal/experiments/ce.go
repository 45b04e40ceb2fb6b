package experiments

// The cardinality-estimation evaluation harness (BENCH_ce.json): replay
// the SQL suite across datasets × statistics health × estimator and
// report q-error distributions per plan-expression class, in the shape
// of a CE accuracy report. Every estimate comes from the planner's
// Estimator hook; every truth comes from a counter-instrumented run of
// the exact plan that carried the estimate (task counters → Tagging
// Dictionary lineage → operator → plan node). The history-corrected
// estimator is trained inside each cell: the naive cell's runs feed a
// cost.History, and the history cell re-plans and re-runs under it —
// the same loop Session.Adapt closes in production.

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/queries"
	"repro/internal/sqlparse"
)

// QDist summarizes one q-error distribution. Q-error is
// max(est,true)/min(est,true) with both sides clamped to >= 1 row, so a
// perfect estimate scores 1.0.
type QDist struct {
	Count  int     `json:"count"`
	Median float64 `json:"median"`
	P90    float64 `json:"p90"`
	Max    float64 `json:"max"`
}

// CEDataset names one generated dataset of the sweep.
type CEDataset struct {
	Name string  `json:"name"`
	SF   float64 `json:"sf"`
	Seed uint64  `json:"seed"`
}

// CECell is one (dataset, statistics health, estimator) cell: q-error
// distributions per plan-expression class plus the join-heavy slice the
// gate reads (all operators of queries whose plan contains a join edge).
type CECell struct {
	Dataset   string           `json:"dataset"`
	Health    string           `json:"health"`
	Estimator string           `json:"estimator"`
	PerClass  map[string]QDist `json:"per_class"`
	JoinHeavy QDist            `json:"join_heavy"`
}

// CEGate is the acceptance comparison for one (dataset, health) pair:
// the history-corrected estimator must beat the naive one on the median
// q-error of join-heavy queries.
type CEGate struct {
	Dataset       string  `json:"dataset"`
	Health        string  `json:"health"`
	NaiveMedian   float64 `json:"naive_median"`
	HistoryMedian float64 `json:"history_median"`
	Pass          bool    `json:"pass"`
}

// CEReport is the full harness output, serialized to BENCH_ce.json.
type CEReport struct {
	SF       float64     `json:"sf"`
	Seed     uint64      `json:"seed"`
	Queries  []string    `json:"queries"`
	Datasets []CEDataset `json:"datasets"`
	Cells    []CECell    `json:"cells"`
	Gates    []CEGate    `json:"gates"`
	Pass     bool        `json:"pass"`
}

// Sweep axes, in report order.
var (
	ceHealths    = []string{"fresh", "stale", "absent"}
	ceEstimators = []string{"naive", "histogram", "history"}
)

// ceObs is one operator's scored estimate.
type ceObs struct {
	class     string
	q         float64
	joinHeavy bool
}

// classOf buckets a node by its plan-expression class: the leading
// constructor of its canonical expression (scan, join, agg — a
// group-join canonicalizes as agg-over-join and lands in agg).
func classOf(n plan.Node) string {
	c := plan.Canon(n)
	switch {
	case strings.HasPrefix(c, "scan("):
		return "scan"
	case strings.HasPrefix(c, "join{"):
		return "join"
	case strings.HasPrefix(c, "agg{"):
		return "agg"
	}
	return "other"
}

// ceEval plans one workload under est, runs the exact planned artifact
// with tuple counters, and scores every operator's estimate against its
// observed row count. When h is non-nil the observed cardinalities also
// train it (the history cell's teacher).
func ceEval(cat *catalog.Catalog, est plan.Estimator, w queries.SQLWorkload, h *cost.History) ([]ceObs, error) {
	q, err := sqlparse.Parse(w.SQL)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	pl, err := plan.PlanWith(cat, q, est)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	opts := engine.DefaultOptions()
	opts.TupleCounters = true
	cq, err := (&engine.Compiler{Cat: cat, Opts: opts}).CompilePlanGuided(pl, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	res, err := (&engine.Executor{Opts: opts}).Run(cq, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	joinHeavy := strings.Contains(plan.Canon(pl), "join{")
	var obs []ceObs
	plan.Walk(pl, func(n plan.Node) {
		if _, isOut := n.(*plan.Output); isOut {
			return
		}
		t, ok := res.PlanRows[n]
		if !ok {
			return
		}
		obs = append(obs, ceObs{class: classOf(n), q: cost.QError(n.EstRows(), t), joinHeavy: joinHeavy})
	})
	if h != nil {
		cost.ObserveTrueRows(h, pl, cq.Pipe, res.TupleCounts)
	}
	return obs, nil
}

// dist summarizes a q-error sample (zero value for an empty sample).
func dist(qs []float64) QDist {
	if len(qs) == 0 {
		return QDist{}
	}
	s := append([]float64(nil), qs...)
	sort.Float64s(s)
	pick := func(p float64) float64 { return s[int(p*float64(len(s)-1)+0.5)] }
	return QDist{Count: len(s), Median: pick(0.5), P90: pick(0.9), Max: s[len(s)-1]}
}

// summarize folds a cell's observations into its distributions.
func summarize(obs []ceObs) (map[string]QDist, QDist) {
	byClass := map[string][]float64{}
	var join []float64
	for _, o := range obs {
		byClass[o.class] = append(byClass[o.class], o.q)
		if o.joinHeavy {
			join = append(join, o.q)
		}
	}
	per := map[string]QDist{}
	for c, qs := range byClass {
		per[c] = dist(qs)
	}
	return per, dist(join)
}

// CEReportRun executes the full sweep: two datasets (the environment's
// and a smaller, differently-seeded twin), three statistics-health
// regimes and three estimators over the whole SQL suite. Deterministic
// for fixed (SF, Seed): data generation, planning and the simulated
// runs all are.
func (e *Env) CEReportRun() (*CEReport, error) {
	type ds struct {
		CEDataset
		cat *catalog.Catalog
	}
	sets := []ds{
		{CEDataset{Name: "base", SF: e.SF, Seed: e.Seed}, e.Cat},
		{CEDataset{Name: "alt", SF: e.SF / 2, Seed: e.Seed + 1},
			datagen.Generate(datagen.Config{ScaleFactor: e.SF / 2, Seed: e.Seed + 1})},
	}
	rep := &CEReport{SF: e.SF, Seed: e.Seed, Pass: true}
	for _, w := range queries.SQLSuite() {
		rep.Queries = append(rep.Queries, w.Name)
	}
	for _, d := range sets {
		rep.Datasets = append(rep.Datasets, d.CEDataset)
		// The stale twin: same schema, a quarter of the rows, another
		// seed — statistics that were accurate for data long gone.
		twin := datagen.Generate(datagen.Config{ScaleFactor: d.SF / 4, Seed: d.Seed + 3})
		for _, health := range ceHealths {
			var src cost.StatsSource
			var hists map[string]*cost.Hist
			switch health {
			case "fresh":
				src = cost.FreshStats{}
				hists = cost.NewHistograms(d.cat, cost.DefaultHistogramBuckets)
			case "stale":
				src = cost.StaleStats{Twin: twin}
				hists = cost.NewHistograms(twin, cost.DefaultHistogramBuckets)
			case "absent":
				src = cost.AbsentStats{}
				// No statistics, no histograms: the estimator degrades
				// to the planner's magic constants.
			}
			hist := cost.NewHistory()
			var gate CEGate
			for _, name := range ceEstimators {
				var est plan.Estimator
				var train *cost.History
				switch name {
				case "naive":
					est = &cost.Naive{Stats: src}
					train = hist // the naive cell's runs teach the history
				case "histogram":
					est = &cost.Histogram{Stats: src, H: hists}
				case "history":
					est = &cost.HistoryCorrected{Base: &cost.Naive{Stats: src}, H: hist}
				}
				var obs []ceObs
				for _, w := range queries.SQLSuite() {
					o, err := ceEval(d.cat, est, w, train)
					if err != nil {
						return nil, fmt.Errorf("ce %s/%s/%s: %w", d.Name, health, name, err)
					}
					obs = append(obs, o...)
				}
				per, join := summarize(obs)
				rep.Cells = append(rep.Cells, CECell{
					Dataset: d.Name, Health: health, Estimator: name,
					PerClass: per, JoinHeavy: join,
				})
				switch name {
				case "naive":
					gate.NaiveMedian = join.Median
				case "history":
					gate.HistoryMedian = join.Median
				}
			}
			gate.Dataset, gate.Health = d.Name, health
			gate.Pass = gate.HistoryMedian < gate.NaiveMedian
			rep.Gates = append(rep.Gates, gate)
			rep.Pass = rep.Pass && gate.Pass
		}
	}
	return rep, nil
}

// JSON renders the report as stable, indented JSON (map keys sort, so
// equal reports marshal byte-identically).
func (r *CEReport) JSON() ([]byte, error) { return reportJSON(r) }

// CE runs the cardinality-estimation harness and renders the report.
func (e *Env) CE() (string, *CEReport, error) {
	rep, err := e.CEReportRun()
	if err != nil {
		return "", nil, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "## Cardinality estimation (q-error, sf=%g seed=%d)\n\n", rep.SF, rep.Seed)
	fmt.Fprintf(&b, "%-6s %-7s %-10s %10s %10s %10s %12s\n",
		"data", "stats", "estimator", "scan p50", "join p50", "agg p50", "joinq p50")
	classes := []string{"scan", "join", "agg"}
	for _, c := range rep.Cells {
		fmt.Fprintf(&b, "%-6s %-7s %-10s", c.Dataset, c.Health, c.Estimator)
		for _, cl := range classes {
			if d, ok := c.PerClass[cl]; ok && d.Count > 0 {
				fmt.Fprintf(&b, " %10.2f", d.Median)
			} else {
				fmt.Fprintf(&b, " %10s", "-")
			}
		}
		fmt.Fprintf(&b, " %12.2f\n", c.JoinHeavy.Median)
	}
	b.WriteString("\ngates (median join-heavy q-error, history vs naive):\n")
	for _, g := range rep.Gates {
		verdict := "PASS"
		if !g.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(&b, "  %-6s %-7s naive=%.2f history=%.2f  %s\n",
			g.Dataset, g.Health, g.NaiveMedian, g.HistoryMedian, verdict)
	}
	return b.String(), rep, nil
}
