package engine

// Closed-loop tests for the profile-fed cost layer: the no-regression
// gate (history-corrected planning must never cost more than the
// heuristic baseline, and must beat it substantially on at least one
// join), the worker/partition determinism battery for re-planned shapes,
// the worker-invariance of collected true cardinalities, and the
// service-level replan-on-material-shift cycle.

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/datagen"
	"repro/internal/plan"
	"repro/internal/queries"
	"repro/internal/ref"
	"repro/internal/sqlparse"
)

// planSQLWith parses and plans one statement under an estimator.
func planSQLWith(t testing.TB, cat *catalog.Catalog, sql string, est plan.Estimator) *plan.Output {
	t.Helper()
	q, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.PlanWith(cat, q, est)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// TestCostModelNoRegression: plan the whole SQL suite twice — once with
// the heuristic planner, once with a history trained by counter-
// instrumented runs of the heuristic plans — and compare serial
// simulated cycles. History-corrected planning must stay within +5% of
// the baseline in total, must match every query's rows exactly (modulo
// order), and must improve at least one join query by >= 10%.
func TestCostModelNoRegression(t *testing.T) {
	cat := datagen.Generate(datagen.Config{ScaleFactor: 0.05, Seed: 42})
	suite := queries.SQLSuite()

	// Training pass: heuristic plans, tuple counters on, observe truth.
	h := cost.NewHistory()
	copts := DefaultOptions()
	copts.TupleCounters = true
	for _, w := range suite {
		pl := planSQLWith(t, cat, w.SQL, nil)
		cq, err := (&Compiler{Cat: cat, Opts: copts}).CompilePlanGuided(pl, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		res, err := (&executor{Opts: copts}).run(cq, nil, 1, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		cost.ObserveTrueRows(h, pl, cq.Pipe, res.TupleCounts)
	}

	// Measurement pass: same opts (no counters) for both plan flavors.
	est := &cost.HistoryCorrected{Base: &cost.Naive{Stats: cost.FreshStats{}}, H: h}
	opts := DefaultOptions()
	run := func(name string, pl *plan.Output) (uint64, [][]int64) {
		t.Helper()
		cq, err := (&Compiler{Cat: cat, Opts: opts}).CompilePlanGuided(pl, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := (&executor{Opts: opts}).run(cq, nil, 1, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return res.Stats.Cycles, res.Rows
	}
	var totalBase, totalCorr uint64
	bestJoinGain := 0.0
	bestJoin := ""
	for _, w := range suite {
		plB := planSQLWith(t, cat, w.SQL, nil)
		plC := planSQLWith(t, cat, w.SQL, est)
		cyB, rowsB := run(w.Name+"/heuristic", plB)
		cyC, rowsC := run(w.Name+"/history", plC)
		if !ref.SameRows(rowsB, rowsC, false) {
			t.Fatalf("%s: history-corrected plan changed the result (%d vs %d rows)",
				w.Name, len(rowsB), len(rowsC))
		}
		totalBase += cyB
		totalCorr += cyC
		if gain := 1 - float64(cyC)/float64(cyB); strings.Contains(plan.Canon(plB), "join{") && gain > bestJoinGain {
			bestJoinGain, bestJoin = gain, w.Name
		}
		t.Logf("%-14s heuristic %9d cycles, history %9d cycles (%+.1f%%)",
			w.Name, cyB, cyC, 100*(float64(cyC)/float64(cyB)-1))
	}
	if float64(totalCorr) > 1.05*float64(totalBase) {
		t.Errorf("history-corrected planning regressed: %d vs %d total cycles (> +5%%)",
			totalCorr, totalBase)
	}
	if bestJoinGain < 0.10 {
		t.Errorf("no join query improved by >= 10%% (best: %s at %.1f%%)", bestJoin, bestJoinGain*100)
	} else {
		t.Logf("best join improvement: %s, %.1f%% fewer cycles", bestJoin, bestJoinGain*100)
	}
}

// TestReplanDeterminism: every re-planned (history-corrected) shape
// returns the reference rows at every worker count and both partition
// settings, in the serial run's order and with its hash-table bytes (the
// partitioned merge reconstructs the serial heap exactly), and computes
// the heuristic plan's rows modulo order.
func TestReplanDeterminism(t *testing.T) {
	cat := datagen.Generate(datagen.Config{ScaleFactor: 0.05, Seed: 42})
	suite := []string{"join-opaque", "join-3way", "join-groupjoin"}
	h := cost.NewHistory()
	copts := DefaultOptions()
	copts.TupleCounters = true
	for _, name := range suite {
		w, _ := queries.SQLByName(name)
		pl := planSQLWith(t, cat, w.SQL, nil)
		cq, err := (&Compiler{Cat: cat, Opts: copts}).CompilePlanGuided(pl, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := (&executor{Opts: copts}).run(cq, nil, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		cost.ObserveTrueRows(h, pl, cq.Pipe, res.TupleCounts)
	}
	est := &cost.HistoryCorrected{Base: &cost.Naive{Stats: cost.FreshStats{}}, H: h}

	src := source{build: func() *catalog.Catalog { return datagen.Generate(datagen.Config{ScaleFactor: 0.05, Seed: 42}) }, opts: DefaultOptions()}
	for _, name := range suite {
		w, _ := queries.SQLByName(name)
		src.stmts = append(src.stmts, stmt{name: name, compile: func(c *Compiler) (*Compiled, error) {
			return c.CompilePlanGuided(planSQLWith(t, c.Cat, w.SQL, est), nil)
		}})
		// Cross-plan: the re-planned shape computes the heuristic shape's
		// rows (emission order may legitimately differ between shapes).
		heuristic, _ := reference(t, &Prepared{Compiled: &Compiled{Plan: planSQLWith(t, cat, w.SQL, nil)}})
		replanned, _ := reference(t, &Prepared{Compiled: &Compiled{Plan: planSQLWith(t, cat, w.SQL, est)}})
		if !ref.SameRows(heuristic, replanned, false) {
			t.Errorf("%s: heuristic and re-planned shapes disagree on the result set", name)
		}
	}
	(&lattice{src: src, axes: replanAxes()}).run(t)
}

// replanAxes are TestReplanDeterminism's: every worker count at both
// partition settings.
func replanAxes() []axis {
	return []axis{partitionsAxis(1, 8), workersAxis(0, 1, 2, 4, 8)}
}

// TestTrueCardinalityWorkerInvariance: the collected true row counts —
// Result.PlanRows, resolved through counter folding and the Tagging
// Dictionary — are identical for serial and parallel runs of one
// artifact.
func TestTrueCardinalityWorkerInvariance(t *testing.T) {
	w, _ := queries.SQLByName("join-3way")
	src := source{build: func() *catalog.Catalog { return datagen.Generate(datagen.Config{ScaleFactor: 0.05, Seed: 42}) },
		stmts: []stmt{sqlStmt(w.Name, w.SQL)}, opts: DefaultOptions()}
	src.opts.TupleCounters = true
	var serial map[plan.Node]int64
	l := &lattice{src: src, axes: []axis{workersAxis(0, 1, 4)}, name: noSubtest, each: func(t *testing.T, r latticeRun) {
		if len(r.res.PlanRows) == 0 {
			t.Fatalf("workers=%d: no true cardinalities collected", r.c.opts.Workers)
		}
		if serial == nil {
			serial = r.res.PlanRows
		}
		if len(r.res.PlanRows) != len(serial) {
			t.Fatalf("workers=%d: %d counted nodes vs %d serial", r.c.opts.Workers, len(r.res.PlanRows), len(serial))
		}
		for n, rows := range r.res.PlanRows {
			if serial[n] != rows {
				t.Errorf("workers=%d: node %s counted %d rows, serial counted %d", r.c.opts.Workers, n.Kind(), rows, serial[n])
			}
		}
	}}
	l.run(t)
}

// TestServiceHistoryReplan: the production loop end to end. The opaque-
// filter join misestimates badly, so the first service compile picks the
// unfused shape; Adapt observes true cardinalities, detects that a
// re-plan would change the physical plan, and bumps the fingerprint's
// generation; the next Prepare recompiles — under the history — into the
// fused shape, with an identical result set.
func TestServiceHistoryReplan(t *testing.T) {
	cat := datagen.Generate(datagen.Config{ScaleFactor: 0.05, Seed: 42})
	svc := NewService(cat, DefaultOptions(), 0)
	se := svc.NewSession()
	w, _ := queries.SQLByName("join-opaque")

	p1, err := se.Prepare(w.SQL)
	if err != nil {
		t.Fatal(err)
	}
	shape1 := plan.Shape(p1.Compiled.Plan)
	r1, err := se.Run(p1, nil)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := se.Adapt(w.SQL, nil); err != nil {
		t.Fatal(err)
	}
	if svc.History().Len() == 0 {
		t.Fatal("Adapt observed nothing into the history")
	}
	if gen := svc.gens.Current(p1.Fingerprint); gen == 0 {
		t.Fatal("material cardinality shift with a shape change did not bump the generation")
	}

	p2, err := svc.NewSession().Prepare(w.SQL)
	if err != nil {
		t.Fatal(err)
	}
	shape2 := plan.Shape(p2.Compiled.Plan)
	if shape1 == shape2 {
		t.Fatalf("service did not re-plan after the history shift; shape stayed %s", shape1)
	}
	if plan.Canon(p1.Compiled.Plan) != plan.Canon(p2.Compiled.Plan) {
		t.Fatal("re-planned query changed its canonical expression")
	}
	r2, err := svc.NewSession().Run(p2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.SameRows(r1.Rows, r2.Rows, false) {
		t.Fatalf("re-planned query changed the result set (%d vs %d rows)", len(r1.Rows), len(r2.Rows))
	}
	if r2.Stats.Cycles >= r1.Stats.Cycles {
		t.Errorf("re-planned query is not faster: %d vs %d cycles", r2.Stats.Cycles, r1.Stats.Cycles)
	}

	// A second Adapt on the now-correct plan must not thrash: the
	// history agrees with the served shape, so the generation holds.
	gen := svc.gens.Current(p1.Fingerprint)
	if _, err := se.Adapt(w.SQL, nil); err != nil {
		t.Fatal(err)
	}
	p3, err := se.Prepare(w.SQL)
	if err != nil {
		t.Fatal(err)
	}
	if s3 := plan.Shape(p3.Compiled.Plan); s3 != shape2 {
		t.Fatalf("stable history re-planned again: %s -> %s", shape2, s3)
	}
	_ = gen
}

// TestServiceHistoryConcurrent drives Adapt and Execute from several
// sessions at once — the history, generation table and cache must stay
// consistent under contention (run with -race).
func TestServiceHistoryConcurrent(t *testing.T) {
	cat := datagen.Generate(datagen.Config{ScaleFactor: 0.05, Seed: 42})
	svc := NewService(cat, DefaultOptions(), 0)
	stmts := []string{"join-opaque", "agg-group", "join-groupjoin", "scan-filter"}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			se := svc.NewSession()
			w, _ := queries.SQLByName(stmts[i%len(stmts)])
			if _, err := se.Adapt(w.SQL, nil); err != nil {
				errs <- fmt.Errorf("adapt %s: %w", w.Name, err)
				return
			}
			for j := 0; j < 3; j++ {
				w2, _ := queries.SQLByName(stmts[(i+j)%len(stmts)])
				if _, _, err := se.Execute(w2.SQL, nil); err != nil {
					errs <- fmt.Errorf("execute %s: %w", w2.Name, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if svc.History().Len() == 0 {
		t.Error("no observations reached the shared history")
	}
}

// staleStats serves statistics computed from an outdated twin of the
// catalog (a smaller, differently-seeded generation of the same schema):
// the "statistics last ANALYZEd a while ago" regime.
type staleStats struct{ twin *catalog.Catalog }

func (s staleStats) ColStats(t *catalog.Table, col string) (catalog.Stats, bool) {
	twin, err := s.twin.Table(t.Name)
	if err != nil || twin.Col(col) == nil {
		return catalog.Stats{}, false
	}
	return twin.ColStats(col), true
}

// absentStats is the no-statistics regime: every column reports zero
// stats, driving the planner onto its magic-constant fallbacks.
type absentStats struct{}

func (absentStats) ColStats(*catalog.Table, string) (catalog.Stats, bool) {
	return catalog.Stats{}, true
}

// joinHeavyQErrors plans every SQL suite statement under est, runs the
// planned artifact with tuple counters, and returns the q-error of every
// operator of the plans that contain a join. A non-nil h learns every
// plan's observed cardinalities, as the service's history does.
func joinHeavyQErrors(t *testing.T, cat *catalog.Catalog, est plan.Estimator, h *cost.History) []float64 {
	t.Helper()
	opts := DefaultOptions()
	opts.TupleCounters = true
	var qs []float64
	for _, w := range queries.SQLSuite() {
		pl := planSQLWith(t, cat, w.SQL, est)
		cq, err := (&Compiler{Cat: cat, Opts: opts}).CompilePlanGuided(pl, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		res, err := (&executor{Opts: opts}).run(cq, nil, 1, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if strings.Contains(plan.Canon(pl), "join{") {
			plan.Walk(pl, func(n plan.Node) {
				if _, isOut := n.(*plan.Output); isOut {
					return
				}
				if rows, ok := res.PlanRows[n]; ok {
					qs = append(qs, cost.QError(n.EstRows(), rows))
				}
			})
		}
		if h != nil {
			cost.ObserveTrueRows(h, pl, cq.Pipe, res.TupleCounts)
		}
	}
	return qs
}

// TestCEHistoryBeatsNaive is the cardinality-estimation gate: on two
// datasets under fresh, stale and absent statistics, the history
// trained by the heuristic plans' runs must bring the median q-error of
// join-heavy plans below the heuristic estimator's.
func TestCEHistoryBeatsNaive(t *testing.T) {
	median := func(qs []float64) float64 {
		if len(qs) == 0 {
			t.Fatal("no join-heavy operators observed")
		}
		sort.Float64s(qs)
		return qs[len(qs)/2]
	}
	for _, ds := range []datagen.Config{{ScaleFactor: 0.02, Seed: 7}, {ScaleFactor: 0.01, Seed: 8}} {
		cat := datagen.Generate(ds)
		twin := datagen.Generate(datagen.Config{ScaleFactor: ds.ScaleFactor / 4, Seed: ds.Seed + 3})
		for _, health := range []struct {
			name string
			src  cost.StatsSource
		}{{"fresh", cost.FreshStats{}}, {"stale", staleStats{twin}}, {"absent", absentStats{}}} {
			h := cost.NewHistory()
			naive := median(joinHeavyQErrors(t, cat, &cost.Naive{Stats: health.src}, h))
			corrected := median(joinHeavyQErrors(t, cat, &cost.HistoryCorrected{Base: &cost.Naive{Stats: health.src}, H: h}, nil))
			t.Logf("sf=%g seed=%d %-6s naive median q-error %.2f, history %.2f",
				ds.ScaleFactor, ds.Seed, health.name, naive, corrected)
			if corrected >= naive {
				t.Errorf("sf=%g seed=%d %s statistics: history median q-error %.2f not below naive %.2f",
					ds.ScaleFactor, ds.Seed, health.name, corrected, naive)
			}
		}
	}
}
