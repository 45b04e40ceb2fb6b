package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/queries"
	"repro/internal/viz"
)

// Listing1 reproduces Listing 1 / Fig. 6b: the annotated IR listing of the
// intro query's probe pipeline, with per-instruction sample shares and
// owning operators, plus the block-level operator summaries.
func (e *Env) Listing1() (string, error) {
	cq, res, err := e.profileQuery(queries.Intro(true), 1000)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("=== Listing 1 / Fig. 6b: annotated IR profile (probe pipeline) ===\n\n")
	// The probe pipeline is the one whose tasks include the join probe:
	// find the last base-table-driven pipeline (sales scan).
	probeFunc := ""
	for _, p := range cq.Pipe.Pipelines {
		for _, tid := range p.Tasks {
			if cq.Pipe.Registry.Get(tid).Kind == "probe" {
				probeFunc = p.Func
			}
		}
	}
	if probeFunc == "" {
		return "", fmt.Errorf("listing1: no probe pipeline found")
	}
	f := cq.Pipe.Module.FuncByName(probeFunc)
	sb.WriteString(viz.AnnotatedIR(f, cq.Pipe, res.Profile))
	sb.WriteString("\n=== Fig. 6a: same samples aggregated per operator ===\n\n")
	sb.WriteString(viz.AnnotatedPlan(cq.Plan, cq.Pipe, res.Profile))
	sb.WriteString("\n=== Tagging Dictionary (excerpt) ===\n\n")
	dump := cq.Pipe.Dict.Dump()
	lines := strings.SplitN(dump, "Log B", 2)
	sb.WriteString(lines[0])
	if len(lines) > 1 {
		blines := strings.Split("Log B"+lines[1], "\n")
		n := len(blines)
		if n > 24 {
			blines = blines[:24]
		}
		sb.WriteString(strings.Join(blines, "\n"))
		if n > 24 {
			fmt.Fprintf(&sb, "\n  ... (%d more entries)\n", n-24)
		}
	}
	return sb.String(), nil
}

// PlanCost is one plan of Fig. 9: the shares of its samples (in %) that
// its group-by and hash-join operators hold.
type PlanCost struct {
	Query               string
	GroupByPct, JoinPct float64
}

// PlanCosts reproduces Fig. 9: the domain-expert view — the query plan
// annotated with each operator's share of compute time.
func (e *Env) PlanCosts() (string, []PlanCost, error) {
	var sb strings.Builder
	var costs []PlanCost
	sb.WriteString("=== Fig. 9: per-operator cost profiles ===\n")
	for _, w := range []queries.Workload{queries.Fig9(), queries.Intro(true)} {
		cq, res, err := e.profileQuery(w, DefaultPeriod)
		if err != nil {
			return "", nil, err
		}
		fmt.Fprintf(&sb, "\n%s — %s\nruntime %.2f ms, %d samples\n\n",
			w.Name, w.Description, ms(res.Stats.Cycles), res.Profile.TotalSamples)
		sb.WriteString(viz.AnnotatedPlan(cq.Plan, cq.Pipe, res.Profile))
		sb.WriteString("\n")
		sb.WriteString(viz.OperatorTable(res.Profile))
		pc := PlanCost{Query: w.Name}
		for _, c := range res.Profile.OperatorCosts() {
			switch c.Kind {
			case "group by":
				pc.GroupByPct += c.Pct
			case "hash join":
				pc.JoinPct += c.Pct
			}
		}
		costs = append(costs, pc)
	}
	return sb.String(), costs, nil
}

// Activity reproduces Fig. 7: operator activity over the query runtime,
// in 60 time bins.
func (e *Env) Activity() (string, *core.Timeline, error) {
	_, res, err := e.profileQuery(queries.Fig9(), 1000)
	if err != nil {
		return "", nil, err
	}
	var sb strings.Builder
	sb.WriteString("=== Fig. 7: operator activity over time (fig9 query) ===\n\n")
	tl := res.Profile.BuildTimeline(60)
	sb.WriteString(viz.TimelineChart(tl, res.CPU.FreqGHz))
	return sb.String(), tl, nil
}

// Optimizer reproduces the optimizer-developer use case (Fig. 10/11): the
// two alternative plans' runtimes, branch behaviour, and activity
// timelines; the data layout (lineitem ordered by orderkey, o_orderdate
// correlated with o_orderkey) makes the phase change emerge. It returns
// the alternative plan's speedup over the optimizer's.
func (e *Env) Optimizer() (string, float64, error) {
	var sb strings.Builder
	sb.WriteString("=== Fig. 10/11: alternative plans for the 3-way join ===\n")
	var cycles [2]uint64
	for i, alt := range []bool{false, true} {
		w := queries.Fig10(alt)
		cq, res, err := e.profileQuery(w, 1000)
		if err != nil {
			return "", 0, err
		}
		fmt.Fprintf(&sb, "\n%s (%s)\n", w.Name,
			map[bool]string{false: "plan chosen by optimizer, Fig. 10a", true: "alternative plan, Fig. 10b"}[alt])
		fmt.Fprintf(&sb, "runtime %.2f ms   branches %d   mispredictions %d (%.2f%%)\n",
			ms(res.Stats.Cycles), res.Stats.Branches, res.Stats.BranchMisses,
			100*float64(res.Stats.BranchMisses)/float64(res.Stats.Branches))
		sb.WriteString(viz.AnnotatedPlan(cq.Plan, cq.Pipe, res.Profile))
		tl := res.Profile.BuildTimeline(60)
		sb.WriteString(viz.TimelineChart(tl, res.CPU.FreqGHz))
		cycles[i] = res.Stats.Cycles
	}
	speedup := float64(cycles[0]) / float64(cycles[1])
	fmt.Fprintf(&sb, "\nspeedup of alternative plan: %.2fx (paper: alternative faster)\n", speedup)
	return sb.String(), speedup, nil
}

// Memory reproduces Fig. 12: per-operator memory access profiles from
// MEM_LOADS samples with captured addresses. It returns the number of
// captured addresses.
func (e *Env) Memory() (string, int, error) {
	eng := e.engine()
	// Attribute column loads to the scans so each scan's sequential
	// access band appears under its own operator, as in Fig. 12.
	eng.Opts.EagerColumnLoads = true
	w := queries.Fig9()
	cq, err := eng.CompileQuery(w.Query)
	if err != nil {
		return "", 0, err
	}
	res, err := eng.Run(cq, memLoadsConfig(1000))
	if err != nil {
		return "", 0, err
	}
	points := 0
	for _, m := range res.Profile.MemByOp {
		points += len(m)
	}
	var sb strings.Builder
	sb.WriteString("=== Fig. 12: memory access patterns per operator (fig9 query) ===\n\n")
	sb.WriteString("x: time; y: address offset from the operator's lowest accessed address\n\n")
	sb.WriteString(viz.MemoryProfile(res.Profile, 72, 8, engine.DataFloor))
	return sb.String(), points, nil
}
