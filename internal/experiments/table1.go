package experiments

import (
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/pmu"
	"repro/internal/queries"
	"repro/internal/ref"
	"repro/internal/vm"
)

// Table1Row is one optimization's support status, verified dynamically:
// the optimization is enabled, results are compared against the reference
// executor, and attribution must stay high.
type Table1Row struct {
	Optimization string
	Supported    bool // supported by Tailored Profiling's design
	Implemented  bool // implemented in this engine
	Verified     bool // dynamic check passed
	Note         string
}

// Table1 reproduces the optimization-support matrix. Rows marked
// unimplemented mirror the paper's Umbra column (loop unrolling,
// polyhedral transformations, heterogeneous accelerators); unlike Umbra,
// this engine *does* implement compare-and-branch instruction fusing.
func (e *Env) Table1() (string, []Table1Row, error) {
	rows := []Table1Row{
		{Optimization: "Operator fusion", Supported: true, Implemented: true,
			Note: "pipelines compile to single tight loops"},
		{Optimization: "Instruction fusing", Supported: true, Implemented: true,
			Note: "backend cmp+branch fusion; multi-link debug info"},
		{Optimization: "Code elimination", Supported: true, Implemented: true,
			Note: "IR dead-code elimination drops Log B links"},
		{Optimization: "Constant folding", Supported: true, Implemented: true,
			Note: "folded in place; operands fall to DCE"},
		{Optimization: "Common subexpression elimination", Supported: true, Implemented: true,
			Note: "survivor multi-linked as shared location"},
		{Optimization: "Loop unrolling & interleaving", Supported: true, Implemented: false,
			Note: "not implemented (matches Umbra prototype)"},
		{Optimization: "Polyhedral optimizations", Supported: true, Implemented: false,
			Note: "not implemented (matches Umbra prototype)"},
		{Optimization: "Dataflow graph operator fusion", Supported: true, Implemented: true,
			Note: "groupjoin with split task sections"},
		{Optimization: "Common abstraction for accelerators", Supported: false, Implemented: false,
			Note: "future work in the paper too"},
	}

	verify := func(mut func(*engine.Options), w queries.Workload) (bool, string) {
		opts := engine.DefaultOptions()
		if mut != nil {
			mut(&opts)
		}
		eng := engine.New(e.Cat, opts)
		cq, err := eng.CompileQuery(w.Query)
		if err != nil {
			return false, err.Error()
		}
		want, err := ref.Execute(cq.Plan)
		if err != nil {
			return false, err.Error()
		}
		res, err := eng.Run(cq, &pmu.Config{Event: vm.EvCycles, Period: 997, Format: pmu.FormatIPTimeRegs})
		if err != nil {
			return false, err.Error()
		}
		if !ref.SameRows(res.Rows, want, false) {
			return false, "results differ from reference"
		}
		att := res.Profile.Attribution()
		if att.AttributedPct < 90 {
			return false, fmt.Sprintf("attribution dropped to %.1f%%", att.AttributedPct)
		}
		return true, fmt.Sprintf("results correct, %.1f%% attributed", att.AttributedPct)
	}

	checks := map[string]func() (bool, string){
		"Operator fusion": func() (bool, string) { return verify(nil, queries.Intro(true)) },
		"Instruction fusing": func() (bool, string) {
			return verify(func(o *engine.Options) { o.FuseCmpBranch = true }, queries.Fig9())
		},
		"Code elimination": func() (bool, string) {
			return verify(func(o *engine.Options) { o.Optimize.DCE = true }, queries.Intro(true))
		},
		"Constant folding": func() (bool, string) {
			return verify(func(o *engine.Options) { o.Optimize.ConstFold = true }, queries.Intro(true))
		},
		"Common subexpression elimination": func() (bool, string) {
			return verify(func(o *engine.Options) { o.Optimize.CSE = true }, queries.Intro(true))
		},
		"Dataflow graph operator fusion": func() (bool, string) { return verify(nil, queries.Intro(false)) },
	}

	for i := range rows {
		if chk, ok := checks[rows[i].Optimization]; ok {
			v, note := chk()
			rows[i].Verified = v
			rows[i].Note = note
		}
	}

	var sb strings.Builder
	sb.WriteString("=== Table 1: optimization support matrix ===\n\n")
	fmt.Fprintf(&sb, "%-36s %-10s %-12s %-9s %s\n", "optimization", "supported", "implemented", "verified", "note")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-36s %-10s %-12s %-9s %s\n",
			r.Optimization, mark(r.Supported), mark(r.Implemented), mark(r.Verified), r.Note)
	}
	return sb.String(), rows, nil
}

func mark(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
