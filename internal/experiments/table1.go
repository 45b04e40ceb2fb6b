package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ir"
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
		{Optimization: "Code motion", Supported: true, Implemented: true,
			Note: "moved instruction keeps its ID and links"},
		{Optimization: "Loop unrolling & interleaving", Supported: true, Implemented: false,
			Note: "not implemented (matches Umbra prototype)"},
		{Optimization: "Polyhedral optimizations", Supported: true, Implemented: false,
			Note: "not implemented (matches Umbra prototype)"},
		{Optimization: "Dataflow graph operator fusion", Supported: true, Implemented: true,
			Note: "groupjoin with split task sections"},
		{Optimization: "Common abstraction for accelerators", Supported: false, Implemented: false,
			Note: "future work in the paper too"},
	}

	// verify runs w with mut applied and checks results and attribution;
	// extra, when set, checks the run further and names what failed.
	verify := func(mut func(*engine.Options), w queries.Workload, extra func(*engine.Compiled, *engine.Result) string) (bool, string) {
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
		note := fmt.Sprintf("results correct, %.1f%% attributed", att.AttributedPct)
		if extra != nil {
			if msg := extra(cq, res); msg != "" {
				return false, msg
			}
			note += ", moved code credits its own task"
		}
		return true, note
	}

	checks := map[string]func() (bool, string){
		"Operator fusion": func() (bool, string) { return verify(nil, queries.Intro(true), nil) },
		"Instruction fusing": func() (bool, string) {
			return verify(func(o *engine.Options) { o.FuseCmpBranch = true }, queries.Fig9(), nil)
		},
		"Code elimination": func() (bool, string) {
			return verify(func(o *engine.Options) { o.Optimize.DCE = true }, queries.Intro(true), nil)
		},
		"Constant folding": func() (bool, string) {
			return verify(func(o *engine.Options) { o.Optimize.ConstFold = true }, queries.Intro(true), nil)
		},
		"Common subexpression elimination": func() (bool, string) {
			return verify(func(o *engine.Options) { o.Optimize.CSE = true }, queries.Intro(true), nil)
		},
		"Code motion": func() (bool, string) {
			return verify(func(o *engine.Options) { o.Optimize.Hoist = true }, queries.Fig10(false), e.movedCodeCreditsOwnTask)
		},
		"Dataflow graph operator fusion": func() (bool, string) { return verify(nil, queries.Intro(false), nil) },
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

// movedCodeCreditsOwnTask checks code motion's attribution on a run of
// cq: every sample on a native instruction descending from a moved IR
// instruction — one the optimizer placed in another block than a compile
// without code motion — credits that instruction's task(s) and no task
// foreign to the native instruction's IR instructions. It returns "" when
// the check holds.
func (e *Env) movedCodeCreditsOwnTask(cq *engine.Compiled, res *engine.Result) string {
	opts := engine.DefaultOptions()
	opts.Optimize.Hoist = false
	still, err := engine.New(e.Cat, opts).CompilePlanGuided(cq.Plan, nil)
	if err != nil {
		return err.Error()
	}
	home := map[int]string{}
	still.Pipe.Module.ForEachInstr(func(_ *ir.Func, b *ir.Block, in *ir.Instr) { home[in.ID] = b.Name })
	moved := map[int]bool{}
	cq.Pipe.Module.ForEachInstr(func(_ *ir.Func, b *ir.Block, in *ir.Instr) {
		if h, ok := home[in.ID]; ok && h != b.Name {
			moved[in.ID] = true
		}
	})
	if len(moved) == 0 {
		return "nothing moved"
	}
	dict, nmap := cq.Pipe.Dict, cq.Code.NMap
	att := core.NewAttributor(dict, nmap)
	sampled := 0
	for _, s := range res.Samples {
		if s.IP >= len(nmap.IRs) {
			continue
		}
		owners := map[core.ComponentID]bool{}
		var movedIDs []int
		for _, id := range nmap.IRs[s.IP] {
			for _, t := range dict.TasksOf(id) {
				owners[t] = true
			}
			if moved[id] {
				movedIDs = append(movedIDs, id)
			}
		}
		if len(movedIDs) == 0 {
			continue
		}
		sampled++
		credited := map[core.ComponentID]bool{}
		for _, cr := range att.Attribute(&s).Credits {
			if !owners[cr.Task] {
				return fmt.Sprintf("a sample on moved code credits foreign task %d", cr.Task)
			}
			credited[cr.Task] = true
		}
		for _, id := range movedIDs {
			for _, t := range dict.TasksOf(id) {
				if !credited[t] {
					return fmt.Sprintf("a sample on moved %%%d misses its task %d", id, t)
				}
			}
		}
	}
	if sampled == 0 {
		return "no sample landed on moved code"
	}
	return ""
}

func mark(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
