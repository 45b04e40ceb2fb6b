package engine

import (
	"testing"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/iropt"
	"repro/internal/pipeline"
	"repro/internal/plan"
	"repro/internal/queries"
	"repro/internal/xrand"
)

// TestPGOLineagePreservation fuzzes the pass order: constant folding,
// CSE and DCE applied in arbitrary sequences (not just the fixpoint order
// Optimize uses), then native code generation, must leave a valid module
// where every surviving IR instruction — and every IR instruction a
// generated native instruction claims to implement — still resolves to
// at least one task through the Tagging Dictionary.
func TestPGOLineagePreservation(t *testing.T) {
	cat := testCatalog(t)
	rng := xrand.New(20260806)
	for _, w := range queries.Suite() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			e := New(cat, DefaultOptions())
			cq, err := e.CompileQuery(w.Query)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			type pass struct {
				name string
				run  func(m *ir.Module, lin core.Lineage)
			}
			passes := []pass{
				{"fold", func(m *ir.Module, lin core.Lineage) { iropt.ConstFold(m, lin) }},
				{"cse", func(m *ir.Module, lin core.Lineage) { iropt.CSE(m, lin) }},
				{"dce", func(m *ir.Module, lin core.Lineage) { iropt.DCE(m, lin) }},
			}

			for trial := 0; trial < 5; trial++ {
				pc := compileUnoptimized(t, e, cq.Plan)
				var order []string
				for i := 0; i < 8; i++ {
					p := passes[rng.Intn(len(passes))]
					order = append(order, p.name)
					p.run(pc.Module, pc.Dict)
				}
				if err := pc.Module.Verify(); err != nil {
					t.Fatalf("order %v: module invalid: %v", order, err)
				}
				pc.Module.ForEachInstr(func(_ *ir.Func, _ *ir.Block, in *ir.Instr) {
					if len(pc.Dict.TasksOf(in.ID)) == 0 {
						t.Fatalf("order %v: surviving instr %%%d (%v) has no tasks", order, in.ID, in.Op)
					}
				})
				ccfg := codegen.DefaultConfig(0, spillBase, spillCap)
				ccfg.RegisterTagging = e.Opts.RegisterTagging
				ccfg.FuseCmpBranch = e.Opts.FuseCmpBranch
				code, err := codegen.Compile(pc.Module, ccfg)
				if err != nil {
					t.Fatalf("order %v: codegen: %v", order, err)
				}
				checkNativeLineage(t, code.NMap, pc.Dict)
			}
		})
	}
}

// compileUnoptimized rebuilds the pipeline IR for a plan without running
// any optimization pass: the raw module the fuzzed pass orders start from,
// the merge kernels joined in as a parallel run receives them.
func compileUnoptimized(t *testing.T, e *Engine, pl *plan.Output) *pipeline.Compiled {
	t.Helper()
	cq := &Compiled{Plan: pl}
	lay, err := e.buildLayout(pl, cq)
	if err != nil {
		t.Fatalf("layout: %v", err)
	}
	pc, err := pipeline.Compile(pl, lay, pipeline.Options{
		RegisterTagging:  e.Opts.RegisterTagging,
		TagEverything:    e.Opts.TagEverything,
		EagerColumnLoads: e.Opts.EagerColumnLoads,
		TupleCounters:    e.Opts.TupleCounters,
	})
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	pc.JoinKernels()
	return pc
}

// checkNativeLineage walks the native map and asserts every IR ID a
// generated-region instruction is tagged with resolves to at least one
// task. (Edge-block jumps carry no IR IDs; an empty list is legal.)
func checkNativeLineage(t *testing.T, nmap *core.NativeMap, dict *core.Dictionary) {
	t.Helper()
	for pos := range nmap.Region {
		if nmap.Region[pos] != core.RegionGenerated {
			continue
		}
		for _, irID := range nmap.IRs[pos] {
			if len(dict.TasksOf(irID)) == 0 {
				t.Fatalf("native %d: IR %%%d resolves to no task", pos, irID)
			}
		}
	}
}
