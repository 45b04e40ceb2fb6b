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
	"repro/internal/ref"
	"repro/internal/xrand"
)

// pgoWorkloads are the adaptive-cycle battery: a scan-heavy aggregation
// (one tight loop, branch-dominated) and the paper's join+group-by query
// (multiple pipelines, hash probes).
var pgoWorkloads = []string{"q6", "fig9"}

// TestPGONoCycleRegression is the CI gate: profile-guided recompilation
// must never make a query slower in simulated cycles. Every suite plan is
// gated on guided ≤ unguided cycles; the log shows the difference.
// RunAdaptive itself fails the test if the rows change.
func TestPGONoCycleRegression(t *testing.T) {
	cat := testCatalog(t)
	for _, w := range queries.Suite() {
		t.Run(w.Name, func(t *testing.T) {
			e := New(cat, DefaultOptions())
			cq, err := e.CompileQuery(w.Query)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			ar, err := e.RunAdaptive(cq, nil)
			if err != nil {
				t.Fatalf("RunAdaptive: %v", err)
			}
			t.Logf("%s: %d -> %d cycles (%+.2f%%)", w.Name, ar.BaselineCycles, ar.TunedCycles,
				100*(float64(ar.TunedCycles)/float64(ar.BaselineCycles)-1))
			if ar.TunedCycles > ar.BaselineCycles {
				t.Fatalf("recompilation regressed: %d cycles -> %d cycles",
					ar.BaselineCycles, ar.TunedCycles)
			}
		})
	}
}

// TestRecompileDeterministicAcrossWorkers runs the full adaptive cycle on
// 1, 2, 4, and 8 workers. The recompiled query must match the interpreted
// reference executor at every worker count (RunAdaptive already checks
// tuned == baseline rows within a count), and re-profiling the tuned
// binary must yield a well-formed profile whose generated-code samples
// all attribute through the Tagging Dictionary.
func TestRecompileDeterministicAcrossWorkers(t *testing.T) {
	cat := testCatalog(t)
	for _, name := range pgoWorkloads {
		w, ok := queries.ByName(name)
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		t.Run(name, func(t *testing.T) {
			var want [][]int64
			for _, workers := range workerCounts {
				opts := DefaultOptions()
				opts.Workers = workers
				opts.MorselRows = 256
				e := New(cat, opts)
				cq, err := e.CompileQuery(w.Query)
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				if want == nil {
					want, err = ref.Execute(cq.Plan)
					if err != nil {
						t.Fatalf("reference: %v", err)
					}
				}
				ar, err := e.RunAdaptive(cq, nil)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				rowsEqual(t, ar.Tuned.Rows, want, len(cq.Plan.OrderBy) > 0)

				// Second generation: the tuned binary must itself be
				// profilable, and its samples must still resolve.
				cfg := DefaultPGOSampling()
				res, err := e.Run(ar.Recompiled, &cfg)
				if err != nil {
					t.Fatalf("workers=%d: re-profile: %v", workers, err)
				}
				if res.Profile == nil {
					t.Fatalf("workers=%d: re-profile produced no profile", workers)
				}
				checkNativeLineage(t, ar.Recompiled.Code.NMap, ar.Recompiled.Pipe.Dict)
				if len(res.Profile.IRWeight) == 0 {
					t.Fatalf("workers=%d: second-generation profile attributes no weight", workers)
				}
			}
		})
	}
}

// TestPGOLineagePreservation fuzzes the pass order: constant folding,
// CSE and DCE applied in arbitrary sequences (not just the fixpoint order
// Optimize uses), then a compile guided by a profile's IR weights, must
// leave a valid module
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
			cfg := DefaultPGOSampling()
			res, err := e.Run(cq, &cfg)
			if err != nil {
				t.Fatalf("profiling run: %v", err)
			}
			if res.Profile == nil {
				t.Fatal("no profile")
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
				ccfg.Hot = res.Profile.IRWeight
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
// any optimization pass: the raw module the fuzzed pass orders start from.
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
