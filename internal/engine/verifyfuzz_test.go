package engine

// Fuzzing the verifier itself: the artifact gate (verify.Check, absint
// included) must never panic and never report a false positive on a
// module mutated through arbitrary *legal* pass orders. This is the dual
// of TestPGOLineagePreservation (which fuzzes the passes against
// hand-rolled assertions): here the same harness drives the pass orders,
// and the gate is the oracle under test — after every single pass
// application the artifact must come back clean, and so must the final
// emitted program.

import (
	"testing"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/iropt"
	"repro/internal/queries"
	"repro/internal/verify"
	"repro/internal/xrand"
)

// verifiedWorkloads are a scan-heavy aggregation (one tight loop,
// branch-dominated) and the paper's join+group-by query (multiple
// pipelines, hash probes).
var verifiedWorkloads = []string{"q6", "fig9"}

// TestVerifyArtifactsOption compiles with the in-engine verification
// gate enabled: pipeline, every optimizer pass, and emit each run the
// artifact gate.
func TestVerifyArtifactsOption(t *testing.T) {
	cat := testCatalog(t)
	for _, name := range verifiedWorkloads {
		w, ok := queries.ByName(name)
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		t.Run(name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.VerifyArtifacts = true
			e := New(cat, opts)
			if _, err := e.CompileQuery(w.Query); err != nil {
				t.Fatalf("verified compile: %v", err)
			}
		})
	}
}

func TestVerifierNoFalsePositivesUnderPassFuzz(t *testing.T) {
	cat := testCatalog(t)
	rng := xrand.New(0x7e7a11ed)
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

			for trial := 0; trial < 3; trial++ {
				pc := compileUnoptimized(t, e, cq.Plan)
				art := &verify.Artifact{
					Module:          pc.Module,
					Dict:            pc.Dict,
					RegisterTagging: e.Opts.RegisterTagging,
					Pipelines:       pc.Pipelines,
					Mem:             cq.Mem,
				}
				var order []string
				for i := 0; i < 8; i++ {
					p := passes[rng.Intn(len(passes))]
					order = append(order, p.name)
					p.run(pc.Module, pc.Dict)
					art.Phase = "fuzz/" + p.name
					if ds := verify.Check(art); len(ds) != 0 {
						t.Fatalf("order %v: false positive(s) on a legally-mutated module:\n%v", order, ds)
					}
				}
				ccfg := codegen.DefaultConfig(0, spillBase, spillCap)
				ccfg.RegisterTagging = e.Opts.RegisterTagging
				ccfg.FuseCmpBranch = e.Opts.FuseCmpBranch
				code, err := codegen.Compile(pc.Module, ccfg)
				if err != nil {
					t.Fatalf("order %v: codegen: %v", order, err)
				}
				art.Phase = "fuzz/emit"
				art.Code = code
				if ds := verify.Check(art); len(ds) != 0 {
					t.Fatalf("order %v: false positive(s) on the emitted program:\n%v", order, ds)
				}
			}
		})
	}
}
