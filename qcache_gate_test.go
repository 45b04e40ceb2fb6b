package tprof

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/experiments"
)

// TestServiceCacheHitSpeedup is the CI gate on the compiled-query cache:
// preparing a statement against a warm cache (normalize → fingerprint →
// hit → argument encoding) must be at least 10x faster than compiling the
// same statement from scratch. The measured ratio is recorded in
// BENCH_qcache.json; this test keeps it from silently regressing.
func TestServiceCacheHitSpeedup(t *testing.T) {
	env := experiments.NewEnv(0.05, 42)
	const sql = "select l_orderkey, sum(l_quantity), sum(l_extendedprice) " +
		"from lineitem where l_quantity < 24 group by l_orderkey"

	svc := engine.NewService(env.Cat, engine.DefaultOptions(), 0)
	se := svc.NewSession()
	if _, err := se.Prepare(sql); err != nil {
		t.Fatal(err)
	}
	hit := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, err := se.Prepare(sql)
			if err != nil {
				b.Fatal(err)
			}
			if !p.CacheHit {
				b.Fatal("expected a cache hit")
			}
		}
	})

	comp := engine.NewCompiler(env.Cat, engine.DefaultOptions())
	compile := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := comp.CompileSQL(sql); err != nil {
				b.Fatal(err)
			}
		}
	})

	if hit.N == 0 || compile.N == 0 {
		t.Fatal("benchmarks did not run")
	}
	speedup := float64(compile.NsPerOp()) / float64(hit.NsPerOp())
	t.Logf("cache hit %v/op vs compile %v/op: %.1fx", hit.NsPerOp(), compile.NsPerOp(), speedup)
	if speedup < 10 {
		t.Fatalf("cache-hit prepare is only %.1fx faster than a full compile (want >= 10x)", speedup)
	}
}

// TestCompileFootprint is the deterministic gate on what a cache miss
// allocates: compiling BENCH_qcache.json's statement from scratch took
// 6945 allocations before the lowering stack (IR builder and verifier,
// CSE/DCE, LIR lowering, liveness and linear scan) moved from
// pointer-keyed maps to dense indices and slabs, and 1049 once the
// Tagging Dictionary's Log B became a table too. A compile now builds the
// serial program only, 604 allocations, and the first parallel run builds
// the merge kernels (engine.Compiled.Parallel); each count is gated, so
// neither half can grow back: the compile at its count plus a quarter, the
// compile with its kernels at the gate of the compile that built them
// both, 1049 plus a quarter. Counts, unlike times, repeat exactly, so this
// fails on the first map or per-instruction allocation that grows back.
func TestCompileFootprint(t *testing.T) {
	env := experiments.NewEnv(0.05, 42)
	const sql = "select l_orderkey, sum(l_quantity), sum(l_extendedprice) " +
		"from lineitem where l_quantity < 24 group by l_orderkey"
	comp := engine.NewCompiler(env.Cat, engine.DefaultOptions())
	for _, c := range []struct {
		name    string
		kernels bool
		limit   float64
	}{
		{"a compile", false, 604 * 5 / 4},
		{"a compile and its merge kernels", true, 1049 * 5 / 4},
	} {
		allocs := testing.AllocsPerRun(5, func() {
			cq, err := comp.CompileSQL(sql)
			if err != nil {
				t.Fatal(err)
			}
			if c.kernels {
				if _, err := cq.Parallel(); err != nil {
					t.Fatal(err)
				}
			}
		})
		t.Logf("%s: %.0f allocations", c.name, allocs)
		if allocs > c.limit {
			t.Errorf("%s makes %.0f allocations, above the gate of %.0f", c.name, allocs, c.limit)
		}
	}
}
