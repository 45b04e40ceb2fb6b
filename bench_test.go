// Benchmarks of the paper's evaluation (§6) and of the engine itself.
// Each paper benchmark times the one internal/experiments method that
// produces its figure or table (cmd/experiments prints the same method's
// text report) and reports that figure's headline numbers, read from the
// values the method returns, as benchmark metrics. Run them all with
//
//	go test -bench=. -benchmem
package tprof

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/mview"
	"repro/internal/queries"
)

const benchSF = 0.5

func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	return experiments.NewEnv(benchSF, 42)
}

func benchEngine(b *testing.B) *engine.Engine {
	return engine.New(benchEnv(b).Cat, engine.DefaultOptions())
}

// BenchmarkAnnotatedIRProfile times Env.Listing1 (Listing 1 / Fig. 6b):
// the intro query profiled at IR granularity.
func BenchmarkAnnotatedIRProfile(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := env.Listing1(); err != nil {
			b.Fatal(err)
		}
	}
}

// timeEnv times b.N calls of an Env method and returns the values its
// last call returned.
func timeEnv[T any](b *testing.B, method func() (string, T, error)) T {
	var v T
	for i := 0; i < b.N; i++ {
		var err error
		if _, v, err = method(); err != nil {
			b.Fatal(err)
		}
	}
	return v
}

// BenchmarkPlanCostProfile times Env.PlanCosts (Fig. 6a / Fig. 9) and
// reports the intro query's group-by and join shares.
func BenchmarkPlanCostProfile(b *testing.B) {
	for _, c := range timeEnv(b, benchEnv(b).PlanCosts) {
		if c.Query == queries.Intro(true).Name {
			b.ReportMetric(c.GroupByPct, "groupby_pct")
			b.ReportMetric(c.JoinPct, "join_pct")
		}
	}
}

// BenchmarkOperatorActivity times Env.Activity (Fig. 7) and reports the
// simulated cycles one of its 60 time bins spans.
func BenchmarkOperatorActivity(b *testing.B) {
	tl := timeEnv(b, benchEnv(b).Activity)
	if len(tl.Activity) != 60 {
		b.Fatal("timeline bins missing")
	}
	b.ReportMetric(float64(tl.BinCycles), "bin_cycles")
}

// BenchmarkOptimizerPlans times Env.Optimizer (Fig. 10/11) and reports the
// alternative plan's speedup.
func BenchmarkOptimizerPlans(b *testing.B) {
	b.ReportMetric(timeEnv(b, benchEnv(b).Optimizer), "alt_speedup")
}

// BenchmarkMemoryProfile times Env.Memory (Fig. 12) and reports the number
// of captured load addresses.
func BenchmarkMemoryProfile(b *testing.B) {
	b.ReportMetric(float64(timeEnv(b, benchEnv(b).Memory)), "mem_points")
}

// benchOverhead times Env.Overhead (Fig. 13) and reports the overhead, in
// %, of every point unit names; unit returns "" for a point to leave out.
func benchOverhead(b *testing.B, unit func(experiments.OverheadPoint) string) {
	for _, p := range timeEnv(b, benchEnv(b).Overhead) {
		if u := unit(p); u != "" {
			b.ReportMetric(100*p.Overhead, u)
		}
	}
}

// BenchmarkSamplingOverhead reports each record format's overhead at the
// paper's default 0.7 MHz (paper: 35% / 38% / 529%).
func BenchmarkSamplingOverhead(b *testing.B) {
	units := map[string]string{
		"IP, Time":            "ip_time_pct",
		"IP, Time, Registers": "ip_time_regs_pct",
		"IP, Callstack":       "ip_callstack_pct",
	}
	benchOverhead(b, func(p experiments.OverheadPoint) string {
		if p.FreqKHz != 700 {
			return ""
		}
		return units[p.Label]
	})
}

// BenchmarkSamplingFrequencySweep reports the IP+Time+Registers overhead
// along Fig. 13's x-axis, 10 kHz to 1 MHz.
func BenchmarkSamplingFrequencySweep(b *testing.B) {
	benchOverhead(b, func(p experiments.OverheadPoint) string {
		if p.Label != "IP, Time, Registers" {
			return ""
		}
		return fmt.Sprintf("%.0fkHz_pct", p.FreqKHz)
	})
}

// BenchmarkRegisterReservation times Env.RegReserve (§6.2) and reports the
// slowdown from reserving the tag register (paper: 2.8% average).
func BenchmarkRegisterReservation(b *testing.B) {
	b.ReportMetric(100*timeEnv(b, benchEnv(b).RegReserve), "overhead_pct")
}

// BenchmarkAttribution times Env.Attribution (Table 2) and reports the
// attribution shares across the whole query suite (paper: 95.4% operators
// / 2.6% kernel / 2.0% none).
func BenchmarkAttribution(b *testing.B) {
	env := benchEnv(b)
	b.ReportAllocs()
	rows := timeEnv(b, env.Attribution)
	total := rows[len(rows)-1]
	b.ReportMetric(total.OperatorPct, "operators_pct")
	b.ReportMetric(total.KernelPct, "kernel_pct")
	b.ReportMetric(total.NoAttrib, "unattributed_pct")
}

// BenchmarkAccuracy times Env.Accuracy (§6.3); the tag-mismatch count must
// stay zero (paper: no mismatches).
func BenchmarkAccuracy(b *testing.B) {
	st := timeEnv(b, benchEnv(b).Accuracy)
	b.ReportMetric(float64(st.TagMismatches), "tag_mismatches")
	b.ReportMetric(st.TSCDeltaDev, "tsc_dev_cycles")
}

// BenchmarkCompileQuery measures end-to-end query compilation (plan →
// pipelines → IR optimization → register allocation → native code),
// including Tagging Dictionary population.
func BenchmarkCompileQuery(b *testing.B) {
	eng := benchEngine(b)
	w := queries.Fig9()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.CompileQuery(w.Query); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecuteUnprofiled measures raw simulated execution, the
// baseline all overhead numbers are relative to.
func BenchmarkExecuteUnprofiled(b *testing.B) {
	eng := benchEngine(b)
	cq, err := eng.CompileQuery(queries.Q16().Query)
	if err != nil {
		b.Fatal(err)
	}
	var instrs uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Run(cq, nil)
		if err != nil {
			b.Fatal(err)
		}
		instrs += res.Stats.Instructions
	}
	// The whole run per simulated instruction: staging and read-back included.
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/inst")
}

// BenchmarkCompileSQL measures the full SQL front door (parse → plan →
// compile) with allocation reporting: the CSE value-numbering key is the
// optimizer's hottest allocation site, so allocs/op here guards its
// allocation-free encoding.
func BenchmarkCompileSQL(b *testing.B) {
	eng := benchEngine(b)
	const sql = "select l_orderkey, sum(l_quantity), sum(l_extendedprice) " +
		"from lineitem where l_quantity < 24 group by l_orderkey"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.CompileSQL(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceCacheHit measures the warm service front door: parse →
// canonicalize → print → fingerprint → cache hit → argument encoding,
// returning the shared compiled artifact without touching the planner or
// backend. The
// contrast with BenchmarkCompileSQL (the identical statement, compiled
// from scratch each time) is the compiled-query cache's headline number,
// recorded in BENCH_qcache.json and gated by TestServiceCacheHitSpeedup.
func BenchmarkServiceCacheHit(b *testing.B) {
	env := benchEnv(b)
	svc := engine.NewService(env.Cat, engine.DefaultOptions(), 0)
	se := svc.NewSession()
	const sql = "select l_orderkey, sum(l_quantity), sum(l_extendedprice) " +
		"from lineitem where l_quantity < 24 group by l_orderkey"
	if _, err := se.Prepare(sql); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := se.Prepare(sql)
		if err != nil {
			b.Fatal(err)
		}
		if !p.CacheHit {
			b.Fatal("expected a cache hit")
		}
	}
}

// warmSession returns a session on a service with the dashboard view
// (bench/dashboard_ingest's shape) that has run each of the two statements
// once: one served from the view, one a small scan of a base table.
func warmSession(tb testing.TB) (*engine.Session, [2]string) {
	tb.Helper()
	svc := engine.NewService(experiments.NewEnv(0.2, 42).Cat, engine.DefaultOptions(), 0)
	if _, err := svc.CreateView("rev_by_prod", "select id, sum(price), count(*) from sales group by id", mview.RefreshIncremental); err != nil {
		tb.Fatal(err)
	}
	se := svc.NewSession()
	stmts := [2]string{
		"select id, sum(price) as rev, count(*) as n from sales where id between 3 and 20 group by id order by id",
		"select count(*) from products where id < 40",
	}
	for i, sql := range stmts {
		p, _, err := se.Execute(sql, nil)
		if err != nil {
			tb.Fatal(err)
		}
		if served := p.Rewrite != nil; served != (i == 0) {
			tb.Fatalf("%s: served from the view = %v", sql, served)
		}
	}
	return se, stmts
}

// BenchmarkSessionExecuteWarm measures a warm view-served statement end to
// end through Session.Execute: front end, cache hit, staging into the
// session's recycled machine, run, read-back. B/op is what
// TestSessionRunFootprint gates.
func BenchmarkSessionExecuteWarm(b *testing.B) {
	se, stmts := warmSession(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := se.Execute(stmts[0], nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSessionRunFootprint: a warm Execute stages into the machine the
// session already has. Before sessions kept their machines each one
// allocated ≈2.1 MB — a 1.5 MB heap, 1 MiB of it a stack no generated
// instruction addressed, and the 530 KiB vm.CPU; the gate is 64 KiB. (The
// ledger's engine.heap_mb_per_run on dashboard_ingest falls by the same
// 1.05 MB per run, 1.577 → 0.529.)
func TestSessionRunFootprint(t *testing.T) {
	se, stmts := warmSession(t)
	for _, sql := range stmts {
		_, first, err := se.Execute(sql, nil)
		if err != nil {
			t.Fatal(err)
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			_, res, err := se.Execute(sql, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.CPU != first.CPU {
				t.Fatalf("%s: run %d executed on another vm.CPU than the session's first", sql, i)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 64<<10 {
			t.Errorf("%s: %d bytes allocated per warm Execute, want at most 64 KiB", sql, per)
		} else {
			t.Logf("%s: %d bytes, %d mallocs per warm Execute", sql, per, (after.Mallocs-before.Mallocs)/runs)
		}
	}
}

// TestParallelRunFootprint: a warm Workers 2 / Shards 2 Execute of the
// dashboard's orders group-by stages its morsel output and its merges in
// the buffers the session keeps. While each morsel copied its output into
// a fresh slice and the merge staged partitions in slices grown entry by
// entry, one such Execute allocated ≈322 KB in ≈254 mallocs; the gate is
// 64 KiB.
func TestParallelRunFootprint(t *testing.T) {
	svc := engine.NewService(experiments.NewEnv(0.2425, 42).Cat, engine.DefaultOptions(), 0)
	se := svc.NewSession()
	se.SetWorkers(2)
	se.SetShards(2)
	se.SetShardPruning(true)
	sql := "select o_custkey, sum(o_totalprice) as t from orders where o_orderkey >= 17 group by o_custkey order by o_custkey"
	for i := 0; i < 2; i++ { // the first run compiles the merge kernels
		if _, _, err := se.Execute(sql, nil); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, _, err := se.Execute(sql, nil); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	per, mallocs := (after.TotalAlloc-before.TotalAlloc)/runs, (after.Mallocs-before.Mallocs)/runs
	if per > 64<<10 {
		t.Errorf("%d bytes (%d mallocs) allocated per warm parallel Execute, want at most 64 KiB", per, mallocs)
	} else {
		t.Logf("%d bytes, %d mallocs per warm parallel Execute", per, mallocs)
	}
}

// TestEngineRunFootprint: an unprofiled Engine.Run pays for the one-core
// heap (all carved bytes but the merge-only ht.scatter and ht.merge*
// regions, which only parallel kernels address), the vm.CPU (32 KiB +
// heap/512; 640 KiB with L3's tags) and 64 KiB of slack. While every heap
// carried each hash table's merge staging, q1's heap alone was 7.94 MB.
func TestEngineRunFootprint(t *testing.T) {
	eng := engine.New(experiments.NewEnv(0.2, 42).Cat, engine.DefaultOptions())
	for _, name := range []string{"q1", "fig10-opt"} {
		w, ok := queries.ByName(name)
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		cq, err := eng.CompileQuery(w.Query)
		if err != nil {
			t.Fatal(err)
		}
		regions := cq.Mem.Regions
		heap := uint64(regions[len(regions)-1].Hi)
		for _, r := range regions {
			if r.Name == "ht.scatter" || strings.HasPrefix(r.Name, "ht.merge") {
				heap -= uint64(r.Hi - r.Lo)
			}
		}
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			res, err := eng.Run(cq, nil)
			if err != nil {
				t.Fatal(err)
			}
			if uint64(len(res.CPU.Heap)) > heap {
				t.Fatalf("%s: the run's heap has %d bytes, the one-core heap %d", name, len(res.CPU.Heap), heap)
			}
		}
		runtime.ReadMemStats(&after)
		limit := heap + heap/512 + 32<<10 + 64<<10
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > limit {
			t.Errorf("%s: %d bytes allocated per Engine.Run, want at most %d (a %d-byte heap + 1/512 of it + 96 KiB)", name, per, limit, heap)
		} else {
			t.Logf("%s: %d bytes per Engine.Run, heap %d", name, per, heap)
		}
	}
}

// benchParallel times Env.Parallel (the morsel scaling table) and reports
// workload's simulated-wall-cycle speedup on 4 workers over 1. Host wall
// time is meaningless here (all simulated cores share one OS thread in
// CI), so the morsel scheduler's makespan over per-morsel cycle costs is
// the honest scaling number.
func benchParallel(b *testing.B, workload string) {
	for _, p := range timeEnv(b, benchEnv(b).Parallel) {
		if p.Query == workload && p.Workers == 4 {
			b.ReportMetric(p.Speedup, "speedup")
			return
		}
	}
	b.Fatalf("no 4-worker run of %s", workload)
}

// BenchmarkParallelScanAgg reports morsel-driven scaling on a scan-heavy
// aggregation (TPC-H Q6): one scan pipeline, near-perfect morsel balance.
func BenchmarkParallelScanAgg(b *testing.B) {
	benchParallel(b, "q6")
}

// BenchmarkParallelJoin reports morsel-driven scaling on the paper's
// Fig. 9 join+group-by query: the build pipelines serialize at phase
// barriers, so the speedup is sublinear but still well above 2x.
func BenchmarkParallelJoin(b *testing.B) {
	benchParallel(b, "fig9")
}
