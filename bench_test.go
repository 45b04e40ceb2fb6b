// Benchmarks regenerating every table and figure of the paper's
// evaluation (§6). Each benchmark prints/reports the series the paper
// reports; run them all with
//
//	go test -bench=. -benchmem
//
// The cmd/experiments tool produces the full text reports; these
// benchmarks measure the same pipelines under the testing.B harness and
// expose the headline numbers as benchmark metrics.
package tprof

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/mview"
	"repro/internal/pmu"
	"repro/internal/queries"
	"repro/internal/vm"
)

const benchSF = 0.5

func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	return experiments.NewEnv(benchSF, 42)
}

func benchEngine(b *testing.B) (*engine.Engine, *experiments.Env) {
	env := benchEnv(b)
	return engine.New(env.Cat, engine.DefaultOptions()), env
}

// BenchmarkAnnotatedIRProfile regenerates Listing 1 / Fig. 6b: the intro
// query profiled at IR granularity.
func BenchmarkAnnotatedIRProfile(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := env.Listing1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanCostProfile regenerates Fig. 6a / Fig. 9: per-operator plan
// costs. The group-by and join shares are reported as metrics.
func BenchmarkPlanCostProfile(b *testing.B) {
	eng, _ := benchEngine(b)
	w := queries.Intro(true)
	cq, err := eng.CompileQuery(w.Query)
	if err != nil {
		b.Fatal(err)
	}
	var gb, join float64
	for i := 0; i < b.N; i++ {
		res, err := eng.Run(cq, &pmu.Config{Event: vm.EvCycles, Period: 5000, Format: pmu.FormatIPTimeRegs})
		if err != nil {
			b.Fatal(err)
		}
		gb, join = 0, 0
		for _, c := range res.Profile.OperatorCosts() {
			switch c.Kind {
			case "group by":
				gb += c.Pct
			case "hash join":
				join += c.Pct
			}
		}
	}
	b.ReportMetric(gb, "groupby_pct")
	b.ReportMetric(join, "join_pct")
}

// BenchmarkOperatorActivity regenerates Fig. 7: the activity timeline.
func BenchmarkOperatorActivity(b *testing.B) {
	eng, _ := benchEngine(b)
	cq, err := eng.CompileQuery(queries.Fig9().Query)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := eng.Run(cq, &pmu.Config{Event: vm.EvCycles, Period: 1000, Format: pmu.FormatIPTimeRegs})
		if err != nil {
			b.Fatal(err)
		}
		tl := res.Profile.BuildTimeline(60)
		if len(tl.Activity) != 60 {
			b.Fatal("timeline bins missing")
		}
	}
}

// BenchmarkOptimizerPlans regenerates Fig. 10/11: both plans of the 3-way
// join; the speedup of the alternative plan is reported as a metric.
func BenchmarkOptimizerPlans(b *testing.B) {
	eng, _ := benchEngine(b)
	cqOpt, err := eng.CompileQuery(queries.Fig10(false).Query)
	if err != nil {
		b.Fatal(err)
	}
	cqAlt, err := eng.CompileQuery(queries.Fig10(true).Query)
	if err != nil {
		b.Fatal(err)
	}
	var speedup float64
	for i := 0; i < b.N; i++ {
		rOpt, err := eng.Run(cqOpt, nil)
		if err != nil {
			b.Fatal(err)
		}
		rAlt, err := eng.Run(cqAlt, nil)
		if err != nil {
			b.Fatal(err)
		}
		speedup = float64(rOpt.Stats.Cycles) / float64(rAlt.Stats.Cycles)
	}
	b.ReportMetric(speedup, "alt_speedup")
}

// BenchmarkMemoryProfile regenerates Fig. 12: load sampling with address
// capture and per-operator access maps.
func BenchmarkMemoryProfile(b *testing.B) {
	env := benchEnv(b)
	eng := engine.New(env.Cat, engine.DefaultOptions())
	eng.Opts.EagerColumnLoads = true
	cq, err := eng.CompileQuery(queries.Fig9().Query)
	if err != nil {
		b.Fatal(err)
	}
	var pts int
	for i := 0; i < b.N; i++ {
		res, err := eng.Run(cq, &pmu.Config{Event: vm.EvMemLoads, Period: 1000, Format: pmu.FormatIPTimeRegs})
		if err != nil {
			b.Fatal(err)
		}
		pts = 0
		for _, m := range res.Profile.MemByOp {
			pts += len(m)
		}
	}
	b.ReportMetric(float64(pts), "mem_points")
}

// BenchmarkSamplingOverhead regenerates Fig. 13: one sub-benchmark per
// record format at the paper's default 0.7 MHz equivalent; the measured
// overhead is the reported metric (paper: 35% / 38% / 529%).
func BenchmarkSamplingOverhead(b *testing.B) {
	eng, _ := benchEngine(b)
	cq, err := eng.CompileQuery(queries.Q16().Query)
	if err != nil {
		b.Fatal(err)
	}
	base, err := eng.Run(cq, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, f := range []struct {
		name   string
		format pmu.Format
	}{
		{"IP_Time", pmu.FormatIPTime},
		{"IP_Time_Registers", pmu.FormatIPTimeRegs},
		{"IP_Callstack", pmu.FormatCallStack},
	} {
		b.Run(f.name, func(b *testing.B) {
			var ov float64
			for i := 0; i < b.N; i++ {
				res, err := eng.Run(cq, &pmu.Config{Event: vm.EvCycles, Period: 5000, Format: f.format})
				if err != nil {
					b.Fatal(err)
				}
				ov = float64(res.Stats.TotalCycles())/float64(base.Stats.Cycles) - 1
			}
			b.ReportMetric(100*ov, "overhead_pct")
		})
	}
}

// BenchmarkSamplingFrequencySweep regenerates the Fig. 13 x-axis: the
// IP+Time+Registers overhead at 100 kHz, 350 kHz, 700 kHz and 1 MHz.
func BenchmarkSamplingFrequencySweep(b *testing.B) {
	eng, _ := benchEngine(b)
	cq, err := eng.CompileQuery(queries.Q16().Query)
	if err != nil {
		b.Fatal(err)
	}
	base, err := eng.Run(cq, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, period := range []int64{35000, 10000, 5000, 3500} {
		b.Run(fmt.Sprintf("%dkHz", 3_500_000/period), func(b *testing.B) {
			var ov float64
			for i := 0; i < b.N; i++ {
				res, err := eng.Run(cq, &pmu.Config{Event: vm.EvCycles, Period: period, Format: pmu.FormatIPTimeRegs})
				if err != nil {
					b.Fatal(err)
				}
				ov = float64(res.Stats.TotalCycles())/float64(base.Stats.Cycles) - 1
			}
			b.ReportMetric(100*ov, "overhead_pct")
		})
	}
}

// BenchmarkRegisterReservation regenerates the §6.2 measurement: the
// slowdown from reserving the tag register (paper: 2.8% average).
func BenchmarkRegisterReservation(b *testing.B) {
	env := benchEnv(b)
	var avg float64
	for i := 0; i < b.N; i++ {
		_, v, err := env.RegReserve()
		if err != nil {
			b.Fatal(err)
		}
		avg = v
	}
	b.ReportMetric(100*avg, "overhead_pct")
}

// BenchmarkAttribution regenerates Table 2: the attribution shares across
// the whole query suite (paper: 95.4% operators / 2.6% kernel / 2.0% none).
func BenchmarkAttribution(b *testing.B) {
	env := benchEnv(b)
	var rows []experiments.AttributionRow
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		_, rows, err = env.Attribution()
		if err != nil {
			b.Fatal(err)
		}
	}
	total := rows[len(rows)-1]
	b.ReportMetric(total.OperatorPct, "operators_pct")
	b.ReportMetric(total.KernelPct, "kernel_pct")
	b.ReportMetric(total.NoAttrib, "unattributed_pct")
}

// BenchmarkAccuracy regenerates the §6.3 validation; the tag-mismatch
// count must stay zero (paper: no mismatches).
func BenchmarkAccuracy(b *testing.B) {
	env := benchEnv(b)
	var st *experiments.AccuracyStats
	for i := 0; i < b.N; i++ {
		var err error
		_, st, err = env.Accuracy()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.TagMismatches), "tag_mismatches")
	b.ReportMetric(st.TSCDeltaDev, "tsc_dev_cycles")
}

// BenchmarkCompileQuery measures end-to-end query compilation (plan →
// pipelines → IR optimization → register allocation → native code),
// including Tagging Dictionary population.
func BenchmarkCompileQuery(b *testing.B) {
	eng, _ := benchEngine(b)
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
	eng, _ := benchEngine(b)
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

// benchParallel runs one workload at Workers=1 and Workers=4 and reports
// the simulated-cycle speedup of the parallel run as a metric. Host wall
// time is meaningless here (all simulated cores share one OS thread in
// CI), so the morsel scheduler's makespan over per-morsel cycle costs is
// the honest scaling number.
func benchParallel(b *testing.B, workload string) {
	env := benchEnv(b)
	wl, ok := queries.ByName(workload)
	if !ok {
		b.Fatalf("no workload %s", workload)
	}
	walls := map[int]uint64{}
	var speedup float64
	for i := 0; i < b.N; i++ {
		for _, workers := range []int{1, 4} {
			opts := engine.DefaultOptions()
			opts.Workers = workers
			eng := engine.New(env.Cat, opts)
			cq, err := eng.CompileQuery(wl.Query)
			if err != nil {
				b.Fatal(err)
			}
			res, err := eng.Run(cq, nil)
			if err != nil {
				b.Fatal(err)
			}
			walls[workers] = res.WallCycles
		}
		speedup = float64(walls[1]) / float64(walls[4])
	}
	b.ReportMetric(speedup, "speedup")
}

// BenchmarkCompileSQL measures the full SQL front door (parse → plan →
// compile) with allocation reporting: the CSE value-numbering key is the
// optimizer's hottest allocation site, so allocs/op here guards its
// allocation-free encoding.
func BenchmarkCompileSQL(b *testing.B) {
	eng, _ := benchEngine(b)
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

// BenchmarkParallelScanAgg measures morsel-driven scaling on a scan-heavy
// aggregation (TPC-H Q6): one scan pipeline, near-perfect morsel balance.
func BenchmarkParallelScanAgg(b *testing.B) {
	benchParallel(b, "q6")
}

// BenchmarkParallelJoin measures morsel-driven scaling on the paper's
// Fig. 9 join+group-by query: the build pipelines serialize at phase
// barriers, so the speedup is sublinear but still well above 2x.
func BenchmarkParallelJoin(b *testing.B) {
	benchParallel(b, "fig9")
}
