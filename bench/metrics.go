package main

import (
	"sort"
	"time"
)

// result is the line a run prints last: exactly these four keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// set files a value under a declared metric; an undeclared name is a bug
// in this program, not in the system under test.
func (r *result) set(name string, v float64) {
	u, ok := units[name]
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	r.Metrics[name] = metric{Value: v, Unit: u}
}

// An e2eMetric is one end-to-end metric: what a user of the system sees,
// with the bound by which a change may worsen it before it counts as a
// regression. BENCHMARK.json repeats this table; bench_test.go keeps the
// two in step.
type e2eMetric struct {
	name, unit string
	higher     bool // better direction
	bound      float64
}

// The bounds follow from what ten runs on ten seeds spread by (quartile
// distance over median) on the shared 2-core machine this was written on;
// README.md, "Noise", has the numbers. Host timings there differ by 5–15 %
// between identical runs, so their bounds sit at the cap. Allocation counts
// repeat within 1.2 %. The simulated clock repeats exactly for one seed, but
// two seeds generate tables of different sizes, which moves it by up to 5 %.
var endToEndMetrics = []e2eMetric{
	{"setup_s", "s", false, 0.25},
	{"ops_per_s", "1/s", true, 0.25},
	{"op_ms_p50", "ms", false, 0.25},
	{"op_ms_p95", "ms", false, 0.25},
	{"cpu_ms_per_op", "ms", false, 0.25},
	{"allocs_per_op", "count", false, 0.05},
	{"alloc_mb_per_op", "MB", false, 0.05},
	{"sim_cycles_per_op", "cycles", false, 0.15},
	{"ok_share", "ratio", true, 0.0001},
}

// layers are the packages the traced pass times calls into, plus "bench":
// the benchmark's own glue between those calls.
var layers = []string{
	"sqlparse", "mview", "plan", "cost", "pipeline", "iropt", "codegen",
	"engine", "vm", "pmu", "core", "viz", "catalog", "pgo", "bench",
}

// layerInputs is what perLayer needs beside the tracer.
type layerInputs struct {
	ops      int
	sig      signature
	st       setupTimes
	rounds   []round // untraced
	gcCycles float64
	gcPause  float64 // ns
}

// A layerMetric computes one per-layer number from the traced pass.
type layerMetric struct {
	name, unit string
	f          func(t *tracer, in *layerInputs) float64
}

// med is the median duration of the spans (or samples) filed under name,
// in units of div nanoseconds.
func med(name string, div float64) func(*tracer, *layerInputs) float64 {
	return func(t *tracer, _ *layerInputs) float64 { return median(t.dur[name]) / div }
}

// perTracedOp is a counter averaged over the traced ops.
func perTracedOp(name string) func(*tracer, *layerInputs) float64 {
	return func(t *tracer, in *layerInputs) float64 { return t.count[name] / float64(in.ops*t.rounds) }
}

// perRound is a counter averaged over the traced rounds.
func perRound(name string) func(*tracer, *layerInputs) float64 {
	return func(t *tracer, _ *layerInputs) float64 { return t.count[name] / float64(t.rounds) }
}

// ratio divides two counters; 0 when the denominator never moved, i.e.
// when the workload bypasses the layer.
func ratio(num, den string, scale float64) func(*tracer, *layerInputs) float64 {
	return func(t *tracer, _ *layerInputs) float64 { return div(scale*t.count[num], t.count[den]) }
}

// totalPer divides the summed duration of the spans named span by a
// counter: host nanoseconds per unit of work.
func totalPer(span, den string) func(*tracer, *layerInputs) float64 {
	return func(t *tracer, _ *layerInputs) float64 { return div(sum(t.dur[span]), t.count[den]) }
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

const (
	us = 1e3
	ms = 1e6
)

var perLayerMetrics = []layerMetric{
	{"sqlparse.normalize_us", "us", med("sqlparse.normalize", us)},
	{"sqlparse.parse_us", "us", med("sqlparse.parse", us)},

	{"mview.rewrite_us", "us", med("mview.rewrite", us)},
	{"mview.rewrite_ratio", "ratio", ratio("mview.rewritten", "mview.candidates", 1)},
	{"mview.refresh_ms", "ms", med("mview.refresh", ms)},
	{"mview.fallbacks", "count", perRound("mview.fallbacks")},

	{"qcache.hit_ratio", "ratio", func(_ *tracer, in *layerInputs) float64 {
		return div(float64(in.sig.hits), float64(in.sig.hits+in.sig.misses))
	}},
	{"qcache.evictions", "count", perRound("qcache.evictions")},
	{"qcache.invalidations", "count", perRound("qcache.invalidations")},
	{"qcache.warm_prepare_us", "us", med("qcache.warm_prepare", us)},

	{"plan.plan_us", "us", med("plan.plan", us)},
	{"cost.annotate_us", "us", med("cost.annotate", us)},
	{"pipeline.compile_us", "us", med("pipeline.compile", us)},
	{"pipeline.ir_instrs", "count", ratio("pipeline.ir_instrs", "engine.compiles", 1)},
	{"iropt.optimize_us", "us", med("iropt.optimize", us)},
	{"iropt.ir_instrs_after", "count", ratio("iropt.ir_instrs_after", "engine.compiles", 1)},
	{"iropt.applied", "count", ratio("iropt.applied", "engine.compiles", 1)},
	{"codegen.compile_us", "us", med("codegen.compile", us)},
	{"codegen.native_instrs", "count", ratio("codegen.native_instrs", "engine.compiles", 1)},
	{"codegen.spills", "count", ratio("codegen.spills", "engine.compiles", 1)},
	{"engine.compile_us", "us", med("engine.compile", us)},
	{"engine.layout_self_us", "us", med("engine.layout_self", us)},

	{"vm.instructions_per_op", "count", func(_ *tracer, in *layerInputs) float64 {
		return float64(in.sig.vm.Instructions) / float64(in.ops)
	}},
	{"vm.cycles_per_op", "cycles", func(_ *tracer, in *layerInputs) float64 {
		return float64(in.sig.vm.Cycles) / float64(in.ops)
	}},
	{"vm.ipc", "ratio", func(_ *tracer, in *layerInputs) float64 {
		return div(float64(in.sig.vm.Instructions), float64(in.sig.vm.Cycles))
	}},
	{"vm.l1_hit_ratio", "ratio", func(_ *tracer, in *layerInputs) float64 {
		s := in.sig.vm
		return div(float64(s.L1Hits), float64(s.L1Hits+s.L2Hits+s.L3Hits+s.MemAccesses))
	}},
	{"vm.llc_miss_per_kinst", "ratio", func(_ *tracer, in *layerInputs) float64 {
		return div(1e3*float64(in.sig.vm.MemAccesses), float64(in.sig.vm.Instructions))
	}},
	{"vm.branch_miss_ratio", "ratio", func(_ *tracer, in *layerInputs) float64 {
		return div(float64(in.sig.vm.BranchMisses), float64(in.sig.vm.Branches))
	}},
	{"vm.unarmed_ns_per_inst", "ns", totalPer("vm.run", "vm.unarmed_instrs")},
	{"vm.armed_ns_per_inst", "ns", totalPer("vm.run_armed", "vm.armed_instrs")},
	{"vm.minst_per_s", "1/s", func(t *tracer, _ *layerInputs) float64 {
		return div(1e3*t.count["vm.unarmed_instrs"], sum(t.dur["vm.run"]))
	}},
	{"vm.new_heap_ms", "ms", med("vm.new_heap", ms)},

	{"engine.heap_mb_per_run", "MB", ratio("engine.heap_bytes", "engine.runs", 1e-6)},
	{"engine.run_small_ms", "ms", med("engine.run_small", ms)},
	{"engine.serial_run_ms", "ms", med("engine.serial_run", ms)},
	{"engine.parallel_run_ms", "ms", med("engine.parallel_run", ms)},
	{"engine.parallel_alloc_ratio", "ratio", ratio("engine.parallel_alloc_bytes", "engine.serial_alloc_bytes", 1)},
	{"engine.prepare_us", "us", med("engine.prepare", us)},
	{"engine.encode_params_us", "us", med("engine.encode_params", us)},
	{"engine.capacity_errors", "count", func(t *tracer, _ *layerInputs) float64 { return t.count["engine.capacity_errors"] }},
	{"engine.rewrite_fallbacks", "count", perRound("mview.fallbacks")}, // one counter, two names: the guard lives in engine, the ledger in mview

	{"pmu.samples_per_op", "count", perTracedOp("pmu.samples")},
	{"pmu.overhead_pct", "%", ratio("pmu.sample_cycles", "pmu.cycles", 100)},
	{"pmu.host_ns_per_sample", "ns", totalPer("pmu.sampling", "pmu.samples")},

	{"core.read_samples_ns_per_sample", "ns", totalPer("core.read_samples", "core.samples_read")},
	{"core.read_metadata_us", "us", med("core.read_metadata", us)},
	{"core.attribute_ns_per_sample", "ns", totalPer("core.attribute", "core.attributed_samples")},
	{"core.zoom_ms", "ms", med("core.zoom", ms)},
	{"core.operator_pct", "%", ratio("core.operator_samples", "core.profiled_samples", 100)},
	{"core.unattributed_pct", "%", ratio("core.unattributed_samples", "core.profiled_samples", 100)},

	{"viz.reports_us", "us", med("viz.reports", us)},
	{"viz.annotated_ir_us", "us", med("viz.annotated_ir", us)},

	{"catalog.append_us", "us", med("catalog.append", us)},
	{"catalog.append_rows_per_s", "1/s", func(t *tracer, _ *layerInputs) float64 {
		return div(1e9*t.count["catalog.appended_rows"], sum(t.dur["catalog.append"]))
	}},
	{"catalog.snapshot_us", "us", med("catalog.snapshot", us)},
	{"catalog.grew_events", "count", perRound("catalog.grew_events")},
	{"catalog.version_bumps", "count", perRound("catalog.version_bumps")},

	{"pgo.adapt_ms", "ms", med("pgo.adapt", ms)},
	{"pgo.generation_bumps", "count", perRound("pgo.generation_bumps")},
	{"pgo.cycle_reduction_pct", "%", ratio("pgo.cycle_reduction_pct", "pgo.adapts", 1)},

	{"ref.mismatches", "count", func(_ *tracer, in *layerInputs) float64 { return float64(in.sig.failed) }},
	{"ref.check_ms", "ms", func(_ *tracer, in *layerInputs) float64 { return ms64(in.st.oracle) }},
	{"datagen.generate_ms", "ms", func(_ *tracer, in *layerInputs) float64 { return ms64(in.st.datagen) }},

	{"runtime.peak_rss_mb", "MB", func(*tracer, *layerInputs) float64 { return peakRSSMB() }},
	{"runtime.gc_cycles", "count", func(_ *tracer, in *layerInputs) float64 { return in.gcCycles / float64(len(in.rounds)) }},
	{"runtime.gc_pause_ms", "ms", func(_ *tracer, in *layerInputs) float64 { return in.gcPause / ms / float64(len(in.rounds)) }},

	// coverage: how much of an untraced op the spans around real calls
	// account for. overhead: how much slower the traced ops ran, replays
	// excluded. Both compare, op by op, the fast decile over the traced
	// rounds with the fast decile over the untraced rounds of the same
	// process.
	{"trace.coverage_pct", "%", func(t *tracer, in *layerInputs) float64 {
		return div(100*sum(columns(t.opReal, fastDecile)), untracedOpTime(in.rounds))
	}},
	{"trace.overhead_pct", "%", func(t *tracer, in *layerInputs) float64 {
		base := untracedOpTime(in.rounds)
		return div(100*(sum(columns(t.opNet, fastDecile))-base), base)
	}},
	{"run.failed_share", "ratio", func(_ *tracer, in *layerInputs) float64 {
		return float64(in.sig.failed) / float64(in.ops)
	}},
}

func ms64(d time.Duration) float64 { return float64(d) / ms }

// untracedOpTime is the time one round's ops take untraced and
// undisturbed: the sum over the op list of each op's fast-decile latency.
func untracedOpTime(rounds []round) float64 { return sum(perOp(rounds, fastDecile)) }

// units maps every declared metric to its unit.
var units = func() map[string]string {
	m := map[string]string{}
	for _, e := range endToEndMetrics {
		m[e.name] = e.unit
	}
	for _, l := range perLayerMetrics {
		m[l.name] = l.unit
	}
	for _, l := range layers {
		m[l+".share_pct"] = "%"
	}
	return m
}()

// perLayerNames lists every per-layer metric in output order.
func perLayerNames() []string {
	var names []string
	for _, l := range perLayerMetrics {
		names = append(names, l.name)
	}
	for _, l := range layers {
		names = append(names, l+".share_pct")
	}
	sort.Strings(names)
	return names
}

// perLayer fills in every per-layer metric: a workload that bypasses a
// layer reports 0 for it, so every workload emits the same names.
func perLayer(res *result, t *tracer, in layerInputs) {
	for _, l := range perLayerMetrics {
		res.set(l.name, l.f(t, &in))
	}
	for _, l := range layers {
		res.set(l+".share_pct", t.sharePct(l))
	}
}
