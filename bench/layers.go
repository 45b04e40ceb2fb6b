package main

import (
	"fmt"
	"reflect"
	"sort"

	"repro/internal/catalog"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/iropt"
	"repro/internal/pipeline"
	"repro/internal/plan"
	"repro/internal/ref"
	"repro/internal/sqlparse"
	"repro/internal/vm"
)

// outcome is what one op hands back to the harness.
type outcome struct {
	hash   uint64   // digest of everything the op returned to its caller
	cycles uint64   // Σ Result.WallCycles: the simulated clock
	vm     vm.Stats // Σ Result.Stats over the op's runs
	hits   int      // prepares served from the compiled-query cache
	misses int      // prepares that compiled
	failed bool     // errored, refused or returned rows other than the oracle's
	why    error    // of a failed op, for the log
}

func (o *outcome) fail(why error) { o.failed, o.why = true, why }

func (o *outcome) ran(res *engine.Result) {
	o.cycles += res.WallCycles
	addStats(&o.vm, &res.Stats)
}

func (o *outcome) prepared(p *engine.Prepared) {
	if p.CacheHit {
		o.hits++
	} else {
		o.misses++
	}
}

func addStats(dst, src *vm.Stats) {
	dst.Instructions += src.Instructions
	dst.Cycles += src.Cycles
	dst.SampleCycles += src.SampleCycles
	dst.Loads += src.Loads
	dst.Stores += src.Stores
	dst.Branches += src.Branches
	dst.BranchMisses += src.BranchMisses
	dst.L1Hits += src.L1Hits
	dst.L2Hits += src.L2Hits
	dst.L3Hits += src.L3Hits
	dst.MemAccesses += src.MemAccesses
	dst.Calls += src.Calls
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func mix(h, v uint64) uint64 { return (h ^ v) * fnvPrime }

// hashText chains the bytes of a string or byte slice into h.
func hashText[T string | []byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h = mix(h, uint64(s[i]))
	}
	return h
}

// hashRows digests a result set without allocating. Rows of a statement
// with no ORDER BY come back in engine order, so their row digests are
// summed; ordered results chain them.
func hashRows(rows [][]int64, ordered bool) uint64 {
	h := uint64(fnvOffset)
	for _, r := range rows {
		rh := uint64(fnvOffset)
		for _, v := range r {
			rh = mix(rh, uint64(v))
		}
		if ordered {
			h = mix(h, rh)
		} else {
			h += rh * fnvPrime
		}
	}
	return mix(h, uint64(len(rows)))
}

// sameRows compares a result with the oracle's exactly (verify round only:
// it copies and sorts when the statement fixes no order).
func sameRows(got, want [][]int64, ordered bool) bool {
	if !ordered {
		got, want = sortedRows(got), sortedRows(want)
	}
	return engine.RowsEqual(got, want)
}

func sortedRows(rows [][]int64) [][]int64 {
	out := append([][]int64(nil), rows...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
	return out
}

// oracleSQL answers a statement with the independent interpreter: the
// original text is parsed and planned on its own — no normalizer, view
// rewriter, cache or bound parameters — and executed by internal/ref
// against the catalog as it stands now.
func oracleSQL(cat *catalog.Catalog, sql string) (rows [][]int64, ordered bool, err error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, false, err
	}
	return oracleQuery(cat, q)
}

func oracleQuery(cat *catalog.Catalog, q *plan.Query) ([][]int64, bool, error) {
	pl, err := plan.Plan(cat, q)
	if err != nil {
		return nil, false, err
	}
	rows, err := ref.ExecuteWith(pl, nil)
	return rows, len(pl.OrderBy) > 0, err
}

// Heap addresses the engine hands codegen. engine keeps them unexported;
// DataFloor pins their sum, and replayCompile's bit-equality check fails
// the run if they ever drift.
const (
	stagingAddr = 256
	spillBase   = 512
	spillCap    = engine.DataFloor - spillBase
)

// replayCompile re-runs the interior of one engine compile — pipeline IR
// construction, the IR optimizer, the native backend — on the artifact's
// own plan and layout, as replay spans of span of, and fails unless the
// replay reproduces the served artifact's code and debug map bit for bit.
// Only unguided compiles can be replayed: a PGO-guided one needs the
// service's private hotness table. explained is the part of span of that
// the caller has already replayed (planning); what no replay explains is
// filed as engine.layout_self, the engine's own share of a compile.
func replayCompile(t *tracer, of int, opts engine.Options, cq *engine.Compiled, explained float64) error {
	if t == nil {
		return nil
	}
	defer t.replay(of)()
	s := t.begin("pipeline.compile")
	pc, err := pipeline.Compile(cq.Plan, cq.Layout, pipeline.Options{
		RegisterTagging:  opts.RegisterTagging,
		TagEverything:    opts.TagEverything,
		EagerColumnLoads: opts.EagerColumnLoads,
		TupleCounters:    opts.TupleCounters,
	})
	t.end(s)
	explained += t.took(s)
	if err != nil {
		return fmt.Errorf("replay pipeline.Compile: %w", err)
	}
	t.add("pipeline.ir_instrs", float64(pc.Module.InstrCount()))

	s = t.begin("iropt.optimize")
	st, err := iropt.Optimize(pc.Module, pc.Dict, opts.Optimize)
	t.end(s)
	explained += t.took(s)
	if err != nil {
		return fmt.Errorf("replay iropt.Optimize: %w", err)
	}
	if st != cq.OptStats {
		return fmt.Errorf("replayed optimizer applied %+v, the served artifact records %+v", st, cq.OptStats)
	}
	t.add("iropt.ir_instrs_after", float64(pc.Module.InstrCount()))
	t.add("iropt.applied", float64(st.Folded+st.Eliminated+st.CSEMerged+st.Hoisted+st.Reduced))

	ccfg := codegen.DefaultConfig(stagingAddr, spillBase, spillCap)
	ccfg.RegisterTagging = opts.RegisterTagging
	ccfg.FuseCmpBranch = opts.FuseCmpBranch
	s = t.begin("codegen.compile")
	code, err := codegen.Compile(pc.Module, ccfg)
	t.end(s)
	explained += t.took(s)
	if err != nil {
		return fmt.Errorf("replay codegen.Compile: %w", err)
	}
	if !reflect.DeepEqual(code.Program, cq.Code.Program) || !reflect.DeepEqual(code.NMap, cq.Code.NMap) {
		return fmt.Errorf("replayed compile of %d native instructions differs from the served artifact's %d",
			len(code.Program.Code), len(cq.Code.Program.Code))
	}
	t.add("codegen.native_instrs", float64(len(code.Program.Code)))
	t.add("codegen.spills", float64(code.Spills))
	t.add("engine.compiles", 1)
	t.sample("engine.layout_self", t.took(of)-explained)
	return nil
}

// replayPrepare re-runs, call by call, what Session.Prepare(sql) did behind
// span of: normalize, view rewrite, and either the warm path's argument
// encoding or the whole cold path (parse, plan, cost, compile).
func replayPrepare(t *tracer, of int, svc *engine.Service, sql string, p *engine.Prepared, guided bool) error {
	if t == nil {
		return nil
	}
	defer t.replay(of)()
	s := t.begin("sqlparse.normalize")
	fp, err := sqlparse.Normalize(sql)
	t.end(s)
	if err != nil {
		return fmt.Errorf("replay Normalize: %w", err)
	}
	s = t.begin("mview.rewrite")
	rw, ok := svc.Views().Rewrite(fp)
	t.end(s)
	if ok != (p.Rewrite != nil) {
		return fmt.Errorf("replayed rewrite decision %v differs from the served one for %q", ok, sql)
	}
	if ok {
		s = t.begin("sqlparse.normalize")
		fp, err = sqlparse.Normalize(rw.SQL)
		t.end(s)
		if err != nil {
			return fmt.Errorf("replay Normalize of rewrite: %w", err)
		}
	}
	if fp.Canon != p.Canon {
		return fmt.Errorf("replayed canon %q differs from the served %q", fp.Canon, p.Canon)
	}
	if !p.CacheHit && !guided {
		if err := replayCold(t, svc, fp, p.Compiled); err != nil {
			return err
		}
	}
	s = t.begin("engine.encode_params")
	_, err = engine.EncodeParams(p.Compiled.Plan.Params, fp.Args)
	t.end(s)
	return err
}

// replayCold is the miss path of Service.prepare, from public calls.
func replayCold(t *tracer, svc *engine.Service, fp *sqlparse.Fingerprint, served *engine.Compiled) error {
	cat, opts := svc.Catalog(), svc.Options()
	s := t.begin("sqlparse.parse")
	q, err := sqlparse.Parse(fp.Canon)
	t.end(s)
	if err != nil {
		return fmt.Errorf("replay Parse: %w", err)
	}
	est := &cost.HistoryCorrected{Base: &cost.Naive{Stats: cost.FreshStats{}}, H: svc.History()}
	s = t.begin("plan.plan")
	pl, err := plan.PlanWith(cat, q, est)
	t.end(s)
	if err != nil {
		return fmt.Errorf("replay PlanWith: %w", err)
	}
	s = t.begin("cost.annotate")
	model := cost.Annotate(pl)
	opts.BloomFilters, opts.Partitions = cost.Decide(model, opts.BloomFilters, opts.Partitions)
	t.end(s)
	c := t.begin("engine.compile")
	cq, err := engine.NewCompiler(cat, opts).CompilePlanGuided(pl, nil)
	t.end(c)
	if err != nil {
		return fmt.Errorf("replay CompilePlanGuided: %w", err)
	}
	if !reflect.DeepEqual(cq.Code.Program, served.Code.Program) {
		return fmt.Errorf("replayed cold path compiled %d native instructions, the served artifact has %d",
			len(cq.Code.Program.Code), len(served.Code.Program.Code))
	}
	return replayCompile(t, c, opts, served, 0)
}

// explainRun files an unarmed run's counters and times, in isolation, the
// two parts of it that can be reached from outside: taking the storage
// snapshot (service runs only) and allocating a VM heap of the size the
// run staged. The split of a run into staging, step loop and row read-back
// is not observable from here; these two replays bound the first.
func explainRun(t *tracer, of int, svc *engine.Service, res *engine.Result) {
	if t == nil {
		return
	}
	t.add("vm.unarmed_instrs", float64(res.Stats.Instructions))
	if res.Stats.Instructions < smallRun {
		t.sample("engine.run_small", t.took(of))
	}
	defer t.replay(of)()
	if svc != nil {
		s := t.begin("catalog.snapshot")
		svc.Snapshot()
		t.end(s)
	}
	if res.CPU != nil {
		s := t.begin("vm.new_heap")
		vm.New(len(res.CPU.Heap))
		t.end(s)
		t.add("engine.heap_bytes", float64(len(res.CPU.Heap)))
		t.add("engine.runs", 1)
	}
}

// smallRun is the instruction count under which a run's host time is
// mostly staging: engine.run_small_ms is the median over such runs.
const smallRun = 200_000

func countAttribution(t *tracer, a core.AttributionSummary, samples int) {
	n := float64(samples)
	t.add("core.profiled_samples", n)
	t.add("core.operator_samples", n*a.OperatorPct/100)
	t.add("core.unattributed_samples", n*a.UnattributedPct/100)
}

// replayAttribute re-runs the attribution an armed run did inline and
// derives what is left of the armed run's excess over the unarmed one:
// the host cost of the sampling hook.
func replayAttribute(t *tracer, armed, unarmed int, cq *engine.Compiled, res *engine.Result) {
	if t == nil {
		return
	}
	done := t.replay(armed)
	s := t.begin("core.attribute")
	core.BuildProfile(core.NewAttributor(cq.Pipe.Dict, cq.Code.NMap), res.Samples)
	t.end(s)
	done()
	t.add("core.attributed_samples", float64(len(res.Samples)))
	t.derive(armed, "pmu.sampling", t.took(armed)-t.took(unarmed)-t.took(s))
}
