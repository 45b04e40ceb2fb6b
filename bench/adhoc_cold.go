package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/qcache"
	"repro/internal/queries"
	"repro/internal/xrand"
)

// adhocCold is an ad-hoc client on a tiny catalog: a rotation of
// structurally distinct statements several times larger than the service's
// compiled-query cache, so that every Session.Execute misses, parses,
// plans and compiles, and then runs a few ten thousand instructions.
//
// Why: it is compile-bound — sqlparse.Parse, plan, cost, pipeline, iropt,
// codegen and the engine's layout hold the largest share, the VM step loop
// a small one. A change to the compile path (or the planned
// desugar/planner consolidation) is judged here and predicted flat on the
// other three workloads; a VM or attribution change is predicted flat here.
type adhocCold struct {
	cat   *catalog.Catalog
	svc   *engine.Service
	watch serviceWatch
	se    *engine.Session
	stmts []string
	want  []uint64
	order []bool
}

const (
	adhocSF    = 0.01
	adhocCache = 4 // entries; the rotation is several times that
)

// adhocStatements is the rotation: the nine queries.SQLSuite() shapes plus
// seeded variants that reach the corners of the front end — BETWEEN and IN
// desugaring (numeric, string, date, compound left operand), OR and <>,
// aliases, ORDER BY position / DESC / LIMIT tails, two- and three-way
// joins. (The grammar has no NOT, so no variant spells one.) Every literal
// comes from r, from a range narrow enough that two seeds ask for about
// the same share of the rows; the shapes, and so the op count, do not.
func adhocStatements(r *xrand.Rand) []string {
	var out []string
	for _, w := range queries.SQLSuite() {
		out = append(out, w.SQL)
	}
	n := func(lo, hi int64) int64 { return r.Int64Range(lo, hi) }
	day := func(y int64) string {
		return fmt.Sprintf("%d-%02d-%02d", y, n(1, 12), n(1, 28))
	}
	f := fmt.Sprintf
	return append(out,
		f("select count(*) as n, sum(l_extendedprice) as s from lineitem where l_quantity between %d and %d", n(8, 12), n(28, 32)),
		f("select l_returnflag, count(*) as n from lineitem where l_quantity in (%d, %d, %d) group by l_returnflag order by l_returnflag", n(1, 15), n(16, 30), n(31, 50)),
		"select count(*) as n from products where category in ('Chip', 'Board', 'Chip')",
		f("select count(*) as n from lineitem where l_quantity + l_tax between %d and %d", n(8, 12), n(38, 42)),
		f("select count(*) as n from lineitem where l_quantity <> %d or l_tax = %d", n(1, 50), n(0, 8)),
		f("select c_mktsegment, sum(o_totalprice) as t from orders, customer where c_custkey = o_custkey and o_totalprice > %d group by c_mktsegment order by c_mktsegment", n(48000, 52000)),
		f("select c_nationkey, sum(l_extendedprice) as rev from customer, orders, lineitem where c_custkey = o_custkey and l_orderkey = o_orderkey and o_orderdate >= '%s' group by c_nationkey order by c_nationkey", day(1995)),
		f("select o_orderkey, o_totalprice from orders where o_totalprice > %d order by o_totalprice desc, o_orderkey limit %d", n(48000, 52000), n(18, 22)),
		f("select p_brand, count(*) as n from partsupp, part where p_partkey = ps_partkey and p_size > %d group by p_brand order by p_brand", n(14, 16)),
		"select s.id, sum(s.price) as rev from sales s, products p where s.id = p.id and p.category = 'Chip' group by s.id order by s.id",
		f("select l_orderkey, min(l_quantity) as lo, max(l_quantity) as hi from lineitem where l_discount < %d group by l_orderkey order by l_orderkey", n(5, 6)),
		f("select count(*) as n from lineitem where l_quantity %% 10 in (%d, %d)", n(0, 4), n(5, 9)),
		f("select count(*) as n from orders where o_orderdate between '%s' and '%s'", day(1993), day(1996)),
		f("select s_nationkey, sum(s_acctbal) as b from supplier where s_acctbal > %d group by s_nationkey order by s_nationkey", n(2000, 2400)),
		f("select s_nationkey, count(*) as n from lineitem, supplier where l_suppkey = s_suppkey and l_quantity < %d group by s_nationkey order by s_nationkey", n(24, 26)),
		f("select count(*) as n from lineitem where (l_tax = %d or l_tax = %d) and l_quantity < %d", n(0, 3), n(4, 8), n(29, 31)),
		f("select l_orderkey, sum(l_quantity) as qty from lineitem where l_quantity < %d group by l_orderkey order by 2 desc, 1 limit %d", n(29, 31), n(18, 22)),
		f("select o.o_custkey, max(o.o_totalprice) as top from orders o where o.o_custkey <> %d group by o.o_custkey order by o.o_custkey", n(1, 15)),
		f("select ps_suppkey, sum(ps_supplycost * ps_availqty) as v from partsupp where ps_availqty > %d group by ps_suppkey order by ps_suppkey", n(4800, 5200)),
	)
}

func (w *adhocCold) setup(seed uint64, scale float64, st *setupTimes) (int, error) {
	t0 := time.Now()
	w.cat = datagen.Generate(datagen.Config{ScaleFactor: adhocSF * scale, Seed: seed})
	st.datagen = time.Since(t0)
	w.svc = engine.NewService(w.cat, engine.DefaultOptions(), adhocCache)
	w.watch = watch(w.svc)
	w.se = w.svc.NewSession()
	w.stmts = adhocStatements(xrand.New(seed ^ 0xad0c))
	w.want = make([]uint64, len(w.stmts))
	w.order = make([]bool, len(w.stmts))
	for i, sql := range w.stmts {
		t0 = time.Now()
		rows, ordered, err := oracleSQL(w.cat, sql)
		st.oracle += time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("oracle for %q: %w", sql, err)
		}
		_, res, err := w.se.Execute(sql, nil)
		if err != nil {
			return 0, fmt.Errorf("%q: %w", sql, err)
		}
		if !sameRows(res.Rows, rows, ordered) {
			return 0, fmt.Errorf("%q: compiled rows differ from internal/ref", sql)
		}
		w.want[i], w.order[i] = hashRows(rows, ordered), ordered
	}
	return len(w.stmts), nil
}

func (w *adhocCold) beginRound() error { return nil }

func (w *adhocCold) finish(*tracer) error { return nil }

func (w *adhocCold) do(i int, t *tracer) (outcome, error) {
	o, p, err := statementOp(t, &w.watch, w.se, statement{sql: w.stmts[i], want: w.want[i], ordered: w.order[i]})
	if err == nil && p != nil && (p.CacheHit || p.Fallback) {
		err = fmt.Errorf("%q was meant to miss the cache and compile; hit %v, uncached fallback %v", w.stmts[i], p.CacheHit, p.Fallback)
	}
	return o, err
}

// statement is one SQL op: its text, the digest of the oracle's rows, and
// what the traced pass needs to know to explain it.
type statement struct {
	sql     string
	want    uint64
	ordered bool
	guided  bool   // its artifact may be PGO-guided: the compile cannot be replayed
	runAs   string // also file the run's time and allocation under this name
}

// statementOp is Session.Execute, split at its one public seam so that the
// two halves get a span each, followed (traced pass only) by the replays
// that explain them. A statement the service fails is a failed op, not a
// broken benchmark.
func statementOp(t *tracer, sw *serviceWatch, se *engine.Session, st statement) (outcome, *engine.Prepared, error) {
	var o outcome
	ps := t.begin("engine.prepare")
	p, err := se.Prepare(st.sql)
	t.end(ps)
	if err != nil {
		o.fail(err)
		return o, nil, nil
	}
	o.prepared(p)
	var m0, m1 runtime.MemStats
	if t != nil && st.runAs != "" {
		runtime.ReadMemStats(&m0)
	}
	rs := t.begin("vm.run")
	res, err := se.Run(p, nil)
	t.end(rs)
	if err != nil {
		var ce *engine.SnapshotCapacityError
		if errors.As(err, &ce) {
			t.add("engine.capacity_errors", 1)
		}
		o.fail(err)
		return o, p, nil
	}
	o.ran(res)
	o.hash = hashRows(res.Rows, st.ordered)
	if o.hash != st.want {
		o.fail(fmt.Errorf("%q returned rows other than internal/ref's", st.sql))
	}
	if t != nil {
		if st.runAs != "" {
			runtime.ReadMemStats(&m1)
			t.sample("engine."+st.runAs+"_run", t.took(rs))
			t.add("engine."+st.runAs+"_alloc_bytes", float64(m1.TotalAlloc-m0.TotalAlloc))
		}
		if p.CacheHit {
			t.sample("qcache.warm_prepare", t.took(ps))
		}
		if err := replayPrepare(t, ps, sw.svc, st.sql, p, st.guided); err != nil {
			return o, p, err
		}
		explainRun(t, rs, sw.svc, res)
		sw.note(t)
	}
	return o, p, nil
}

// serviceWatch turns a service's cumulative counters into per-op deltas
// for the traced pass.
type serviceWatch struct {
	svc       *engine.Service
	cache     qcache.Stats
	fallbacks uint64
	version   uint64
}

func watch(svc *engine.Service) serviceWatch {
	return serviceWatch{svc: svc, cache: svc.CacheStats(), fallbacks: svc.Views().Fallbacks(), version: svc.Catalog().Version()}
}

func (sw *serviceWatch) note(t *tracer) {
	if t == nil {
		return
	}
	now := watch(sw.svc)
	t.add("qcache.evictions", float64(now.cache.Evictions-sw.cache.Evictions))
	t.add("qcache.invalidations", float64(now.cache.Invalidations-sw.cache.Invalidations))
	t.add("mview.fallbacks", float64(now.fallbacks-sw.fallbacks))
	if now.version != sw.version {
		t.add("catalog.version_bumps", 1)
	}
	*sw = now
}
