package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/mview"
	"repro/internal/xrand"
)

// dashboardIngest is a dashboard beside an ingest stream: every round
// starts from a fresh catalog and Service with the incremental view
// rev_by_prod over sales, a serial session and a Workers=2 / Shards=2 /
// ShardPruning session, every fingerprint warmed. The ops are 70 %
// dashboard-family statements that rewrite onto the view, 18 % orders
// aggregates that match no view and alternate between the two sessions,
// 10 % AppendCols batches of 64 rows (sales and orders), 1 % explicit
// RefreshView and 1 % Session.Adapt.
//
// Why: writes beside reads on the same catalog/engine staging layer. The
// front end (Normalize, mview.Rewrite, the qcache hit, EncodeParams) and
// the per-run heap staging dominate the median op; the scheduler, shard
// and merge path of the parallel session sets op_ms_p95; and it is the
// only workload with appends, lazy view refresh, a capacity-class
// crossing (orders outgrows its reserved capacity once per round, which
// bumps the catalog version and recompiles every family), and PGO
// generation bumps. A read-path gain paid for by ingest, or a scheduler
// collapse that taxes the serial session, shows here.
type dashboardIngest struct {
	seed    uint64
	sf      float64
	ops     []dashOp
	batches [][][]int64 // per append op, generated once by the verify round

	cat      *catalog.Catalog
	svc      *engine.Service
	watch    serviceWatch
	serial   *engine.Session
	parallel *engine.Session
	guided   bool // Adapt has promoted or bumped the orders family this round
}

type opKind uint8

const (
	opDash opKind = iota
	opOrders
	opAppend
	opRefresh
	opAdapt
)

type dashOp struct {
	kind     opKind
	st       statement // opDash, opOrders, opAdapt
	parallel bool      // opOrders: on the parallel session
	table    string    // opAppend
}

const (
	// dashSF puts orders (3637 rows) 459 rows under its reserved capacity
	// of 4096 (catalog.CapRowsFor), so the eighth 64-row batch outgrows it.
	dashSF       = 0.2425
	dashView     = "rev_by_prod"
	dashViewSQL  = "select id, sum(price), count(*) from sales group by id"
	batchRows    = 64
	dashOps      = 196 // 70 %
	ordersOps    = 50  // 18 %
	ordersAppend = 16  // with salesAppend, 10 %
	// salesAppend keeps the view's table inside ITS reserved capacity:
	// each refresh appends at most one partial row per appended sales row,
	// and 242 products + 12×64 stays under 1024. See finish.
	salesAppend = 12
	refreshOps  = 3 // 1 %
	adaptOps    = 3 // 1 %
)

func dashSQL(r *xrand.Rand, products int64) string {
	lo := r.Int64Range(1, max(1, products-26))
	hi := lo + r.Int64Range(5, 25)
	if r.Bool(0.5) {
		return fmt.Sprintf("select id, sum(price) as rev, count(*) as n from sales where id between %d and %d group by id order by id", lo, hi)
	}
	return fmt.Sprintf("select id, sum(price) as rev, count(*) as n from sales where id >= %d and id <= %d group by id order by id", lo, hi)
}

func ordersSQL(r *xrand.Rand) string {
	return fmt.Sprintf("select o_custkey, sum(o_totalprice) as t from orders where o_orderkey >= %d group by o_custkey order by o_custkey", r.Int64Range(1, 40))
}

// dashOpList draws the op list. The kinds and their order are the same for
// every seed — where in a round the capacity crossing and the Adapt calls
// fall decides how many later statements recompile or run tuned code, and
// that should not differ between two seeds — and every literal comes from
// the seed.
func dashOpList(seed uint64, scale float64, products int64) []dashOp {
	r := xrand.New(seed ^ 0xda5b)
	// A smoke test's scale shrinks the op list along with the data.
	n := func(count int) int { return max(1, int(float64(count)*min(1, scale))) }
	var ops []dashOp
	for i := 0; i < n(dashOps); i++ {
		ops = append(ops, dashOp{kind: opDash, st: statement{sql: dashSQL(r, products), ordered: true}})
	}
	for i := 0; i < n(ordersOps); i++ {
		op := dashOp{kind: opOrders, st: statement{sql: ordersSQL(r), ordered: true, runAs: "serial"}, parallel: i%2 == 1}
		if op.parallel {
			op.st.runAs = "parallel"
		}
		ops = append(ops, op)
	}
	for i := 0; i < n(ordersAppend); i++ {
		ops = append(ops, dashOp{kind: opAppend, table: "orders"})
	}
	for i := 0; i < n(salesAppend); i++ {
		ops = append(ops, dashOp{kind: opAppend, table: "sales"})
	}
	for i := 0; i < n(refreshOps); i++ {
		ops = append(ops, dashOp{kind: opRefresh})
	}
	for i := 0; i < n(adaptOps); i++ {
		ops = append(ops, dashOp{kind: opAdapt, st: statement{sql: ordersSQL(r), ordered: true}})
	}
	shuffled := make([]dashOp, len(ops))
	for i, j := range xrand.New(0xda5b).Perm(len(ops)) {
		shuffled[i] = ops[j]
	}
	return shuffled
}

func (w *dashboardIngest) setup(seed uint64, scale float64, st *setupTimes) (int, error) {
	w.seed, w.sf = seed, dashSF*scale
	t0 := time.Now()
	if err := w.beginRound(); err != nil {
		return 0, err
	}
	st.datagen = time.Since(t0) // dominated by datagen; includes the view build and warm-up
	products, err := w.cat.Table("products")
	if err != nil {
		return 0, err
	}
	w.ops = dashOpList(seed, scale, int64(products.Rows()))
	w.batches = make([][][]int64, len(w.ops))

	// Verify round: every statement is answered by the interpreter from
	// its original text against the catalog as the op sequence has left
	// it, so the digests hold for every later round, which replays the
	// same sequence from the same fresh state.
	for i := range w.ops {
		op := &w.ops[i]
		if op.kind == opDash || op.kind == opOrders || op.kind == opAdapt {
			t0 = time.Now()
			rows, _, err := oracleSQL(w.cat, op.st.sql)
			st.oracle += time.Since(t0)
			if err != nil {
				return 0, fmt.Errorf("oracle for %q: %w", op.st.sql, err)
			}
			op.st.want = hashRows(rows, true)
		}
		o, err := w.do(i, nil)
		if err != nil {
			return 0, err
		}
		if o.failed {
			return 0, fmt.Errorf("verify round, op %d: %w", i, o.why)
		}
	}
	return len(w.ops), nil
}

// beginRound rebuilds the world: data, service, view, both sessions, and
// one warm execution of each statement family on each session it runs on.
func (w *dashboardIngest) beginRound() error {
	w.cat = datagen.Generate(datagen.Config{ScaleFactor: w.sf, Seed: w.seed})
	w.svc = engine.NewService(w.cat, engine.DefaultOptions(), 0)
	if _, err := w.svc.CreateView(dashView, dashViewSQL, mview.RefreshIncremental); err != nil {
		return fmt.Errorf("create view: %w", err)
	}
	w.serial = w.svc.NewSession()
	w.parallel = w.svc.NewSession()
	w.parallel.SetWorkers(2)
	w.parallel.SetShards(2)
	w.parallel.SetShardPruning(true)
	w.guided = false
	r := xrand.New(w.seed ^ 0x3a93)
	if _, _, err := w.serial.Execute(dashSQL(r, 32), nil); err != nil {
		return fmt.Errorf("warm dashboard family: %w", err)
	}
	for _, se := range []*engine.Session{w.serial, w.parallel} {
		if _, _, err := se.Execute(ordersSQL(r), nil); err != nil {
			return fmt.Errorf("warm orders family: %w", err)
		}
	}
	w.watch = watch(w.svc)
	return nil
}

func (w *dashboardIngest) do(i int, t *tracer) (outcome, error) {
	op := &w.ops[i]
	var o outcome
	switch op.kind {
	case opDash:
		o, p, err := statementOp(t, &w.watch, w.serial, op.st)
		if p != nil {
			t.add("mview.candidates", 1)
			if p.Rewrite != nil {
				t.add("mview.rewritten", 1)
			}
		}
		return o, err

	case opOrders:
		se := w.serial
		if op.parallel {
			se = w.parallel
		}
		st := op.st
		st.guided = w.guided
		o, _, err := statementOp(t, &w.watch, se, st)
		return o, err

	case opAppend:
		if w.batches[i] == nil {
			tb, err := w.cat.Table(op.table)
			if err != nil {
				return o, err
			}
			w.batches[i] = datagen.AppendBatch(tb, batchRows, w.seed+uint64(i))
		}
		s := t.begin("catalog.append")
		res, err := w.svc.AppendCols(op.table, w.batches[i])
		t.end(s)
		if err != nil {
			o.fail(err)
			return o, nil
		}
		o.hash = mix(mix(mix(fnvOffset, res.Epoch), uint64(res.Lo)), uint64(res.Hi))
		t.add("catalog.appended_rows", float64(res.Hi-res.Lo))
		if res.Grew {
			t.add("catalog.grew_events", 1)
		}

	case opRefresh:
		s := t.begin("mview.refresh")
		err := w.svc.RefreshView(dashView)
		t.end(s)
		if err != nil {
			o.fail(err)
			return o, nil
		}
		for _, v := range w.svc.Views().List() {
			o.hash = mix(mix(o.hash, uint64(v.Covered)), uint64(v.ViewRows))
		}

	case opAdapt:
		before, hits := w.svc.CacheStats().Invalidations, w.serial.Stats().CacheHits
		s := t.begin("pgo.adapt")
		ar, err := w.serial.Adapt(op.st.sql, nil)
		t.end(s)
		if err != nil {
			o.fail(err)
			return o, nil
		}
		// Adapt prepares once (a hit or a miss like any other) and runs
		// the statement three times: profiled, baseline, tuned.
		if w.serial.Stats().CacheHits > hits {
			o.hits++
		} else {
			o.misses++
		}
		o.ran(ar.ProfileRun)
		o.ran(ar.Baseline)
		o.ran(ar.Tuned)
		o.hash = hashRows(ar.Baseline.Rows, true)
		if o.hash != op.st.want {
			o.fail(fmt.Errorf("adapt %q returned rows other than internal/ref's", op.st.sql))
		}
		// A promoted or bumped generation invalidates the older one.
		if w.svc.CacheStats().Invalidations != before {
			w.guided = true
			t.add("pgo.generation_bumps", 1)
		}
		t.add("pgo.adapts", 1)
		t.add("pgo.cycle_reduction_pct", 100*ar.CycleReduction())
	}
	w.watch.note(t)
	return o, nil
}

// finish surfaces the one failing path the seed has, outside the op list
// (the workloads themselves are sized so that no op fails). The
// incremental refresh runs inside mview.Manager.Rewrite, after
// Service.prepareOpt has captured the catalog version for the cache key;
// when that refresh pushes the view's table over its reserved capacity
// the version bumps underneath the captured key, the lookup hits the
// artifact compiled for the old capacity, and Session.Run refuses the
// snapshot with a SnapshotCapacityError. The probe keeps appending to
// sales and asking the dashboard question until the view's table has
// grown, and counts the refusals in engine.capacity_errors: 1 at the
// seed, the baseline a later robustness issue drives to 0.
func (w *dashboardIngest) finish(t *tracer) error {
	r := xrand.New(w.seed ^ 0xf1a1)
	sql := dashSQL(r, 32)
	for k := uint64(0); k < 64; k++ {
		tb, err := w.cat.Table("sales")
		if err != nil {
			return err
		}
		if _, err := w.svc.AppendCols("sales", datagen.AppendBatch(tb, batchRows, w.seed^k<<32)); err != nil {
			return fmt.Errorf("capacity probe: %w", err)
		}
		version := w.cat.Version()
		_, _, err = w.serial.Execute(sql, nil)
		var ce *engine.SnapshotCapacityError
		if errors.As(err, &ce) {
			t.add("engine.capacity_errors", 1)
		} else if err != nil {
			return fmt.Errorf("capacity probe: %w", err)
		}
		if w.cat.Version() != version {
			return nil // the view's table grew under this statement
		}
	}
	return errors.New("capacity probe: the view's table never outgrew its capacity")
}
