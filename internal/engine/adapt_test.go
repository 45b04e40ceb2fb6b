package engine

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/mview"
	"repro/internal/plan"
	"repro/internal/queries"
	"repro/internal/xrand"
)

// TestAdaptHonoursPinnedSnapshot: Session.Adapt binds like Session.Run. A
// session pinned before an append adapts over the pinned epoch — its one
// sampled run (which Baseline and Tuned name too) and its counter run, the
// tuple-counter twin's, both see its rows — and a rewritten statement
// whose view the guard rejects under the pin adapts over the base
// statement, as Run executes it.
func TestAdaptHonoursPinnedSnapshot(t *testing.T) {
	cat := datagen.Generate(datagen.Config{ScaleFactor: 0.02, Seed: 7})
	svc := NewService(cat, DefaultOptions(), 0)
	se := svc.NewSession()
	snap := se.PinSnapshot()
	pinnedRows := int64(snap.View("sales").Rows)
	tb, err := cat.Table("sales")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AppendCols("sales", datagen.AppendBatch(tb, 64, 99)); err != nil {
		t.Fatal(err)
	}
	if svc.Epoch() == snap.Epoch {
		t.Fatal("the append did not advance the epoch")
	}

	const sql = "select count(*) from sales where price >= 0"
	ar, err := se.Adapt(sql, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		name string
		res  *Result
	}{{"profile run", ar.ProfileRun}, {"baseline", ar.Baseline}, {"tuned", ar.Tuned}} {
		if r.res.Epoch != snap.Epoch || len(r.res.Rows) != 1 || r.res.Rows[0][0] != pinnedRows {
			t.Errorf("%s read epoch %d, rows %v; pinned epoch %d has %d sales rows",
				r.name, r.res.Epoch, r.res.Rows, snap.Epoch, pinnedRows)
		}
	}
	// The tuple-counter twin observed the pinned table too.
	p, err := se.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	plan.Walk(p.Compiled.Plan, func(n plan.Node) {
		if _, ok := n.(*plan.Scan); !ok {
			return
		}
		if got, ok := svc.History().Lookup(plan.Canon(n)); !ok || got != float64(pinnedRows) {
			t.Errorf("the twin observed %v sales rows (recorded %v), the pinned epoch has %d", got, ok, pinnedRows)
		}
	})

	// A rewritten statement under a pin the view's ledger does not know —
	// base grown, view refreshed only after the pin — adapts over the base
	// statement under that pin, exactly as Run falls back.
	msvc := NewService(mviewCatalog(xrand.New(0xada7), 6000), Options{}, 0)
	if _, err := msvc.CreateView("mv", "select a, sum(v), min(v), max(v) from m group by a", mview.RefreshLazy); err != nil {
		t.Fatal(err)
	}
	if _, err := msvc.Append("m", [][]int64{{1, 2, 3}, {4, 5, 6}}); err != nil {
		t.Fatal(err)
	}
	ms := msvc.NewSession()
	msnap := ms.PinSnapshot()
	if err := msvc.RefreshView("mv"); err != nil {
		t.Fatal(err)
	}
	const q = "select a, sum(v) as s, min(v) as mn from m group by a order by a"
	mar, err := ms.Adapt(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := ms.Stats(); st.Rewrites != 1 || st.RewriteFallbacks != 1 {
		t.Fatalf("Adapt of a rewrite the guard rejects must prepare the rewrite and fall back once, stats: %+v", st)
	}
	pb, err := msvc.prepare(q, false)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := ms.Run(pb, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Result{mar.ProfileRun, mar.Baseline, mar.Tuned} {
		if r.Epoch != msnap.Epoch || !reflect.DeepEqual(r.Rows, rb.Rows) {
			t.Fatalf("adapted run read epoch %d (pinned %d), rows %v; base execution under the pin: %v",
				r.Epoch, msnap.Epoch, r.Rows, rb.Rows)
		}
	}
}

// TestAdaptCompilesNothing: Adapt runs the artifact Prepare served and
// puts none into the cache. On a warm statement — with tuple counters
// compiled into the service's artifacts or not, sharded and pruned or
// not — Adapt leaves the cache's miss count alone, the next Prepare, from
// another session, hits the same artifact under generation 0, Tuned is
// Baseline, and the rows are the reference executor's.
func TestAdaptCompilesNothing(t *testing.T) {
	cat := testCatalog(t)
	const sql = "select l_orderkey, sum(l_quantity), sum(l_extendedprice) from lineitem where l_quantity < 24 group by l_orderkey"
	for _, counters := range []bool{false, true} {
		for _, shards := range []int{0, 4} {
			opts := DefaultOptions()
			opts.TupleCounters = counters
			svc := NewService(cat, opts, 0)
			se := svc.NewSession()
			se.SetShards(shards)
			se.SetShardPruning(shards >= 1)
			warm, err := se.Prepare(sql)
			if err != nil {
				t.Fatal(err)
			}
			before := svc.CacheStats()
			ar, err := se.Adapt(sql, nil)
			if err != nil {
				t.Fatal(err)
			}
			if ar.Tuned != ar.Baseline || ar.TunedCycles != ar.BaselineCycles {
				t.Errorf("counters=%v shards=%d: Tuned is not Baseline (%d vs %d cycles)",
					counters, shards, ar.TunedCycles, ar.BaselineCycles)
			}
			if after := svc.CacheStats(); after.Misses != before.Misses || after.Invalidations != before.Invalidations {
				t.Errorf("counters=%v shards=%d: Adapt moved the cache from %+v to %+v", counters, shards, before, after)
			}
			p, err := svc.NewSession().Prepare(sql)
			if err != nil {
				t.Fatal(err)
			}
			if !p.CacheHit || p.Compiled != warm.Compiled {
				t.Errorf("counters=%v shards=%d: Prepare after Adapt serves another artifact (hit %v)", counters, shards, p.CacheHit)
			}
			if gen := svc.gens.Current(p.Fingerprint); gen != 0 {
				t.Errorf("counters=%v shards=%d: Adapt bumped the generation to %d", counters, shards, gen)
			}
			rowsEqual(t, ar.Baseline.Rows, refRows(t, p), false)
		}
	}
}

// partitionsOf lists the merge partition count of every hash table of an
// artifact, in plan order.
func partitionsOf(cq *Compiled) []int64 {
	var ps []int64
	plan.Walk(cq.Plan, func(n plan.Node) {
		if ht := cq.Layout.HT[n]; ht != nil {
			ps = append(ps, ht.Partitions)
		}
	})
	return ps
}

// TestAdaptRecompileIsTheMissCompile: one cache key, one build. Adapt
// builds no binary of its own: it runs the artifact its Prepare serves,
// whose cost-model decisions — the partition count per hash table,
// whatever the shard count — are exactly the miss compile's. A statement
// prepare cannot parameterize (a literal inside ORDER BY is not lifted)
// takes the uncached text fallback, which builds the same way on every
// Prepare, Adapt's included. Adapt's sampled run is a sampled Run of the
// miss compile: the same rows in the same wall cycles.
func TestAdaptRecompileIsTheMissCompile(t *testing.T) {
	cat := testCatalog(t)
	for _, c := range []struct {
		sql      string
		fallback bool
	}{
		{"select l_returnflag, count(*) from lineitem group by l_returnflag", false},
		{"select l_quantity * 2, sum(l_quantity) from lineitem group by l_quantity * 2 order by l_quantity * 2 desc limit 4", true},
	} {
		for _, shards := range []int{0, 4} {
			opts := DefaultOptions()
			opts.Shards, opts.ShardPruning = shards, shards >= 1
			se := NewService(cat, opts, 0).NewSession()
			miss, err := se.Prepare(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			if miss.CacheHit || miss.Fallback != c.fallback {
				t.Fatalf("shards=%d, %s: first prepare has CacheHit %v, Fallback %v; want a miss compile, Fallback %v",
					shards, c.sql, miss.CacheHit, miss.Fallback, c.fallback)
			}
			static, err := (&Compiler{Cat: cat, Opts: opts}).CompilePlanGuided(miss.Compiled.Plan, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := partitionsOf(miss.Compiled)
			if slices.Equal(want, partitionsOf(static)) {
				t.Fatalf("shards=%d, %s: the cost model kept the static partitions %v; pick a statement it decides on", shards, c.sql, want)
			}

			// The Prepare Adapt starts with serves the miss compile's build.
			again, err := se.Prepare(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			if got := partitionsOf(again.Compiled); !slices.Equal(got, want) {
				t.Errorf("shards=%d, %s: a second prepare has partitions %v, the miss compile %v", shards, c.sql, got, want)
			}
			if !c.fallback && again.Compiled != miss.Compiled {
				t.Errorf("shards=%d, %s: a second prepare serves another artifact than the miss compile", shards, c.sql)
			}

			cfg := DefaultAdaptSampling()
			run, err := se.Run(miss, &cfg)
			if err != nil {
				t.Fatal(err)
			}
			wantCycles, wantRows := run.WallCycles, run.Rows
			ar, err := se.Adapt(c.sql, nil)
			if err != nil {
				t.Fatal(err)
			}
			if ar.ProfileRun.WallCycles != wantCycles || !RowsEqual(ar.ProfileRun.Rows, wantRows) {
				t.Errorf("shards=%d, %s: Adapt ran %d cycles, rows %v; the miss compile runs %d cycles, rows %v sampled",
					shards, c.sql, ar.ProfileRun.WallCycles, ar.ProfileRun.Rows, wantCycles, wantRows)
			}
		}
	}
}

// TestAdaptObservesUnprunedRows: the history Adapt feeds holds what each
// operator produces over the whole table, not what a pruned run scanned.
// A session that prunes zones adapts a join whose build side ships a
// narrow key range to the lineitem scan; with or without tuple counters
// compiled into the service's artifacts, the history must record every
// lineitem row for the scan.
func TestAdaptObservesUnprunedRows(t *testing.T) {
	cat := gateCatalog(t)
	lineitem, err := cat.Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	const sql = "select l_orderkey, sum(l_quantity) as q from lineitem, orders " +
		"where o_orderkey = l_orderkey and o_orderkey < 300 group by l_orderkey order by l_orderkey"
	for _, counters := range []bool{false, true} {
		opts := DefaultOptions()
		opts.TupleCounters = counters
		svc := NewService(cat, opts, 0)
		se := svc.NewSession()
		se.SetWorkers(2)
		se.SetShards(4)
		se.SetShardPruning(true)
		ar, err := se.Adapt(sql, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(ar.Baseline.Skips) == 0 {
			t.Fatalf("counters=%v: the baseline pruned no zone; pick a statement that prunes", counters)
		}
		p, err := se.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		plan.Walk(p.Compiled.Plan, func(n plan.Node) {
			if s, ok := n.(*plan.Scan); !ok || s.Table != lineitem {
				return
			}
			if got, ok := svc.History().Lookup(plan.Canon(n)); !ok || got != float64(lineitem.Rows()) {
				t.Errorf("counters=%v: the history records %v lineitem rows (found %v), the table has %d",
					counters, got, ok, lineitem.Rows())
			}
		})
	}
}

// TestAdaptRunsOnceSampled: an Adapt runs the statement once, sampled,
// plus at most one counter run on one machine. On a serial session it
// lends one machine when the service compiles tuple counters (the sampled
// run carries the counts) and two when it does not (the twin's run).
// When a sharded run pruned zones, the counts come from one unsharded
// counter run: the Adapt lends a sampled Run's machines plus one.
func TestAdaptRunsOnceSampled(t *testing.T) {
	cat := testCatalog(t)
	const sql = "select l_orderkey, sum(l_quantity), sum(l_extendedprice) from lineitem where l_quantity < 24 group by l_orderkey"
	for _, counters := range []bool{false, true} {
		opts := DefaultOptions()
		opts.TupleCounters = counters
		se := NewService(cat, opts, 0).NewSession()
		if _, err := se.Adapt(sql, nil); err != nil {
			t.Fatal(err)
		}
		want := 2
		if counters {
			want = 1
		}
		if got := len(se.exec.pool.lent); got != want {
			t.Errorf("counters=%v: a serial Adapt lent %d machines, want %d", counters, got, want)
		}
	}

	const pruned = "select l_orderkey, sum(l_quantity) as q from lineitem, orders " +
		"where o_orderkey = l_orderkey and o_orderkey < 300 group by l_orderkey order by l_orderkey"
	cat = gateCatalog(t)
	for _, counters := range []bool{false, true} {
		opts := DefaultOptions()
		opts.TupleCounters = counters
		se := NewService(cat, opts, 0).NewSession()
		se.SetWorkers(2)
		se.SetShards(4)
		se.SetShardPruning(true)
		ar, err := se.Adapt(pruned, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(ar.ProfileRun.Skips) == 0 {
			t.Fatalf("counters=%v: the sampled run pruned no zone; pick a statement that prunes", counters)
		}
		adapted := len(se.exec.pool.lent)
		p, err := se.Prepare(pruned)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultAdaptSampling()
		if _, err := se.Run(p, &cfg); err != nil {
			t.Fatal(err)
		}
		if sampled := len(se.exec.pool.lent); adapted != sampled+1 {
			t.Errorf("counters=%v: a pruned Adapt lent %d machines, a sampled Run %d; want the Run's plus one", counters, adapted, sampled)
		}
	}
}

// TestAdaptHistoryIndependentOfCounterSource: the counts Adapt feeds the
// history do not depend on where they come from — the sampled run, when
// the service compiles tuple counters, or the counter run of the twin,
// when it does not. After the same Adapts of every service-path statement,
// sharded and pruning or not, both services' histories read the same
// value for every plan node.
func TestAdaptHistoryIndependentOfCounterSource(t *testing.T) {
	cat := testCatalog(t)
	for _, shards := range []int{0, 4} {
		var svcs [2]*Service
		for i, counters := range []bool{false, true} {
			opts := DefaultOptions()
			opts.TupleCounters = counters
			svcs[i] = NewService(cat, opts, 0)
			se := svcs[i].NewSession()
			se.SetShards(shards)
			se.SetShardPruning(shards >= 1)
			for _, w := range queries.SQLSuite() {
				if _, err := se.Adapt(w.SQL, nil); err != nil {
					t.Fatalf("counters=%v shards=%d, %s: %v", counters, shards, w.Name, err)
				}
			}
		}
		nodes := 0
		for _, w := range queries.SQLSuite() {
			p, err := svcs[0].NewSession().Prepare(w.SQL)
			if err != nil {
				t.Fatal(err)
			}
			plan.Walk(p.Compiled.Plan, func(n plan.Node) {
				nodes++
				canon := plan.Canon(n)
				off, okOff := svcs[0].History().Lookup(canon)
				on, okOn := svcs[1].History().Lookup(canon)
				if off != on || okOff != okOn {
					t.Errorf("shards=%d, %s: the twin's counter run records %v (found %v), the sampled run %v (found %v) for %s",
						shards, w.Name, off, okOff, on, okOn, canon)
				}
			})
		}
		if nodes == 0 {
			t.Fatalf("shards=%d: no plan node compared", shards)
		}
	}
}
