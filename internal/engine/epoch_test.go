package engine

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/pmu"
	"repro/internal/queries"
	"repro/internal/vm"
)

// TestQCacheKeyEpochContract pins the cache-key contract of epoch-versioned
// storage: appends within capacity change neither the options digest nor
// the catalog version, so a warm prepare after an append is a hit on the
// *same* artifact — zero recompiles, zero evictions — while a schema
// change (Add) still misses.
func TestQCacheKeyEpochContract(t *testing.T) {
	svc := testService(t)
	se := svc.NewSession()
	sql := "select count(*) from lineitem where l_quantity < 10"

	digest0 := svc.Options().Digest()
	version0 := svc.Catalog().Version()

	p1, err := se.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	if p1.CacheHit || p1.Fallback {
		t.Fatalf("first prepare: hit=%v fallback=%v", p1.CacheHit, p1.Fallback)
	}
	missesAfterCold := svc.CacheStats().Misses

	tb, err := svc.Catalog().Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := svc.AppendCols("lineitem", datagen.AppendBatch(tb, 40, uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}

	if d := svc.Options().Digest(); d != digest0 {
		t.Fatalf("Options.Digest changed across appends: %x -> %x", digest0, d)
	}
	if v := svc.Catalog().Version(); v != version0 {
		t.Fatalf("catalog version changed across in-capacity appends: %d -> %d", version0, v)
	}

	p2, err := se.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !p2.CacheHit {
		t.Fatal("prepare after append must be a cache hit")
	}
	if p2.Compiled != p1.Compiled {
		t.Fatal("append must not re-compile: artifacts differ")
	}
	st := svc.CacheStats()
	if st.Misses != missesAfterCold {
		t.Fatalf("appends caused %d extra compiles", st.Misses-missesAfterCold)
	}
	if st.Evictions != 0 || st.Invalidations != 0 {
		t.Fatalf("appends evicted/invalidated artifacts: %+v", st)
	}

	// The warm artifact executes against the grown table: the run binds the
	// current epoch and sees all appended rows.
	res, err := se.Run(p2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != svc.Epoch() || res.Epoch != 3 {
		t.Fatalf("run bound epoch %d, catalog at %d", res.Epoch, svc.Epoch())
	}

	// A schema change still invalidates: the version moves and the next
	// prepare misses.
	svc.Catalog().Add(catalog.NewTable("epoch_contract_scratch"))
	if svc.Catalog().Version() == version0 {
		t.Fatal("Add must bump the catalog version")
	}
	p3, err := se.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	if p3.CacheHit {
		t.Fatal("prepare after a schema change must miss")
	}
}

// TestEpochDeterminismBattery is the acceptance battery of the epoch axis:
// for the same visible epoch, result rows, canonical heap bytes, and the
// canonical profile are byte-identical at every pair of values of Workers
// {0,1,2,4}, Shards {1,2,4}, {bulk-load, incremental-append} and
// {unpinned, pinned before further appends}, and at the serial and
// all-maximum corners (13 of the 48 cells). Storage history, parallelism
// and shard attribution must all be invisible in what a query computes.
func TestEpochDeterminismBattery(t *testing.T) { epochDeterminismBattery().run(t) }

func epochDeterminismBattery() *lattice {
	src := testSource(suiteStmts("fig9")...)
	src.build = epochCatalog
	src.opts.ShardPruning = true
	return &lattice{src: src, axes: []axis{workersAxis(0, 1, 2, 4), shardsAxis(1, 2, 4), ingestAxis, pinnedAxis, eventAxis(evInstRetired)}, name: noSubtest}
}

// epochCatalog is the epoch tests' dataset.
func epochCatalog() *catalog.Catalog {
	return datagen.Generate(datagen.Config{ScaleFactor: 0.02, Seed: 7})
}

// TestSessionSnapshotPinning: a pinned session keeps reading its epoch
// while appends land and unpinned sessions see them — repeatable reads on
// one handle, fresh reads on the other, one shared artifact.
func TestSessionSnapshotPinning(t *testing.T) {
	cat := datagen.Generate(datagen.Config{ScaleFactor: 0.02, Seed: 7})
	svc := NewService(cat, DefaultOptions(), 0)
	pinned := svc.NewSession()
	fresh := svc.NewSession()
	sql := "select count(*) from sales where price >= 0"

	snap := pinned.PinSnapshot()
	pRows := int64(snap.View("sales").Rows)

	tb, err := cat.Table("sales")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AppendCols("sales", datagen.AppendBatch(tb, 64, 99)); err != nil {
		t.Fatal(err)
	}

	p1, err := pinned.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := pinned.Run(p1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Epoch != snap.Epoch || res1.Rows[0][0] != pRows {
		t.Fatalf("pinned run: epoch=%d count=%d, want epoch=%d count=%d",
			res1.Epoch, res1.Rows[0][0], snap.Epoch, pRows)
	}

	p2, err := fresh.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !p2.CacheHit || p2.Compiled != p1.Compiled {
		t.Fatal("pinned and fresh sessions must share one artifact")
	}
	res2, err := fresh.Run(p2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Epoch != svc.Epoch() || res2.Rows[0][0] != pRows+64 {
		t.Fatalf("fresh run: epoch=%d count=%d, want epoch=%d count=%d",
			res2.Epoch, res2.Rows[0][0], svc.Epoch(), pRows+64)
	}

	pinned.Unpin()
	res3, err := pinned.Run(p1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Rows[0][0] != pRows+64 {
		t.Fatalf("unpinned run sees %d rows, want %d", res3.Rows[0][0], pRows+64)
	}
}

// TestConcurrentAppendExecute races streaming appends against executing
// sessions (the CI -race job runs this package): every observed count must
// be exactly one of the epoch-boundary row counts — never a torn read —
// and a pinned session must observe its own epoch repeatably. The last
// batch widens the price column: a run whose artifact predates it is
// refused with a *SnapshotWidthError, and a fresh prepare serves it.
func TestConcurrentAppendExecute(t *testing.T) {
	cat := datagen.Generate(datagen.Config{ScaleFactor: 0.02, Seed: 7})
	svc := NewService(cat, DefaultOptions(), 0)
	tb, err := cat.Table("sales")
	if err != nil {
		t.Fatal(err)
	}
	base := int64(tb.Rows())
	const batch, nBatches = 64, 8
	valid := map[int64]bool{}
	for k := 0; k <= nBatches; k++ {
		valid[base+int64(k*batch)] = true
	}
	sql := "select count(*) from sales where price >= 0"
	price := tb.ColIndex("price")
	if w := tb.ColWidth(price); w == 8 {
		t.Fatalf("price is already %d bytes wide", w)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < nBatches; i++ {
			cols := datagen.AppendBatch(tb, batch, uint64(i+1))
			if i == nBatches-1 {
				cols[price][0] = 1 << 40
			}
			r, err := svc.AppendCols("sales", cols)
			if err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
			if r.Grew != (i == nBatches-1) {
				t.Errorf("append %d: Grew %v", i, r.Grew)
			}
		}
	}()

	const readers = 3
	wg.Add(readers)
	for r := 0; r < readers; r++ {
		go func(r int) {
			defer wg.Done()
			se := svc.NewSession()
			se.SetWorkers(2)
			for i := 0; i < 4; i++ {
				var pinnedRows int64 = -1
				if i%2 == 1 {
					pinnedRows = int64(se.PinSnapshot().View("sales").Rows)
				} else {
					se.Unpin()
				}
				p, err := se.Prepare(sql)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				res, err := se.Run(p, nil)
				var wide *SnapshotWidthError
				if errors.As(err, &wide) {
					// Widened after the prepare: the catalog version moved,
					// so preparing again compiles for the new width.
					if p, err = se.Prepare(sql); err == nil {
						res, err = se.Run(p, nil)
					}
				}
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				got := res.Rows[0][0]
				if !valid[got] {
					t.Errorf("reader %d saw %d rows — not an epoch boundary (base %d, batch %d)", r, got, base, batch)
					return
				}
				if pinnedRows >= 0 && got != pinnedRows {
					t.Errorf("reader %d: pinned snapshot has %d rows, run saw %d", r, pinnedRows, got)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if w := tb.ColWidth(price); w != 8 {
		t.Fatalf("price is %d bytes wide after the widening append, want 8", w)
	}
	_, res, err := svc.NewSession().Execute(sql, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Rows[0][0], base+nBatches*batch; got != want {
		t.Fatalf("after the widening: count %d, want %d", got, want)
	}
}

// TestAdaptStalenessBumpsGeneration: row-count drift past the threshold is
// a staleness trigger — the next Adapt bumps the statement's PGO
// generation and the following prepare recompiles over the current
// epoch's statistics, re-freezing the drift baseline.
func TestAdaptStalenessBumpsGeneration(t *testing.T) {
	cat := datagen.Generate(datagen.Config{ScaleFactor: 0.02, Seed: 7})
	svc := NewService(cat, DefaultOptions(), 0)
	se := svc.NewSession()
	sql := "select count(*) from sales where price >= 0"

	if _, err := se.Adapt(sql, nil); err != nil {
		t.Fatal(err)
	}
	p1, err := se.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	gen0 := svc.gens.Current(p1.Fingerprint)
	planned0 := p1.Compiled.PlannedRows()["sales"]

	// Drift the scanned table by ~40% — past StalenessDriftThreshold but
	// within capacity, so only the epoch moves.
	tb, err := cat.Table("sales")
	if err != nil {
		t.Fatal(err)
	}
	version0 := cat.Version()
	grow := int(float64(tb.Rows()) * 0.4)
	if _, err := svc.AppendCols("sales", datagen.AppendBatch(tb, grow, 5)); err != nil {
		t.Fatal(err)
	}
	if cat.Version() != version0 {
		t.Fatalf("drift append outgrew capacity — pick a smaller batch")
	}

	if _, err := se.Adapt(sql, nil); err != nil {
		t.Fatal(err)
	}
	gen1 := svc.gens.Current(p1.Fingerprint)
	if gen1 <= gen0 {
		t.Fatalf("drifted Adapt left generation at %d (was %d)", gen1, gen0)
	}
	p2, err := se.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	if p2.CacheHit {
		t.Fatal("prepare after a staleness bump must recompile")
	}
	if planned1 := p2.Compiled.PlannedRows()["sales"]; planned1 != planned0+int64(grow) {
		t.Fatalf("recompile planned %d rows, want %d (drift baseline not re-frozen)", planned1, planned0+int64(grow))
	}
}

// TestIngestGate is the streaming-ingest gate (DESIGN.md §6). A catalog
// grown to its rows by appends runs q1 and fig9, serial and on 4 workers
// × 2 shards, in exactly the bulk-loaded catalog's simulated cycles (0 %
// tax) with identical rows and an identical canonical profile. Once the
// SQL suite is warm, append batches between its rounds cost no
// recompile, eviction or invalidation: every warm prepare hits.
func TestIngestGate(t *testing.T) {
	bulk, incr := epochCatalog(), epochCatalog()
	appendBack(t, incr, cut(t, incr))
	cfg := &pmu.Config{Event: vm.EvInstRetired, Period: 487}
	for _, name := range []string{"q1", "fig9"} {
		w, ok := queries.ByName(name)
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		for _, c := range []struct{ workers, shards int }{{0, 0}, {4, 2}} {
			label := fmt.Sprintf("%s/w%d/s%d", name, c.workers, c.shards)
			run := func(cat *catalog.Catalog, cfg *pmu.Config) *Result {
				_, res := runOnce(t, cat, w.Query, knobs(c.workers, 256, c.shards, c.shards > 0), cfg)
				return res
			}
			cycles := func(r *Result) uint64 {
				if c.workers == 0 {
					return r.Stats.Cycles
				}
				return r.WallCycles
			}
			b, i := run(bulk, nil), run(incr, nil)
			if cycles(b) == 0 || cycles(i) != cycles(b) {
				t.Errorf("%s: %d cycles grown by appends vs %d bulk-loaded, want exactly equal", label, cycles(i), cycles(b))
			}
			rowsEqual(t, i.Rows, b.Rows, true)
			if !bytes.Equal(run(incr, cfg).Profile.Canonical(), run(bulk, cfg).Profile.Canonical()) {
				t.Errorf("%s: canonical profile differs between the grown and the bulk-loaded catalog", label)
			}
		}
	}

	const rounds, batch = 6, 64
	suite := queries.SQLSuite()
	svc := NewService(incr, DefaultOptions(), 0)
	se := svc.NewSession()
	for _, w := range suite {
		if _, _, err := se.Execute(w.SQL, nil); err != nil {
			t.Fatalf("cold %s: %v", w.Name, err)
		}
	}
	cold := svc.CacheStats()
	tb, err := incr.Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < rounds; round++ {
		if _, err := svc.AppendCols("lineitem", datagen.AppendBatch(tb, batch, uint64(round+1))); err != nil {
			t.Fatalf("round %d append: %v", round, err)
		}
		for _, w := range suite {
			if _, _, err := se.Execute(w.SQL, nil); err != nil {
				t.Fatalf("round %d %s: %v", round, w.Name, err)
			}
		}
	}
	cs := svc.CacheStats()
	warm := uint64(rounds * len(suite))
	t.Logf("%d warm statements across %d appends: %d hits, %d recompiles, %d evictions, %d invalidations",
		warm, rounds, cs.Hits-cold.Hits, cs.Misses-cold.Misses, cs.Evictions, cs.Invalidations)
	if cs.Hits-cold.Hits != warm || cs.Misses != cold.Misses || cs.Evictions != 0 || cs.Invalidations != 0 {
		t.Errorf("warm hit rate %d/%d under appends with %d recompiles, %d evictions, %d invalidations; want every prepare to hit",
			cs.Hits-cold.Hits, warm, cs.Misses-cold.Misses, cs.Evictions, cs.Invalidations)
	}
}

// TestRepeatedKeyAppendRefused: the probe of a join on a unique build key
// leaves its chain at the first match, and a group join keeps one entry
// per build key, so both are sound only while the catalog keeps Unique
// true. An append that repeats products.id is refused with a
// *catalog.UniqueKeyError, and a group join and a plain join over the key
// still return the reference executor's rows.
func TestRepeatedKeyAppendRefused(t *testing.T) {
	svc := testService(t)
	se := svc.NewSession()
	rows := make([][]int64, 5)
	for i := range rows {
		rows[i] = []int64{int64(i + 1), 0, 0} // ids 1..5 exist already
	}
	_, err := se.Append("products", rows)
	var ue *catalog.UniqueKeyError
	if !errors.As(err, &ue) {
		t.Errorf("append repeating products.id: err = %v, want *catalog.UniqueKeyError", err)
	} else if ue.Table != "products" || ue.Column != "id" || ue.Key != 1 {
		t.Errorf("error = %+v, want key 1 of products.id", *ue)
	}
	for _, sql := range []string{
		"select s.id, count(*) from sales s, products p where s.id = p.id group by s.id",
		"select sum(s.price) from sales s, products p where s.id = p.id",
	} {
		p, res, err := se.Execute(sql, nil)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		matchesReference(t, res.Rows, p)
	}
}
