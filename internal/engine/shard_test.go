package engine

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/pipeline"
	"repro/internal/plan"
	"repro/internal/pmu"
	"repro/internal/queries"
	"repro/internal/ref"
	"repro/internal/vm"
	"repro/internal/xrand"
)

// shardSource runs the invariance battery over the main pipeline shapes:
// join + group-by (fig9), plain group-by (q1), selective global aggregate
// (q6), and a group-join (intro).
func shardSource() source { return testSource(suiteStmts("fig9", "q1", "q6", "intro")...) }

// TestShardDeterminism is the tentpole's core property: at every pair of
// values of Workers {0,1,2,4}, Shards {1,2,4,8} and pruning, and at the
// serial and all-maximum corners (17 of the 32 cells), the result rows
// equal the reference, the coordinator's canonical heap is byte-identical,
// and the merged profile's canonical serialization is byte-identical (per
// pruning setting). Zone granularity is a function of the table alone, so
// the shard count must be invisible everywhere except the attribution
// lenses (ByShard, ShardStates, SkipEvent.Shard) that Canonical excludes.
func TestShardDeterminism(t *testing.T) { shardDeterminism().run(t) }

func shardDeterminism() *lattice {
	return &lattice{src: shardSource(), axes: []axis{workersAxis(0, 1, 2, 4), shardsAxis(1, 2, 4, 8), pruningAxis, eventAxis(evInstRetired)}}
}

// TestShardMatchesUnshardedParallel: with pruning off, a sharded run is
// the unsharded parallel run plus attribution — one whole-table surviving
// run morselizes to exactly the unsharded span list, so heap and canonical
// profile match the Shards=0 run bit-for-bit at every worker count.
func TestShardMatchesUnshardedParallel(t *testing.T) { shardMatchesUnsharded().run(t) }

func shardMatchesUnsharded() *lattice {
	return &lattice{src: shardSource(), axes: []axis{workersAxis(1, 4), shardsAxis(0, 4), eventAxis(evInstRetired)}}
}

// TestShardSkipCompleteness replays fig9's shard journals: zones tile
// each shard, shards tile each scanned table with no zone claimed twice,
// and the per-shard sample lanes are populated. fig9 exercises both
// pruning rules: the orders scan prunes on its date filter (the column is
// correlated with position), and the lineitem scan prunes via the shipped
// build-side bounds or hash table of the join (clustered l_orderkey).
func TestShardSkipCompleteness(t *testing.T) {
	cat := testCatalog(t)
	w, _ := queries.ByName("fig9")
	_, res := runOnce(t, cat, w.Query, knobs(2, 256, 4, true), &pmu.Config{Event: vm.EvInstRetired, Period: 487})

	if len(res.ShardStates) == 0 {
		t.Fatal("no shard states")
	}
	type zkey struct{ pipe, zone int }
	owner := map[zkey]int{}
	byScan := map[string][]ShardState{}
	causes := map[string]int{}
	for _, st := range res.ShardStates {
		byScan[st.Alias] = append(byScan[st.Alias], st)
		next := st.Lo
		for _, z := range st.Zones {
			k := zkey{st.Pipeline, z.Zone}
			if prev, dup := owner[k]; dup {
				t.Fatalf("zone %d of pipeline %d claimed by shards %d and %d (tag collision)",
					z.Zone, st.Pipeline, prev, st.Shard)
			}
			owner[k] = st.Shard
			if z.Lo != next {
				t.Errorf("shard %d of %s: zone %d starts at %d, want %d", st.Shard, st.Alias, z.Zone, z.Lo, next)
			}
			next = z.Hi
			causes[z.Cause]++
		}
		if next != st.Hi {
			t.Errorf("shard %d of %s: zones end at %d, shard owns [%d,%d)", st.Shard, st.Alias, next, st.Lo, st.Hi)
		}
	}
	// Shards tile each table.
	for alias, states := range byScan {
		var next int64
		for _, st := range states {
			if st.Lo != next {
				t.Errorf("%s: shard %d starts at %d, want %d", alias, st.Shard, st.Lo, next)
			}
			next = st.Hi
		}
		tb, err := cat.Table(trimAlias(alias))
		if err != nil {
			t.Fatalf("%s: %v", alias, err)
		}
		if next != int64(tb.Rows()) {
			t.Errorf("%s: shards own %d rows, table has %d", alias, next, tb.Rows())
		}
	}
	if causes[core.SkipFilter] == 0 {
		t.Error("fig9 pruned no zone on the orders date filter — battery is vacuous")
	}
	if causes[core.SkipSemiJoin]+causes[core.SkipAbsent] == 0 {
		t.Error("fig9 pruned no lineitem zone via the shipped build side — battery is vacuous")
	}
	// The profile carries the skips, and per-shard sample lanes exist.
	if res.Profile == nil || len(res.Profile.Skips) == 0 {
		t.Fatal("profile carries no skip events")
	}
	lanes := 0
	for shard, w := range res.Profile.ByShard {
		if shard > 0 && w > 0 {
			lanes++
		}
	}
	if lanes < 2 {
		t.Errorf("only %d populated shard lanes in profile, want >= 2", lanes)
	}
}

// trimAlias maps a scan alias back to its table name (suite queries use
// the table name itself or a one-letter alias; shard states store the
// alias, the catalog stores the name).
func trimAlias(alias string) string {
	switch alias {
	case "s":
		return "sales"
	case "p":
		return "products"
	}
	return alias
}

// randShardTable draws a table whose first column is clustered (the case
// zone pruning exploits) and whose others are uniform / low-cardinality,
// and a random predicate over it.
func randShardTable(seed uint64, name string, rows int) (*catalog.Table, plan.Expr) {
	r := xrand.New(seed)
	tb := catalog.NewTable(name)
	a := tb.AddCol("a", catalog.TInt)
	b := tb.AddCol("b", catalog.TInt)
	cc := tb.AddCol("c", catalog.TInt)
	var hi int64
	for i := 0; i < rows; i++ {
		hi += r.Int64Range(0, 3)
		a.Data = append(a.Data, hi)
		b.Data = append(b.Data, r.Int64Range(-1000, 1000))
		cc.Data = append(cc.Data, r.Int64Range(0, 16))
	}
	return tb, randPred(r, hi, 3)
}

// randPred generates a random predicate tree over the pts columns:
// comparisons (sometimes over column arithmetic) joined by AND/OR.
func randPred(r *xrand.Rand, maxA int64, depth int) plan.Expr {
	if depth <= 0 || r.Intn(3) == 0 {
		cols := []string{"a", "b", "c"}
		name := cols[r.Intn(len(cols))]
		var lhs plan.Expr = plan.Col(name)
		if r.Bool(0.25) {
			k := plan.Num(r.Int64Range(1, 5))
			switch r.Intn(3) {
			case 0:
				lhs = &plan.Bin{Op: plan.OpAdd, L: lhs, R: k}
			case 1:
				lhs = &plan.Bin{Op: plan.OpSub, L: lhs, R: k}
			default:
				lhs = &plan.Bin{Op: plan.OpMul, L: lhs, R: k}
			}
		}
		lo, hi := int64(-1200), maxA+200
		ops := []plan.BinOp{plan.OpEq, plan.OpNe, plan.OpLt, plan.OpLe, plan.OpGt, plan.OpGe}
		return &plan.Bin{Op: ops[r.Intn(len(ops))], L: lhs, R: plan.Num(r.Int64Range(lo, hi))}
	}
	op := plan.OpAnd
	if r.Bool(0.5) {
		op = plan.OpOr
	}
	return &plan.Bin{Op: op, L: randPred(r, maxA, depth-1), R: randPred(r, maxA, depth-1)}
}

// TestShardPruningProperty is the soundness property test: on random
// clustered data and random predicates, every trial's pruned and unpruned
// runs return exactly the rows of the interpreted reference, and the
// unpruned run skips nothing. Over the trial budget, pruning must actually
// fire (otherwise the test is vacuous) — the interval evaluator's job is
// to prune aggressively *and* provably.
func TestShardPruningProperty(t *testing.T) {
	var prunedZones, totalZones int
	l := shardPruningProperty()
	l.each = func(t *testing.T, r latticeRun) {
		if !r.c.opts.ShardPruning {
			if n := len(core.Skips(r.res.ShardStates)); n != 0 {
				t.Fatalf("%s at %v: %d zones skipped with pruning off", r.st.name, r.c, n)
			}
			return
		}
		for _, st := range r.res.ShardStates {
			for _, z := range st.Zones {
				totalZones++
				if z.Cause != "" {
					prunedZones++
				}
			}
		}
	}
	l.run(t)
	if prunedZones == 0 {
		t.Fatalf("no zone pruned in %d random trials (%d zones seen) — property test is vacuous", len(l.src.stmts), totalZones)
	}
	t.Logf("pruned %d of %d zones across %d trials", prunedZones, totalZones, len(l.src.stmts))
}

// shardPruningProperty spreads 30 random tables of 12,000 rows, one
// random predicate each, over the six Workers {0,2} x Shards {1,3,4}
// combinations; each runs pruned and unpruned.
func shardPruningProperty() *lattice {
	const trials, rows = 30, 12000
	src := source{opts: knobs(0, 256, 0, false), build: func() *catalog.Catalog {
		c := catalog.New()
		for i := 0; i < trials; i++ {
			tb, _ := randShardTable(40604067+uint64(i), fmt.Sprintf("pts%d", i), rows)
			c.Add(tb)
		}
		return c
	}}
	for i := 0; i < trials; i++ {
		name := fmt.Sprintf("pts%d", i)
		src.stmts = append(src.stmts, stmt{name: name, compile: func(c *Compiler) (*Compiled, error) {
			_, pred := randShardTable(40604067+uint64(i), name, rows)
			return c.CompileQuery(&plan.Query{
				Tables: []plan.TableRef{{Name: name}},
				Where:  []plan.Expr{pred},
				Select: []plan.SelectItem{
					{Expr: &plan.Agg{Fn: plan.AggSum, Arg: plan.Col("a")}, Alias: "sa"},
					{Expr: &plan.Agg{Fn: plan.AggSum, Arg: plan.Col("b")}, Alias: "sb"},
					{Expr: &plan.Agg{Fn: plan.AggSum, Arg: &plan.Bin{
						Op: plan.OpMul, L: plan.Col("b"), R: plan.Col("c"),
					}}, Alias: "sbc"},
					{Expr: &plan.Agg{Fn: plan.AggCount}, Alias: "n"},
				},
				Limit: -1,
			})
		}})
	}
	return &lattice{src: src, axes: []axis{workersAxis(0, 2), shardsAxis(1, 3, 4), pruningAxis}, full: 3, spread: true, name: noSubtest}
}

// selectiveScanQuery is the 90%-prunable workload of the scaling gate: a
// projection over lineitem with a compound filter — a range conjunct on
// the clustered l_orderkey below its 10th percentile (prunes ~90% of
// zones from bounds alone) and a sparse equality on l_quantity (keeps the
// surviving output, and therefore the irreducible per-result work, tiny).
// Prunability and selectivity are deliberately decoupled: zone pruning
// removes whole-zone *scan* work, so the gate workload's residual cost
// must be scan-shaped, not output-shaped.
func selectiveScanQuery(t testing.TB, cat *catalog.Catalog) *plan.Query {
	t.Helper()
	tb, err := cat.Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	st := tb.ColStats("l_orderkey")
	cut := st.Min + (st.Max-st.Min)/10
	return &plan.Query{
		Tables: []plan.TableRef{{Name: "lineitem"}},
		Where: []plan.Expr{
			plan.Lt(plan.Col("l_orderkey"), plan.Num(cut)),
			plan.Eq(plan.Col("l_quantity"), plan.Num(13)),
		},
		Select: []plan.SelectItem{
			{Expr: plan.Col("l_orderkey")},
			{Expr: plan.Col("l_extendedprice")},
		},
		Limit: -1,
	}
}

// gateCatalog is the scaling gate's dataset: larger than the unit-test
// fixture so per-query constants (prelude, merge rounds, group-scan
// sweeps) don't mask the scan-proportional work the gate measures.
func gateCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	return datagen.Generate(datagen.Config{ScaleFactor: 0.2, Seed: 7})
}

// TestShardScalingGate is the CI gate (simulated cycles, so the numbers
// are load-bound, not host-bound):
//
//   - fig9 join: 4 shards on 4 workers with pruning vs the serial
//     unsharded baseline — parallel speedup plus zone pruning must
//     compound to >= 2x wall-clock.
//   - 90%-prunable selective scan: 4 shards with pruning vs the *same
//     worker count* unsharded — the pure pruning win must be >= 5x.
//   - sharding without pruning is attribution only and must not tax the
//     unsharded parallel wall clock.
func TestShardScalingGate(t *testing.T) {
	cat := gateCatalog(t)

	w, _ := queries.ByName("fig9")
	_, serial := runOnce(t, cat, w.Query, knobs(0, 256, 0, false), nil)
	_, sharded := runOnce(t, cat, w.Query, knobs(4, 256, 4, true), nil)
	rowsEqual(t, sharded.Rows, serial.Rows, len(w.Query.OrderBy) > 0)
	if serial.WallCycles == 0 || sharded.WallCycles == 0 {
		t.Fatal("no wall cycles")
	}
	speedup := float64(serial.WallCycles) / float64(sharded.WallCycles)
	t.Logf("fig9: serial %d cycles, 4 workers x 4 shards + pruning %d cycles — %.2fx",
		serial.WallCycles, sharded.WallCycles, speedup)
	if speedup < 2.0 {
		t.Errorf("fig9 sharded speedup %.2fx, gate requires >= 2x", speedup)
	}

	scan := selectiveScanQuery(t, cat)
	_, base := runOnce(t, cat, scan, knobs(4, 256, 0, false), nil)
	_, pruned := runOnce(t, cat, scan, knobs(4, 256, 4, true), nil)
	rowsEqual(t, pruned.Rows, base.Rows, false)
	if len(pruned.Rows) == 0 {
		t.Fatal("gate scan returned no rows — workload is degenerate")
	}
	var owned, scanned int64
	for _, st := range pruned.ShardStates {
		owned += st.Rows()
		scanned += st.Scanned()
	}
	if frac := float64(scanned) / float64(owned); frac > 0.15 {
		t.Errorf("gate scan executed %.0f%% of the table, want <= 15%% (90%%-prunable workload)", 100*frac)
	}
	scanSpeedup := float64(base.WallCycles) / float64(pruned.WallCycles)
	t.Logf("selective scan: unsharded %d cycles, pruned %d cycles — %.2fx",
		base.WallCycles, pruned.WallCycles, scanSpeedup)
	if scanSpeedup < 5.0 {
		t.Errorf("selective-scan pruning speedup %.2fx, gate requires >= 5x", scanSpeedup)
	}

	_, noPrune := runOnce(t, cat, w.Query, knobs(4, 256, 4, false), nil)
	_, unsharded := runOnce(t, cat, w.Query, knobs(4, 256, 0, false), nil)
	if tax := float64(noPrune.WallCycles) / float64(unsharded.WallCycles); tax > 1.05 {
		t.Errorf("sharding without pruning costs %.2fx the unsharded wall clock — attribution must be free", tax)
	}
}

// TestParallelBuildInsertsStayHot: a build morsel's worker-side directory
// is never read — the scatter kernel reads the arena and every merge kernel
// rebuilds its own slot range — so workers link every insert into one hot
// slot instead of loading a cold one. At fig9 with 4 workers × 4 shards the
// workers' ht_insert cycles, summed, stay within 1.5× the serial run's.
// Cycles are sampled at a period far above any one instruction's cost — an
// instruction takes at most one sample, so a short period undercounts a
// cold load — and estimated as samples × period.
func TestParallelBuildInsertsStayHot(t *testing.T) {
	cat := gateCatalog(t)
	w, _ := queries.ByName("fig9")
	cfg := pmu.Config{Event: vm.EvCycles, Period: 499}
	insert := func(workers, shards int) float64 {
		c := cfg
		_, res := runOnce(t, cat, w.Query, knobs(workers, 256, shards, shards > 0), &c)
		return res.Profile.RoutineCount[codegen.SymHTInsert] * float64(cfg.Period)
	}
	serial, sharded := insert(0, 0), insert(4, 4)
	if serial == 0 {
		t.Fatal("no ht_insert samples in the serial run")
	}
	t.Logf("fig9 ht_insert: serial ≈ %.0f cycles, 4 workers x 4 shards ≈ %.0f summed — %.2fx", serial, sharded, sharded/serial)
	if sharded > 1.5*serial {
		t.Errorf("parallel ht_insert costs %.2fx the serial run's, want <= 1.5x", sharded/serial)
	}
}

// TestShardSessionKnobs: the shard count and pruning are run knobs of the
// session, like the worker count. On a service built with Shards 4 and
// pruning on, a session switched to 8 unpruned shards keeps hitting the
// cached artifact, runs 8 shards with no skips, and returns the same rows.
func TestShardSessionKnobs(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 2
	opts.MorselRows = 256
	opts.Shards = 4
	opts.ShardPruning = true
	svc := NewService(testCatalog(t), opts, 0)
	se := svc.NewSession()

	const sql = "select l_orderkey, sum(l_quantity) as q from lineitem where l_orderkey < 120 group by l_orderkey"
	p, res, err := se.Execute(sql, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards != opts.Shards || len(core.Skips(res.ShardStates)) == 0 {
		t.Fatalf("first run: %d shards, %d skips; want %d shards and a pruned zone", res.Shards, len(core.Skips(res.ShardStates)), opts.Shards)
	}
	matchesReference(t, res.Rows, p)

	se.SetShards(8)
	se.SetShardPruning(false)
	p2, res2, err := se.Execute(sql, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !p2.CacheHit || p2.Compiled != p.Compiled {
		t.Fatal("session shard knobs must not invalidate the cache")
	}
	if res2.Shards != 8 || len(core.Skips(res2.ShardStates)) != 0 {
		t.Fatalf("after SetShards(8), SetShardPruning(false): %d shards, %d skips; want 8 shards and none", res2.Shards, len(core.Skips(res2.ShardStates)))
	}
	rowsEqual(t, res2.Rows, res.Rows, false)
}

// TestShardConcurrentSessions hammers one service from sessions that
// enable sharding with different knobs mid-flight — the -race companion
// to TestServiceConcurrentSessions. Concurrent zone-map builds (the
// catalog's lazy per-table cache) and concurrent sharded runs must not
// race, and every result must match the reference.
func TestShardConcurrentSessions(t *testing.T) {
	svc := NewService(testCatalog(t), DefaultOptions(), 0)
	sqls := []string{
		"select count(*) from lineitem where l_orderkey < 100",
		"select l_orderkey, sum(l_quantity) as qty from lineitem where l_orderkey < 200 group by l_orderkey",
		"select count(*) from orders where o_orderdate < 800",
	}
	want := make([][][]int64, len(sqls))
	warm := svc.NewSession()
	for i, sql := range sqls {
		p, err := warm.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		want[i], _ = reference(t, p)
	}

	const G = 8
	const iters = 5
	var wg sync.WaitGroup
	errs := make(chan error, G*iters)
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			se := svc.NewSession()
			se.SetWorkers(g % 3)
			se.SetMorselRows(256)
			se.SetShards(1 + g%4)
			se.SetShardPruning(g%2 == 0)
			for i := 0; i < iters; i++ {
				k := (g + i) % len(sqls)
				_, res, err := se.Execute(sqls[k], nil)
				if err != nil {
					errs <- fmt.Errorf("g%d: %s: %w", g, sqls[k], err)
					return
				}
				if !ref.SameRows(res.Rows, want[k], false) {
					errs <- fmt.Errorf("g%d: %s: rows diverge from reference", g, sqls[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestBuildContainsMatchesBuildKeys pins the semi-join membership test
// against the generated build: for every join and group-join of every
// suite plan, run on 1 and 4 workers (each merges its partitions into the
// canonical directory), pipeline.BuildContains is true exactly for the
// keys the build inserted, over every key in [min-8, max+8].
func TestBuildContainsMatchesBuildKeys(t *testing.T) {
	cat := testCatalog(t)
	checked := 0
	for _, w := range queries.Suite() {
		for _, workers := range []int{1, 4} {
			opts := DefaultOptions()
			opts.Workers = workers
			opts.MorselRows = 256
			e := New(cat, opts)
			cq, err := e.CompileQuery(w.Query)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			builds := map[plan.Node]pipeline.SinkKind{}
			plan.Walk(cq.Plan, func(n plan.Node) {
				switch n.(type) {
				case *plan.Join:
					builds[n] = pipeline.SinkJoinBuild
				case *plan.GroupJoin:
					builds[n] = pipeline.SinkGJBuild
				}
			})
			if len(builds) == 0 {
				break
			}
			res, err := e.Run(cq, nil)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", w.Name, workers, err)
			}
			heap := res.CPU.Heap
			for n, kind := range builds {
				ht := cq.Layout.HT[n]
				keyOff, ok := buildKeyOff(cq, ht, kind)
				if !ok {
					t.Fatalf("%s: build of %T has no sink", w.Name, n)
				}
				inserted := map[int64]bool{}
				cursor := codegen.HeapI64(heap, ht.Desc+codegen.HTDescCursor)
				for e := ht.Arena; e < cursor; e += ht.EntrySize {
					inserted[codegen.HeapI64(heap, e+keyOff)] = true
				}
				b := buildKeyBounds(res.CPU, ht, keyOff)
				if b.Empty() {
					continue
				}
				for k := b.Min - 8; k <= b.Max+8; k++ {
					if got := pipeline.BuildContains(heap, ht, k); got != inserted[k] {
						t.Fatalf("%s workers=%d: BuildContains(%d) = %v, inserted %v", w.Name, workers, k, got, inserted[k])
					}
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no suite plan has a join build — test is vacuous")
	}
	t.Logf("%d join builds checked", checked)
}

// extremeKeyCatalog is a probe table p of four 256-row zones joined to a
// four-row build table b on 8-byte keys. Zone 0 matches the build; zone
// 1 holds keys in [MaxInt64-3, MaxInt64] and zone 2 spans the whole int64
// range, both overlapping the build's key bounds with keys absent from
// it; zone 3 is a narrow key range inside those bounds that holds no
// build key.
func extremeKeyCatalog() *catalog.Catalog {
	const zone = 256
	build := []int64{-7, 11, 1000, math.MaxInt64 - 2}
	zones := [][]int64{
		{-7, 11, 1000},
		{math.MaxInt64 - 3, math.MaxInt64 - 1, math.MaxInt64},
		{math.MinInt64, 11, math.MaxInt64},
		{100, 110, 120},
	}
	c := catalog.New()
	b := catalog.NewTable("b")
	kb := b.AddCol("k", catalog.TInt)
	kb.Unique = true
	kb.Data = build
	b.AddCol("w", catalog.TInt).Data = []int64{1, 2, 3, 4}
	p := catalog.NewTable("p")
	kp := p.AddCol("k", catalog.TInt)
	vp := p.AddCol("v", catalog.TInt)
	for _, keys := range zones {
		for i := 0; i < zone; i++ {
			kp.Data = append(kp.Data, keys[i%len(keys)])
			vp.Data = append(vp.Data, int64(len(vp.Data)))
		}
	}
	c.Add(b)
	c.Add(p)
	return c
}

func extremeKeyQuery() *plan.Query {
	return &plan.Query{
		Tables: []plan.TableRef{{Name: "p"}, {Name: "b"}},
		Where:  []plan.Expr{plan.Eq(plan.Col("p.k"), plan.Col("b.k"))},
		Select: []plan.SelectItem{{Expr: plan.Col("v")}, {Expr: plan.Col("w")}},
		Limit:  -1,
	}
}

// TestSemiJoinExtremeKeyZones: a probe zone ending at MaxInt64 and one
// spanning the whole int64 range must neither overflow the candidate
// count nor wrap the candidate loop. The pruned run returns, well within
// the test's limit, the unpruned run's rows.
func TestSemiJoinExtremeKeyZones(t *testing.T) {
	cat := extremeKeyCatalog()
	q := extremeKeyQuery()
	if tb, err := cat.Table("p"); err != nil || tb.ColWidth(0) != 8 {
		t.Fatalf("probe key column is not 8 bytes wide (%v)", err)
	}
	opts := DefaultOptions()
	opts.Shards, opts.ShardPruning = 1, true
	e := New(cat, opts)
	cq, err := e.CompileQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	var pruned *Result
	go func() {
		var err error
		pruned, err = e.Run(cq, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Minute):
		t.Fatal("pruned run did not return within a minute")
	}
	_, plain := runOnce(t, cat, q, knobs(0, 256, 1, false), nil)
	rowsEqual(t, pruned.Rows, plain.Rows, false)
	if len(plain.Rows) == 0 {
		t.Fatal("no rows — fixture is degenerate")
	}
	for _, st := range pruned.ShardStates {
		for _, z := range st.Zones {
			if st.Alias == "p" && z.Zone < 3 && z.Cause != "" {
				t.Errorf("zone %d pruned as %q, but it holds a build key or spans too many candidates", z.Zone, z.Cause)
			}
		}
	}
}

// TestAbsentZonePruned: a narrow probe zone inside the build's key bounds
// that holds no build key is pruned with cause "absent", and the pruned
// run's rows equal the unpruned run's at every shard count.
func TestAbsentZonePruned(t *testing.T) {
	cat := extremeKeyCatalog()
	q := extremeKeyQuery()
	for _, shards := range []int{1, 2, 4, 8} {
		_, pruned := runOnce(t, cat, q, knobs(2, 256, shards, true), nil)
		_, plain := runOnce(t, cat, q, knobs(2, 256, shards, false), nil)
		rowsEqual(t, pruned.Rows, plain.Rows, false)
		causes := map[int]string{}
		for _, st := range pruned.ShardStates {
			for _, z := range st.Zones {
				if st.Alias == "p" {
					causes[z.Zone] = z.Cause
				}
			}
		}
		if causes[3] != core.SkipAbsent {
			t.Errorf("shards=%d: zone 3 has cause %q, want %q", shards, causes[3], core.SkipAbsent)
		}
	}
}
