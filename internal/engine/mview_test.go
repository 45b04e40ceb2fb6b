package engine

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/mview"
	"repro/internal/qcache"
	"repro/internal/sqlparse"
	"repro/internal/xrand"
)

// mviewCatalog builds the rewrite-soundness fixture: m(a, b, v) with a
// in [0,8), b in [0,16), v in [-100,100] — 128 possible (a,b) groups
// under `rows` base rows, so a view keyed by (a,b) is far smaller than
// its base and passes the cost gate.
func mviewCatalog(r *xrand.Rand, rows int) *catalog.Catalog {
	c := catalog.New()
	tb := catalog.NewTable("m")
	a := tb.AddCol("a", catalog.TInt)
	b := tb.AddCol("b", catalog.TInt)
	v := tb.AddCol("v", catalog.TInt)
	for i := 0; i < rows; i++ {
		a.Data = append(a.Data, r.Int64Range(0, 8))
		b.Data = append(b.Data, r.Int64Range(0, 16))
		v.Data = append(v.Data, r.Int64Range(-100, 101))
	}
	c.Add(tb)
	return c
}

// randMViewQuery draws one summarizable aggregate statement over m:
// a random group-key subset (possibly scalar), random interval, one-sided
// or equality predicates on the key columns, a random non-empty aggregate
// subset, ORDER BY covering all keys, and an occasional LIMIT.
func randMViewQuery(r *xrand.Rand) string {
	keySets := [][]string{{}, {"a"}, {"b"}, {"a", "b"}, {"b", "a"}}
	keys := keySets[r.Intn(len(keySets))]
	aggPool := []string{"sum(v) as s", "count(*) as n", "min(v) as mn", "max(v) as mx"}
	perm := r.Perm(len(aggPool))
	naggs := 1 + r.Intn(len(aggPool))

	var sel []string
	sel = append(sel, keys...)
	for _, i := range perm[:naggs] {
		sel = append(sel, aggPool[i])
	}
	var b strings.Builder
	b.WriteString("select ")
	b.WriteString(strings.Join(sel, ", "))
	b.WriteString(" from m")

	var preds []string
	for _, pc := range []struct {
		col string
		max int64
	}{{"a", 8}, {"b", 16}} {
		switch r.Intn(4) {
		case 0: // no predicate on this column
		case 1: // equality, sometimes outside the domain (empty result)
			preds = append(preds, fmt.Sprintf("%s = %d", pc.col, r.Int64Range(0, pc.max+2)))
		case 2: // range, spelled as a pair or as BETWEEN
			lo := r.Int64Range(0, pc.max)
			hi := r.Int64Range(lo, pc.max+1)
			if r.Bool(0.5) {
				preds = append(preds, fmt.Sprintf("%s between %d and %d", pc.col, lo, hi))
			} else {
				preds = append(preds, fmt.Sprintf("%s >= %d and %s <= %d", pc.col, lo, pc.col, hi))
			}
		case 3: // one-sided, the bound sometimes below the domain (negative)
			op := []string{">=", ">", "<=", "<"}[r.Intn(4)]
			preds = append(preds, fmt.Sprintf("%s %s %d", pc.col, op, r.Int64Range(-3, pc.max)))
		}
	}
	if len(preds) > 0 {
		b.WriteString(" where ")
		b.WriteString(strings.Join(preds, " and "))
	}
	if len(keys) > 0 {
		b.WriteString(" group by ")
		b.WriteString(strings.Join(keys, ", "))
		b.WriteString(" order by ")
		b.WriteString(strings.Join(keys, ", "))
		if r.Bool(0.2) {
			fmt.Fprintf(&b, " limit %d", 1+r.Intn(5))
		}
	}
	return b.String()
}

// TestMViewRewriteSoundnessProperty is the acceptance property: random
// predicates and group-key subsets, spread over the cells that pair every
// two values of Workers {0,1,4}, Shards {1,4}, Options{} or DefaultOptions,
// morsel {default,7}, {bulk-load, grown by appends the view catches up on
// incrementally} and {unpinned, pinned before further appends}, return
// through the view exactly the
// base statement's reference rows and column headers, with zero stale
// reads.
func TestMViewRewriteSoundnessProperty(t *testing.T) {
	rewrites := 0
	l := mviewRewriteSoundness()
	l.each = func(t *testing.T, r latticeRun) {
		if r.p.Rewrite != nil {
			rewrites++
		}
		if got := r.svc.Views().Fallbacks(); got != 0 {
			t.Fatalf("%d consistency fallbacks in a refresh-on-rewrite run; want 0", got)
		}
	}
	l.run(t)
	if rewrites == 0 {
		t.Fatal("property ran without a single rewrite — the harness is vacuous")
	}
	t.Logf("property: %d/%d statements served by the view", rewrites, len(l.src.stmts))
}

func mviewRewriteSoundness() *lattice {
	src := source{build: func() *catalog.Catalog { return mviewCatalog(xrand.New(0x5eed_317), 6000) },
		views: []string{"select a, b, sum(v), min(v), max(v) from m group by a, b"}}
	r := xrand.New(0x5eed_318)
	for i := 0; i < 96; i++ {
		src.stmts = append(src.stmts, stmt{name: fmt.Sprint("q", i), sql: randMViewQuery(r)})
	}
	return &lattice{src: src, axes: []axis{workersAxis(0, 1, 4), shardsAxis(1, 4), optionsAxis(Options{}, DefaultOptions()), morselAxis(0, 7),
		ingestAxis, pinnedAxis, viewsAxis.at(1)}, spread: true, name: noSubtest}
}

// TestMViewPinnedSnapshotsNeverReadStale drives the zero-stale-read
// guard through both outcomes: a snapshot pinned before an append keeps
// serving the view (its exact coverage pair stays in the ledger), and a
// snapshot pinned mid-append — base grown, view not yet refreshed —
// must transparently fall back to base execution under that very
// snapshot, never reading half-covered partials.
func TestMViewPinnedSnapshotsNeverReadStale(t *testing.T) {
	r := xrand.New(0xbad5eed)
	cat := mviewCatalog(r, 6000)
	svc := NewService(cat, Options{}, 0)
	// Lazy policy: rewrites serve only ledger-consistent snapshots and
	// never refresh on their own.
	if _, err := svc.CreateView("mv", "select a, sum(v), min(v), max(v) from m group by a", mview.RefreshLazy); err != nil {
		t.Fatal(err)
	}
	q := "select a, sum(v) as s, min(v) as mn from m group by a order by a"

	// served runs q through the rewriter and reports whether the view
	// served it; the rows must be the base statement's.
	served := func(se *Session) bool {
		t.Helper()
		p, res, err := se.Execute(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		base, err := svc.prepare(q, false)
		if err != nil {
			t.Fatal(err)
		}
		matchesReference(t, res.Rows, base)
		if p.Rewrite != nil {
			checkRewrite(t, q, svc, p, res)
		}
		return p.Rewrite != nil
	}
	se := svc.NewSession()
	se.PinSnapshot()
	if !served(se) {
		t.Fatal("fresh lazy view must serve the pinned snapshot")
	}
	// Prepared while fresh: this artifact carries the rewrite and may be
	// run against any snapshot later — that is where the guard earns it.
	pv, err := se.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if pv.Rewrite == nil {
		t.Fatal("fresh lazy view must rewrite at prepare time")
	}

	// Append under the pin: the pinned snapshot still pairs exactly, so
	// the pre-append artifact keeps serving the view with no fallback.
	if _, err := svc.Append("m", [][]int64{{1, 2, 3}, {4, 5, 6}}); err != nil {
		t.Fatal(err)
	}
	if _, err := se.Run(pv, nil); err != nil {
		t.Fatal(err)
	}
	if se.Stats().RewriteFallbacks != 0 {
		t.Fatal("no fallback expected for the pre-append snapshot")
	}
	// New prepares now see a stale lazy view and stop rewriting — lazy
	// invalidation at the prepare boundary.
	pStale, err := se.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if pStale.Rewrite != nil {
		t.Fatal("stale lazy view must stop matching new prepares")
	}

	// A session pinned mid-append sees (grown base, old view): no ledger
	// pair. Running the pre-append rewritten artifact there must fall
	// back, and its rows must equal base execution under that snapshot.
	se2 := svc.NewSession()
	se2.PinSnapshot() // mid-append: grown base, unrefreshed view
	res, err := se2.Run(pv, nil)
	if err != nil {
		t.Fatal(err)
	}
	if se2.Stats().RewriteFallbacks != 1 {
		t.Fatalf("mid-append snapshot must fall back, stats: %+v", se2.Stats())
	}
	pb, err := svc.prepare(q, false)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := se2.Run(pb, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Rows, rb.Rows) {
		t.Fatalf("fallback rows diverge from base execution:\n%v\n%v", res.Rows, rb.Rows)
	}
	if svc.Views().Fallbacks() == 0 {
		t.Fatal("manager must count the consistency fallback")
	}
	// The same Prepared falls back again, twice onto an emptied cache:
	// each time the original statement's kept fingerprint is planned and
	// compiled anew, and must serve the same rows.
	for n := 2; n <= 3; n++ {
		svc.cache.Invalidate(func(qcache.Key) bool { return true })
		again, err := se2.Run(pv, nil)
		if err != nil {
			t.Fatal(err)
		}
		if se2.Stats().RewriteFallbacks != n || !reflect.DeepEqual(again.Rows, rb.Rows) {
			t.Fatalf("fallback %d of one Prepared: stats %+v\n%v\n%v", n, se2.Stats(), again.Rows, rb.Rows)
		}
	}

	// A fallback whose re-prepare fails still spent execution time.
	bad, badRw := *pv, *pv.Rewrite
	badRw.Orig = "select nope from m"
	if badRw.orig, err = sqlparse.Normalize(badRw.Orig); err != nil {
		t.Fatal(err)
	}
	bad.Rewrite = &badRw
	se4 := svc.NewSession()
	se4.PinSnapshot()
	if _, err := se4.Run(&bad, nil); err == nil {
		t.Fatal("fallback onto an unpreparable statement must fail")
	}
	if st := se4.Stats(); st.RewriteFallbacks != 1 || st.Execute <= 0 {
		t.Fatalf("failed fallback must count and be timed, stats: %+v", st)
	}
	// Adapt's runs are execution time too: a session that only adapts
	// splits its time between Prepare and Execute like one that runs.
	se5 := svc.NewSession()
	if _, err := se5.Adapt(q, nil); err != nil {
		t.Fatal(err)
	}
	if st := se5.Stats(); st.Queries != 1 || st.Prepare <= 0 || st.Execute <= 0 {
		t.Fatalf("an Adapt-only session must time its prepare and its runs, stats: %+v", st)
	}

	// Catch the view up; the current snapshot pairs again.
	if err := svc.RefreshView("mv"); err != nil {
		t.Fatal(err)
	}
	se3 := svc.NewSession()
	se3.PinSnapshot()
	if !served(se3) {
		t.Fatal("refreshed view must serve the post-refresh snapshot")
	}
	if se3.Stats().RewriteFallbacks != 0 {
		t.Fatal("post-refresh snapshot must not fall back")
	}
}

// TestMViewQCacheKeyContract pins the cache-key contract on the view
// axis: (1) all textual variants of a query family collapse onto ONE
// rewritten artifact; (2) an in-capacity append plus incremental
// refresh keeps that artifact warm (no recompile); (3) CreateView and
// DropView change the key and force a re-decision.
func TestMViewQCacheKeyContract(t *testing.T) {
	r := xrand.New(0xcafe)
	cat := mviewCatalog(r, 6000)
	svc := NewService(cat, Options{}, 0)
	if _, err := svc.CreateView("mv", "select a, sum(v) from m group by a", mview.RefreshIncremental); err != nil {
		t.Fatal(err)
	}
	se := svc.NewSession()

	// (1) One artifact for the whole family: different constants, same
	// rewritten canon.
	family := func(lo int64) string {
		return fmt.Sprintf("select a, sum(v) as s from m where a >= %d and a <= %d group by a order by a", lo, lo+3)
	}
	p0, err := se.Prepare(family(0))
	if err != nil {
		t.Fatal(err)
	}
	if p0.Rewrite == nil {
		t.Fatal("family must rewrite")
	}
	for lo := int64(1); lo < 5; lo++ {
		p, err := se.Prepare(family(lo))
		if err != nil {
			t.Fatal(err)
		}
		if p.Rewrite == nil || !p.CacheHit {
			t.Fatalf("family member lo=%d: rewrite=%v hit=%v — want one warm artifact", lo, p.Rewrite != nil, p.CacheHit)
		}
		if p.Canon != p0.Canon {
			t.Fatalf("family canons diverge:\n%s\n%s", p.Canon, p0.Canon)
		}
	}

	// (2) In-capacity append + incremental refresh: same catalog version,
	// same view generation → warm hit, zero recompiles.
	ver := svc.Catalog().Version()
	if _, err := svc.Append("m", [][]int64{{2, 3, 50}}); err != nil {
		t.Fatal(err)
	}
	p, err := se.Prepare(family(0)) // triggers the incremental refresh, then hits
	if err != nil {
		t.Fatal(err)
	}
	if svc.Catalog().Version() != ver {
		t.Fatal("in-capacity base append + view refresh must not bump the catalog version")
	}
	if p.Rewrite == nil || !p.CacheHit {
		t.Fatalf("append within capacity must keep the rewritten artifact warm: rewrite=%v hit=%v", p.Rewrite != nil, p.CacheHit)
	}
	if _, err := se.Run(p, nil); err != nil {
		t.Fatal(err)
	}
	if se.Stats().RewriteFallbacks != 0 {
		t.Fatal("refresh-on-rewrite must leave no stale pair for an unpinned run")
	}

	// (3) Dropping the view orphans the rewrite: the next prepare of the
	// same text recompiles against the base table.
	if err := svc.DropView("mv"); err != nil {
		t.Fatal(err)
	}
	p, err = se.Prepare(family(0))
	if err != nil {
		t.Fatal(err)
	}
	if p.Rewrite != nil {
		t.Fatal("dropped view must not serve")
	}
	if p.CacheHit {
		t.Fatal("view generation changed; the cached rewritten artifact must not be served")
	}
}

// TestMViewRefreshAcrossCapacityClass: the rewriter's incremental
// refresh may push the view table past its reserved row capacity, which
// bumps the catalog version in the middle of prepare. The cache key must
// name the version AFTER that refresh — the artifact compiled for the
// old capacity cannot stage the grown table (SnapshotCapacityError).
func TestMViewRefreshAcrossCapacityClass(t *testing.T) {
	r := xrand.New(0xca9ac17)
	cat := mviewCatalog(r, 6000)
	svc := NewService(cat, Options{}, 0)
	v, err := svc.CreateView("mv", "select a, b, sum(v), count(*) from m group by a, b", mview.RefreshIncremental)
	if err != nil {
		t.Fatal(err)
	}
	mv, err := cat.Table(v.TableName)
	if err != nil {
		t.Fatal(err)
	}
	reserved := catalog.CapRowsFor(mv.Rows())
	q := "select a, sum(v) as s, count(*) as n from m group by a order by a"
	se := svc.NewSession()
	// One batch per round with a row in every (a, b) group, so each
	// refresh appends a full set of partial rows to the view table.
	var batch [][]int64
	for a := int64(0); a < 8; a++ {
		for b := int64(0); b < 16; b++ {
			batch = append(batch, []int64{a, b, 1})
		}
	}
	for round := 0; mv.Rows() <= reserved; round++ {
		if round > 2*reserved/len(batch) {
			t.Fatalf("view table stuck at %d rows, reserved %d", mv.Rows(), reserved)
		}
		if _, err := svc.Append("m", batch); err != nil {
			t.Fatal(err)
		}
		p, res, err := se.Execute(q, nil)
		if err != nil {
			t.Fatalf("round %d (view table at %d of %d rows): %v", round, mv.Rows(), reserved, err)
		}
		if p.Rewrite == nil {
			t.Fatalf("round %d: statement was not served from the view", round)
		}
		base, err := svc.prepare(q, false)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := reference(t, base); !reflect.DeepEqual(res.Rows, want) {
			t.Fatalf("round %d: view-served rows differ from the reference:\n%v\n%v", round, res.Rows, want)
		}
	}
}

// TestMViewDashboardGate is the materialized-view gate (DESIGN.md §16).
// A dashboard of 1000 per-product revenue statements with shifting
// literals is served by one registered view: every statement is
// rewritten onto one artifact with rows identical to a view-free
// service's, across a mid-phase append, with no guard fallback, at
// least 10x fewer simulated cycles. Statements no view matches pay
// exactly zero cycles for the rewriter.
func TestMViewDashboardGate(t *testing.T) {
	const dashN, taxN = 1000, 100
	cat := datagen.Generate(datagen.Config{ScaleFactor: 0.2, Seed: 7})
	opts := DefaultOptions()
	opts.Workers = 0
	svc := NewService(cat, opts, 0)
	if _, err := svc.CreateView("rev_by_prod", "select id, sum(price), count(*) from sales group by id", mview.RefreshIncremental); err != nil {
		t.Fatal(err)
	}
	se, base := svc.NewSession(), NewService(cat, opts, 0).NewSession()

	// both runs sql on the view-bearing and the view-free service and
	// returns whether it was rewritten and each side's simulated cycles.
	both := func(sql string) (bool, uint64, uint64) {
		t.Helper()
		p, got, err := se.Execute(sql, nil)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		_, want, err := base.Execute(sql, nil)
		if err != nil {
			t.Fatalf("%q on the view-free service: %v", sql, err)
		}
		rowsEqual(t, got.Rows, want.Rows, true)
		return p.Rewrite != nil, got.Stats.Cycles, want.Stats.Cycles
	}

	rewritten := 0
	var viewCycles, baseCycles uint64
	misses := svc.CacheStats().Misses
	for i := 0; i < dashN; i++ {
		if i == dashN/2 {
			tb, err := cat.Table("sales")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := svc.AppendCols("sales", datagen.AppendBatch(tb, 64, 1)); err != nil {
				t.Fatal(err)
			}
		}
		lo := 1 + i%23
		rw, vc, bc := both(fmt.Sprintf(
			"select id, sum(price) as rev, count(*) as n from sales where id >= %d and id <= %d group by id order by id",
			lo, lo+10+i%7))
		if rw {
			rewritten++
		}
		viewCycles += vc
		baseCycles += bc
	}
	artifacts := svc.CacheStats().Misses - misses
	speedup := float64(baseCycles) / float64(viewCycles)
	t.Logf("dashboard: %d/%d rewritten onto %d artifact(s), %d vs %d cycles — %.2fx",
		rewritten, dashN, artifacts, viewCycles, baseCycles, speedup)
	if rewritten != dashN || artifacts != 1 {
		t.Errorf("%d of %d dashboard statements rewritten onto %d artifacts, want all onto 1", rewritten, dashN, artifacts)
	}
	if f := svc.Views().Fallbacks(); f != 0 {
		t.Errorf("run-time consistency guard fell back %d time(s)", f)
	}
	if speedup < 10 {
		t.Errorf("dashboard speedup %.2fx, gate requires >= 10x", speedup)
	}

	rewritten, viewCycles, baseCycles = 0, 0, 0
	for i := 0; i < taxN; i++ {
		rw, vc, bc := both(fmt.Sprintf(
			"select o_custkey, sum(o_totalprice) as t from orders where o_orderkey >= %d group by o_custkey order by o_custkey",
			1+i%29))
		if rw {
			rewritten++
		}
		viewCycles += vc
		baseCycles += bc
	}
	if rewritten != 0 || viewCycles != baseCycles {
		t.Errorf("no-match statements: %d rewritten, %d cycles with views vs %d without; want 0 and exactly equal",
			rewritten, viewCycles, baseCycles)
	}
}
