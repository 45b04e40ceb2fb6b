package engine

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/ref"
	"repro/internal/sqlparse"
)

func testService(t *testing.T) *Service {
	t.Helper()
	return NewService(testCatalog(t), DefaultOptions(), 0)
}

// TestServiceSameEntryDifferentLiterals is the headline acceptance
// criterion: two structurally identical statements that differ only in
// their literals share one cache entry — the second Prepare is a hit on
// the *same artifact* — while each statement executes with its own
// bound values and gets its own (different) result.
func TestServiceSameEntryDifferentLiterals(t *testing.T) {
	svc := testService(t)
	se := svc.NewSession()

	a, err := se.Prepare("select count(*) from lineitem where l_quantity < 10")
	if err != nil {
		t.Fatal(err)
	}
	if a.CacheHit || a.Fallback {
		t.Fatalf("first prepare: hit=%v fallback=%v, want cold compile", a.CacheHit, a.Fallback)
	}
	b, err := se.Prepare("SELECT COUNT(*) FROM lineitem WHERE l_quantity < 42;")
	if err != nil {
		t.Fatal(err)
	}
	if !b.CacheHit {
		t.Fatal("second prepare with a different literal: want a cache hit")
	}
	if a.Compiled != b.Compiled {
		t.Fatal("both statements must share one compiled artifact")
	}
	if a.Fingerprint != b.Fingerprint || a.Canon != b.Canon {
		t.Fatalf("fingerprints differ: %q vs %q", a.Canon, b.Canon)
	}
	if a.State.Params[0] != 10 || b.State.Params[0] != 42 {
		t.Fatalf("params = %v / %v, want 10 / 42", a.State.Params, b.State.Params)
	}

	ra, err := se.Run(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := se.Run(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	matchesReference(t, ra.Rows, a)
	matchesReference(t, rb.Rows, b)
	if ra.Rows[0][0] >= rb.Rows[0][0] {
		t.Fatalf("count(<10)=%d should be smaller than count(<42)=%d — parameters not applied?",
			ra.Rows[0][0], rb.Rows[0][0])
	}

	st := svc.CacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats = %+v, want 1 hit / 1 miss", st)
	}
}

// TestServiceCacheHitByteIdentical: a cache-hit execution must return
// byte-identical rows to the cold compile, and — because count-event PMU
// sampling is worker-count-invariant — the hit run's heap and canonical
// profile on 4 workers must exactly match the cold run's on 1 worker.
func TestServiceCacheHitByteIdentical(t *testing.T) {
	var first *Prepared
	l := serviceCacheHit()
	l.each = func(t *testing.T, r latticeRun) {
		if first == nil && r.p.CacheHit {
			t.Fatal("cold execute reported a cache hit")
		}
		if first != nil && (!r.p.CacheHit || r.p.Compiled != first.Compiled) {
			t.Fatal("a later execute must hit the cache and serve the identical artifact")
		}
		if first == nil {
			first = r.p
		}
	}
	l.run(t)
}

func serviceCacheHit() *lattice {
	src := testSource(stmt{name: "agg", sql: "select l_orderkey, sum(l_quantity), sum(l_extendedprice) from lineitem where l_quantity < 24 group by l_orderkey"})
	return &lattice{src: src, axes: []axis{workersAxis(1, 4), eventAxis(evInstRetired)}, name: noSubtest}
}

// TestServiceFallbackMatchesReference: statements whose parameterized
// form does not plan take the uncached direct compile (Service.compileText)
// at every Execute. The normalizer leaves a literal inside ORDER BY in
// place while it lifts the SELECT copy of the same expression, and lifts a
// string literal repeated in SELECT and GROUP BY as two parameters, so the
// planner matches neither copy. Their rows must still be the reference
// executor's.
func TestServiceFallbackMatchesReference(t *testing.T) {
	se := testService(t).NewSession()
	for _, sql := range []string{
		"select l_quantity % 3, count(*) from lineitem group by l_quantity % 3 order by l_quantity % 3",
		"select l_quantity, sum(l_extendedprice * 2) from lineitem group by l_quantity order by sum(l_extendedprice * 2) desc limit 5",
		"select l_shipdate < '1995-01-01', count(*) from lineitem group by l_shipdate < '1995-01-01'",
	} {
		p, res, err := se.Execute(sql, nil)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if !p.Fallback {
			t.Errorf("%s: served from the cache; the normalizer now parameterizes it, so move it to a cached test", sql)
		}
		if len(res.Rows) == 0 {
			t.Errorf("%s: no rows", sql)
		}
		matchesReference(t, res.Rows, p)
	}
}

// TestServiceEncodedLiterals drives the per-type argument encodings end
// to end: date strings through the compared column's date parser,
// dictionary strings through its dictionary (including a miss, which must
// match zero rows), against the reference executor every time.
func TestServiceEncodedLiterals(t *testing.T) {
	svc := testService(t)
	se := svc.NewSession()
	stmts := []string{
		"select l_orderkey, count(*) from lineitem where l_shipdate < '1995-06-17' group by l_orderkey",
		"select count(*), sum(l_extendedprice) from lineitem where l_returnflag = 'R'",
		"select count(*), sum(l_extendedprice) from lineitem where l_returnflag = 'ZZZ-not-in-dict'",
	}
	for _, sql := range stmts {
		p, res, err := se.Execute(sql, nil)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if p.Fallback {
			t.Fatalf("%s: unexpected fallback", sql)
		}
		matchesReference(t, res.Rows, p)
	}
	// The date must have been encoded, not passed as 0.
	p, err := se.Prepare(stmts[0])
	if err != nil {
		t.Fatal(err)
	}
	d, err := catalog.ParseDate("1995-06-17")
	if err != nil {
		t.Fatal(err)
	}
	if p.State.Params[0] != d {
		t.Fatalf("date param = %d, want %d", p.State.Params[0], d)
	}
	// The dictionary miss must encode as -1 (no row can match).
	p, err = se.Prepare(stmts[2])
	if err != nil {
		t.Fatal(err)
	}
	if p.State.Params[0] != -1 {
		t.Fatalf("dict-miss param = %d, want -1", p.State.Params[0])
	}
}

// TestEncodeParams pins the argument-encoding rules at the unit level:
// numbers raw, dates parsed, dictionary strings resolved (miss → -1),
// strings against numeric columns rejected, and count mismatches caught.
func TestEncodeParams(t *testing.T) {
	dict := catalog.NewDict()
	rID := dict.ID("R")
	num := func(n int64) sqlparse.Literal { return sqlparse.Literal{Kind: sqlparse.LitNum, Num: n} }
	str := func(s string) sqlparse.Literal { return sqlparse.Literal{Kind: sqlparse.LitStr, Str: s} }

	d, err := catalog.ParseDate("1994-01-31")
	if err != nil {
		t.Fatal(err)
	}
	infos := []plan.ParamInfo{
		{},                               // numeric context
		{Type: catalog.TDate},            // date column
		{Type: catalog.TStr, Dict: dict}, // dictionary column, present
		{Type: catalog.TStr, Dict: dict}, // dictionary column, miss
		{Type: catalog.TStr},             // string column without dictionary
	}
	vals, err := EncodeParams(infos, []sqlparse.Literal{
		num(77), str("1994-01-31"), str("R"), str("nope"), str("whatever"),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{77, d, rID, -1, -1}
	for i := range want {
		if vals[i] != want[i] {
			t.Errorf("param %d = %d, want %d", i, vals[i], want[i])
		}
	}

	if _, err := EncodeParams(infos[:1], nil); err == nil {
		t.Error("count mismatch not rejected")
	}
	if _, err := EncodeParams([]plan.ParamInfo{{Type: catalog.TInt}},
		[]sqlparse.Literal{str("R")}); err == nil {
		t.Error("string literal against an int column not rejected")
	}
	if _, err := EncodeParams([]plan.ParamInfo{{Type: catalog.TDate}},
		[]sqlparse.Literal{str("not-a-date")}); err == nil {
		t.Error("malformed date not rejected")
	}
}

// TestServicePGOGenerationInvalidation: a profile promotes nothing. Adapt
// on a cold statement compiles it once, through the cache; the profile it
// returns starts no new generation and invalidates no entry, so the very
// next Prepare — from a *different* session — is a cache hit on that
// artifact under generation 0, and its rows match the reference.
func TestServicePGOGenerationInvalidation(t *testing.T) {
	svc := testService(t)
	se := svc.NewSession()
	const sql = "select l_orderkey, sum(l_quantity), sum(l_extendedprice) from lineitem where l_quantity < 24 group by l_orderkey"

	if _, err := se.Adapt(sql, nil); err != nil {
		t.Fatal(err)
	}
	p2, err := svc.NewSession().Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !p2.CacheHit {
		t.Fatal("prepare after Adapt must hit the cache")
	}
	fp, err := sqlparse.Normalize(sql)
	if err != nil {
		t.Fatal(err)
	}
	if gen := svc.gens.Current(fp.Hash); gen != 0 {
		t.Fatalf("Adapt started generation %d", gen)
	}
	if st := svc.CacheStats(); st.Misses != 1 || st.Invalidations != 0 {
		t.Fatalf("Adapt compiled or invalidated beyond the one miss compile: %+v", st)
	}
	res, err := se.Run(p2, nil)
	if err != nil {
		t.Fatal(err)
	}
	matchesReference(t, res.Rows, p2)
}

// TestServiceConcurrentSessions is the -race gate for the shared-artifact
// contract: many sessions, two statement shapes (one shared fingerprint
// with two different literals, plus a second query), mixed worker counts,
// all banging on the same Service. Every run must match the reference
// executor, and the two literal variants must have used one artifact.
func TestServiceConcurrentSessions(t *testing.T) {
	svc := testService(t)
	type variant struct {
		sql  string
		want [][]int64
	}
	variants := []variant{
		{sql: "select count(*) from lineitem where l_quantity < 10"},
		{sql: "select count(*) from lineitem where l_quantity < 42"},
		{sql: "select l_orderkey, sum(l_quantity) as qty from lineitem group by l_orderkey order by qty desc limit 10"},
	}
	// Precompute reference rows once (the reference executor is also the
	// arbiter of the parameter encodings).
	warm := svc.NewSession()
	for i := range variants {
		p, err := warm.Prepare(variants[i].sql)
		if err != nil {
			t.Fatal(err)
		}
		variants[i].want, _ = reference(t, p)
	}

	const G = 12
	const iters = 6
	var wg sync.WaitGroup
	errs := make(chan error, G*iters)
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			se := svc.NewSession()
			if g%2 == 1 {
				se.SetWorkers(4)
				se.SetMorselRows(256)
			}
			for i := 0; i < iters; i++ {
				v := variants[(g+i)%len(variants)]
				p, res, err := se.Execute(v.sql, nil)
				if err != nil {
					errs <- fmt.Errorf("g%d: %s: %w", g, v.sql, err)
					return
				}
				ordered := len(p.Compiled.Plan.OrderBy) > 0
				if !ref.SameRows(res.Rows, v.want, ordered) {
					errs <- fmt.Errorf("g%d: %s: rows diverge from reference", g, v.sql)
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

	// The two count(*) literal variants share one fingerprint: across the
	// warmup + G*iters executions the cache must have compiled at most
	// len(variants) artifacts (plus any adaptive noise — none here).
	if n := svc.CacheLen(); n != len(variants)-1 {
		t.Fatalf("cache holds %d artifacts, want %d (literal variants must share)",
			n, len(variants)-1)
	}
	st := svc.CacheStats()
	if st.Misses < uint64(len(variants)-1) || st.Hits == 0 {
		t.Fatalf("implausible traffic: %+v", st)
	}
}
