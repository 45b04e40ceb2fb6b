package mview

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/sqlparse"
)

// scanRowsModel prices a plan by the rows its scans read — the shape of
// any reasonable cost model, without importing the engine's.
func scanRowsModel(pl *plan.Output) float64 {
	var rows float64
	plan.Walk(pl, func(n plan.Node) {
		if s, ok := n.(*plan.Scan); ok {
			rows += float64(s.Table.Rows())
		}
	})
	return rows
}

// mvCatalog builds a small catalog: sales(id, price, category) with
// ids 0..9 cycling, price = row*3, category alternating Chip/Board.
func mvCatalog(t testing.TB, rows int) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	tb := catalog.NewTable("sales")
	id := tb.AddCol("id", catalog.TInt)
	price := tb.AddCol("price", catalog.TInt)
	cat := tb.AddCol("category", catalog.TStr)
	cat.Dict = catalog.NewDict()
	chip := cat.Dict.ID("Chip")
	board := cat.Dict.ID("Board")
	for i := 0; i < rows; i++ {
		id.Data = append(id.Data, int64(i%10))
		price.Data = append(price.Data, int64(i*3))
		if i%2 == 0 {
			cat.Data = append(cat.Data, chip)
		} else {
			cat.Data = append(cat.Data, board)
		}
	}
	c.Add(tb)
	return c
}

func summarizeSQL(t *testing.T, c *catalog.Catalog, sql string) *Summary {
	t.Helper()
	fp, err := sqlparse.Normalize(sql)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := Summarize(fp, c)
	if !ok {
		t.Fatalf("not summarizable: %s", sql)
	}
	return s
}

func TestSummarizeIntervals(t *testing.T) {
	c := mvCatalog(t, 40)
	s := summarizeSQL(t, c,
		"select id, sum(price) as rev from sales where id >= 2 and id < 7 and category = 'Chip' group by id order by id")
	if s.Table != "sales" {
		t.Fatalf("table %q", s.Table)
	}
	if iv := s.Preds["id"]; iv != (Interval{Lo: 2, Hi: 6}) {
		t.Fatalf("id interval %+v", iv)
	}
	// 'Chip' encodes through the shared dictionary.
	tb, _ := c.Table("sales")
	chip, _ := tb.Col("category").Dict.Lookup("Chip")
	if iv := s.Preds["category"]; iv != (Interval{Lo: chip, Hi: chip}) {
		t.Fatalf("category interval %+v", iv)
	}
	if len(s.Keys) != 1 || s.Keys[0] != "id" {
		t.Fatalf("keys %v", s.Keys)
	}
	if len(s.Aggs) != 1 || s.Aggs[0].Key != "sum(price)" {
		t.Fatalf("aggs %+v", s.Aggs)
	}
	if !s.totalOrder() {
		t.Fatal("order by id over keys [id] must be a total order")
	}
}

func TestSummarizeRejectsOutsideFragment(t *testing.T) {
	c := mvCatalog(t, 10)
	for _, sql := range []string{
		"select s.id, sum(p.id) as x from sales s, products p where s.id = p.id group by s.id", // join
		"select sum(price) as x from sales where id = 1 or id = 3 and price > 0",               // disjunction at top level is one conjunct, not an interval
		"select sum(price) as x from sales where id <> 3",                                      // anti-interval
		"select avg(price) as x from sales",                                                    // non-derivable agg
		"select price from sales",                                                              // plain scan
	} {
		fp, err := sqlparse.Normalize(sql)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := Summarize(fp, c); ok {
			t.Fatalf("summarized but should not: %s", sql)
		}
	}
}

func TestCreateBuildsSortedPartials(t *testing.T) {
	c := mvCatalog(t, 40)
	m := NewManager(c)
	v, err := m.Create("rev", "select id, sum(price), count(*) from sales group by id", RefreshIncremental)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := c.Table("__mv_rev")
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 10 {
		t.Fatalf("10 groups expected, got %d", tb.Rows())
	}
	idc := tb.Col("id").Data
	for i := 1; i < len(idc); i++ {
		if idc[i-1] >= idc[i] {
			t.Fatalf("partials not sorted by key: %v", idc)
		}
	}
	// sum(price) for id 0: rows 0,10,20,30 → 3*(0+10+20+30) = 180.
	if got := tb.Col("agg0").Data[0]; got != 180 {
		t.Fatalf("sum partial for id 0 = %d, want 180", got)
	}
	if got := tb.Col("agg1").Data[0]; got != 4 {
		t.Fatalf("count partial for id 0 = %d, want 4", got)
	}
	st := v.States()
	if len(st) != 1 || st[0].Covered != 40 || st[0].ViewRows != 10 {
		t.Fatalf("initial state %+v", st)
	}
	if m.Generation() == 0 {
		t.Fatal("Create must bump the view generation")
	}
}

func TestCreateAddsImplicitCount(t *testing.T) {
	c := mvCatalog(t, 20)
	m := NewManager(c)
	v, err := m.Create("s", "select id, sum(price) from sales group by id", RefreshLazy)
	if err != nil {
		t.Fatal(err)
	}
	aggs := v.StoredAggs()
	if len(aggs) != 2 || aggs[1].Key != "count(*)" {
		t.Fatalf("implicit count missing: %+v", aggs)
	}
}

func TestCreateRejectsOrderByAndDuplicates(t *testing.T) {
	c := mvCatalog(t, 20)
	m := NewManager(c)
	if _, err := m.Create("x", "select id, sum(price) from sales group by id order by id", RefreshLazy); err == nil {
		t.Fatal("ORDER BY in a view definition must be rejected")
	}
	if _, err := m.Create("x", "select id, sum(price) from sales group by id", RefreshLazy); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("x", "select id, count(*) from sales group by id", RefreshLazy); err == nil {
		t.Fatal("duplicate view name must be rejected")
	}
}

func rewriteSQL(t *testing.T, m *Manager, sql string) (string, bool) {
	t.Helper()
	fp, err := sqlparse.Normalize(sql)
	if err != nil {
		t.Fatal(err)
	}
	rw, ok := m.Rewrite(fp)
	if !ok {
		return "", false
	}
	return rw.SQL, true
}

func TestRewriteSubsumption(t *testing.T) {
	c := mvCatalog(t, 4000)
	m := NewManager(c)
	if _, err := m.Create("rev", "select id, sum(price), count(*), min(price) from sales group by id", RefreshIncremental); err != nil {
		t.Fatal(err)
	}

	// Contained key predicate, derivable aggregates, total order: serves.
	sql, ok := rewriteSQL(t, m, "select id, sum(price) as rev, count(*) as n from sales where id >= 2 and id <= 5 group by id order by id")
	if !ok {
		t.Fatal("expected a rewrite")
	}
	if want := "SELECT id , sum ( agg0 ) AS rev , sum ( agg1 ) AS n FROM __mv_rev WHERE id >= 2 AND id <= 5 GROUP BY id ORDER BY 1"; sql != want {
		t.Fatalf("rewritten SQL %q, want %q", sql, want)
	}

	// min rolls up as min-of-mins.
	sql, ok = rewriteSQL(t, m, "select id, min(price) as lo from sales group by id order by id")
	if !ok || !strings.Contains(sql, "min ( agg2 ) AS lo") {
		t.Fatalf("min rollup: ok=%v sql=%q", ok, sql)
	}

	// Scalar aggregate (no group keys) is order-safe.
	if _, ok = rewriteSQL(t, m, "select sum(price) as s from sales where id = 3"); !ok {
		t.Fatal("scalar aggregate must rewrite")
	}

	// BETWEEN spelling converges onto the same rewrite via Normalize.
	if _, ok = rewriteSQL(t, m, "select id, sum(price) as rev, count(*) as n from sales where id between 2 and 5 group by id order by id"); !ok {
		t.Fatal("BETWEEN spelling must rewrite too")
	}
}

func TestRewriteRefusals(t *testing.T) {
	c := mvCatalog(t, 4000)
	m := NewManager(c)
	if _, err := m.Create("chiprev", "select id, sum(price) from sales where category = 'Chip' group by id", RefreshIncremental); err != nil {
		t.Fatal(err)
	}
	refuse := []struct{ why, sql string }{
		{"missing ORDER BY (row order not total)", "select id, sum(price) as r from sales where category = 'Chip' group by id"},
		{"unaliased aggregate (header changes)", "select id, sum(price) from sales where category = 'Chip' group by id order by id"},
		{"query predicate wider than the view's", "select id, sum(price) as r from sales group by id order by id"},
		{"strict containment on a non-key column", "select id, sum(price) as r from sales where category = 'Chip' and price > 10 group by id order by id"},
		{"non-derivable aggregate", "select id, max(price) as r from sales where category = 'Chip' group by id order by id"},
		{"group key outside the view's", "select price, sum(id) as r from sales where category = 'Chip' group by price order by price"},
	}
	for _, tc := range refuse {
		if sql, ok := rewriteSQL(t, m, tc.sql); ok {
			t.Fatalf("%s: must not rewrite, got %q", tc.why, sql)
		}
	}
}

func TestRewriteZeroViewsFastPath(t *testing.T) {
	c := mvCatalog(t, 10)
	m := NewManager(c)
	fp, _ := sqlparse.Normalize("select id, sum(price) as r from sales group by id order by id")
	if _, ok := m.Rewrite(fp); ok {
		t.Fatal("no views registered")
	}
}

func TestRefreshAppendsDelta(t *testing.T) {
	c := mvCatalog(t, 40)
	m := NewManager(c)
	v, err := m.Create("rev", "select id, sum(price) from sales group by id", RefreshIncremental)
	if err != nil {
		t.Fatal(err)
	}
	// Append 20 base rows → stale; refresh re-aggregates only the delta.
	var rows [][]int64
	for i := 40; i < 60; i++ {
		rows = append(rows, []int64{int64(i % 10), int64(i * 3), 0})
	}
	if _, err := c.Append("sales", rows); err != nil {
		t.Fatal(err)
	}
	if err := m.Refresh("rev"); err != nil {
		t.Fatal(err)
	}
	st := v.States()
	last := st[len(st)-1]
	if last.Covered != 60 {
		t.Fatalf("coverage %d, want 60", last.Covered)
	}
	if last.ViewRows != 20 {
		t.Fatalf("view rows %d, want 10 old + 10 delta partials", last.ViewRows)
	}
	// Rollup over ALL partials for id 0: base 180 + delta 3*(40+50) = 450.
	tb, _ := c.Table("__mv_rev")
	var total int64
	ids := tb.Col("id").Data
	sums := tb.Col("agg0").Data
	for i := range ids {
		if ids[i] == 0 {
			total += sums[i]
		}
	}
	if total != 450 {
		t.Fatalf("rolled-up sum for id 0 = %d, want 450", total)
	}
	// Refresh with no new rows is a no-op.
	if err := m.Refresh("rev"); err != nil {
		t.Fatal(err)
	}
	if got := len(v.States()); got != len(st) {
		t.Fatalf("no-op refresh added a state: %d → %d", len(st), got)
	}
}

func TestConsistentUnder(t *testing.T) {
	c := mvCatalog(t, 40)
	m := NewManager(c)
	if _, err := m.Create("rev", "select id, sum(price) from sales group by id", RefreshIncremental); err != nil {
		t.Fatal(err)
	}
	fresh := c.Snapshot()
	if !m.ConsistentUnder(fresh, "rev") {
		t.Fatal("snapshot at build time must be consistent")
	}
	// Base grows: the new snapshot pairs 41 base rows with 10 view rows —
	// no ledger entry, so it must NOT serve.
	if _, err := c.Append("sales", [][]int64{{0, 999, 0}}); err != nil {
		t.Fatal(err)
	}
	stale := c.Snapshot()
	if m.ConsistentUnder(stale, "rev") {
		t.Fatal("grown base with unrefreshed view must be inconsistent")
	}
	// The OLD snapshot still pairs correctly (append-only refresh).
	if err := m.Refresh("rev"); err != nil {
		t.Fatal(err)
	}
	if !m.ConsistentUnder(fresh, "rev") {
		t.Fatal("pre-append snapshot must stay consistent after refresh")
	}
	if !m.ConsistentUnder(c.Snapshot(), "rev") {
		t.Fatal("post-refresh snapshot must be consistent")
	}
	if m.ConsistentUnder(stale, "rev") {
		t.Fatal("mid-append snapshot never had a matching view prefix")
	}
}

func TestDropRemovesTableAndBumpsGeneration(t *testing.T) {
	c := mvCatalog(t, 20)
	m := NewManager(c)
	if _, err := m.Create("rev", "select id, sum(price) from sales group by id", RefreshLazy); err != nil {
		t.Fatal(err)
	}
	gen := m.Generation()
	if err := m.Drop("rev"); err != nil {
		t.Fatal(err)
	}
	if m.Generation() == gen {
		t.Fatal("Drop must bump the view generation")
	}
	if _, err := c.Table("__mv_rev"); err == nil {
		t.Fatal("backing table must leave the catalog")
	}
	if m.Len() != 0 {
		t.Fatal("view still listed")
	}
	fp, _ := sqlparse.Normalize("select id, sum(price) as r from sales group by id order by id")
	if _, ok := m.Rewrite(fp); ok {
		t.Fatal("dropped view must not serve")
	}
}

func TestLazyViewStopsMatchingWhenStale(t *testing.T) {
	c := mvCatalog(t, 4000)
	m := NewManager(c)
	if _, err := m.Create("rev", "select id, sum(price) from sales group by id", RefreshLazy); err != nil {
		t.Fatal(err)
	}
	q := "select id, sum(price) as r from sales group by id order by id"
	if _, ok := rewriteSQL(t, m, q); !ok {
		t.Fatal("fresh lazy view must serve")
	}
	if _, err := c.Append("sales", [][]int64{{0, 1, 0}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := rewriteSQL(t, m, q); ok {
		t.Fatal("stale lazy view must stop matching")
	}
	if err := m.Refresh("rev"); err != nil {
		t.Fatal(err)
	}
	if _, ok := rewriteSQL(t, m, q); !ok {
		t.Fatal("refreshed lazy view must serve again")
	}
}

func TestCostGateRefusesUselessView(t *testing.T) {
	// A view keyed by a (near-)unique column is as large as its base:
	// the cost model must refuse the rewrite. The model here is a
	// simple scanned-rows estimate; the engine installs its real cycle
	// model through the same hook.
	c := catalog.New()
	tb := catalog.NewTable("sales")
	id := tb.AddCol("id", catalog.TInt)
	price := tb.AddCol("price", catalog.TInt)
	for i := 0; i < 2000; i++ {
		id.Data = append(id.Data, int64(i)) // all distinct
		price.Data = append(price.Data, int64(i*3))
	}
	c.Add(tb)
	m := NewManager(c)
	m.SetCostModel(scanRowsModel)
	if _, err := m.Create("wide", "select id, sum(price) from sales group by id", RefreshIncremental); err != nil {
		t.Fatal(err)
	}
	if sql, ok := rewriteSQL(t, m, "select id, sum(price) as r from sales group by id order by id"); ok {
		t.Fatalf("view as large as base must fail the cost gate, got %q", sql)
	}
}

// TestCostGateRevisitsVerdictAfterGrowth: the cached cost verdict is
// priced from catalog cardinalities, so it must not outlive them. A
// view refused on a tiny base (view ≈ base size) must be re-priced —
// and served — once appends grow the base past the view's group count.
func TestCostGateRevisitsVerdictAfterGrowth(t *testing.T) {
	c := catalog.New()
	tb := catalog.NewTable("sales")
	id := tb.AddCol("id", catalog.TInt)
	price := tb.AddCol("price", catalog.TInt)
	for i := 0; i < 100; i++ {
		id.Data = append(id.Data, int64(i)) // all distinct: view ≈ base
		price.Data = append(price.Data, int64(i*3))
	}
	c.Add(tb)
	m := NewManager(c)
	m.SetCostModel(scanRowsModel)
	if _, err := m.Create("byid", "select id, sum(price) from sales group by id", RefreshIncremental); err != nil {
		t.Fatal(err)
	}
	q := "select id, sum(price) as r from sales group by id order by id"
	if sql, ok := rewriteSQL(t, m, q); ok {
		t.Fatalf("view as large as base must fail the cost gate, got %q", sql)
	}
	// Grow the base 20x within the existing id domain: group count (and
	// so the view) stays ~100 rows while the base reaches ~2100.
	var rows [][]int64
	for i := 0; i < 2000; i++ {
		rows = append(rows, []int64{int64(i % 100), 7})
	}
	if _, err := c.Append("sales", rows); err != nil {
		t.Fatal(err)
	}
	if _, ok := rewriteSQL(t, m, q); !ok {
		t.Fatal("stale cost verdict pinned after base growth: rewrite still refused")
	}
}

func TestComputePartialsWindowsComposeExactly(t *testing.T) {
	// Building [0,N) in one shot and in two windows must agree after
	// rollup — the invariant incremental refresh and CheckViews rely on.
	c := mvCatalog(t, 100)
	m := NewManager(c)
	v, err := m.Create("rev", "select id, sum(price), min(price), max(price) from sales group by id", RefreshIncremental)
	if err != nil {
		t.Fatal(err)
	}
	bv := c.Snapshot().View("sales")
	whole, wg := v.ComputePartials(bv, 0, 100)
	a, _ := v.ComputePartials(bv, 0, 60)
	bcols, _ := v.ComputePartials(bv, 60, 100)
	if wg != 10 {
		t.Fatalf("groups %d", wg)
	}
	// Roll both forms up per id and compare sum/min/max/count.
	type acc struct{ sum, min, max, cnt int64 }
	roll := func(colsets ...[][]int64) map[int64]*acc {
		out := map[int64]*acc{}
		for _, cols := range colsets {
			for r := range cols[0] {
				id := cols[0][r]
				g, ok := out[id]
				if !ok {
					g = &acc{min: cols[2][r], max: cols[3][r]}
					out[id] = g
				}
				g.sum += cols[1][r]
				if cols[2][r] < g.min {
					g.min = cols[2][r]
				}
				if cols[3][r] > g.max {
					g.max = cols[3][r]
				}
				g.cnt += cols[4][r]
			}
		}
		return out
	}
	one := roll(whole)
	two := roll(a, bcols)
	for id, w := range one {
		g := two[id]
		if g == nil || *g != *w {
			t.Fatalf("id %d: windowed %+v, whole %+v", id, g, w)
		}
	}
}
