package plan

import (
	"strings"
	"testing"

	"repro/internal/catalog"
)

// testCatalog builds a tiny schema with known statistics.
func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	c := catalog.New()

	orders := catalog.NewTable("orders")
	ok := orders.AddCol("o_orderkey", catalog.TInt)
	ok.Unique = true
	od := orders.AddCol("o_orderdate", catalog.TDate)
	oc := orders.AddCol("o_custkey", catalog.TInt)
	for i := 0; i < 100; i++ {
		ok.Data = append(ok.Data, int64(i+1))
		od.Data = append(od.Data, int64(i*10))
		oc.Data = append(oc.Data, int64(i%10+1))
	}
	c.Add(orders)

	li := catalog.NewTable("lineitem")
	lk := li.AddCol("l_orderkey", catalog.TInt)
	lp := li.AddCol("l_price", catalog.TInt)
	for i := 0; i < 400; i++ {
		lk.Data = append(lk.Data, int64(i%100+1))
		lp.Data = append(lp.Data, int64(i))
	}
	c.Add(li)

	cust := catalog.NewTable("customer")
	ck := cust.AddCol("c_custkey", catalog.TInt)
	ck.Unique = true
	seg := cust.AddCol("c_seg", catalog.TStr)
	for i := 0; i < 10; i++ {
		ck.Data = append(ck.Data, int64(i+1))
		seg.Data = append(seg.Data, seg.Dict.ID([]string{"A", "B"}[i%2]))
	}
	c.Add(cust)
	return c
}

func plan1(t *testing.T, q *Query) *Output {
	t.Helper()
	out, err := Plan(testCatalog(t), q)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSingleTableScanWithFilter(t *testing.T) {
	out := plan1(t, &Query{
		Tables: []TableRef{{Name: "orders"}},
		Where:  []Expr{Lt(Col("o_orderdate"), Num(500))},
		Select: []SelectItem{{Expr: Col("o_orderkey")}},
		Limit:  -1,
	})
	s, ok := out.Input.(*Scan)
	if !ok {
		t.Fatalf("input is %T", out.Input)
	}
	if s.Filter == nil {
		t.Fatal("filter not pushed down")
	}
	// Selectivity ~50% of 100 rows.
	if s.Est < 30 || s.Est > 70 {
		t.Fatalf("estimate = %v", s.Est)
	}
	// Pruning: only the referenced columns are scanned.
	if len(s.Cols) != 2 {
		t.Fatalf("scan cols = %v", s.Cols)
	}
}

func TestJoinBuildsOnSmallerSide(t *testing.T) {
	out := plan1(t, &Query{
		Tables: []TableRef{{Name: "orders"}, {Name: "lineitem"}},
		Where:  []Expr{Eq(Col("o_orderkey"), Col("l_orderkey"))},
		Select: []SelectItem{{Expr: Col("l_price")}},
		Limit:  -1,
	})
	j, ok := out.Input.(*Join)
	if !ok {
		t.Fatalf("input is %T", out.Input)
	}
	if j.Build.(*Scan).Table.Name != "orders" {
		t.Fatal("build side should be the smaller table")
	}
	if !j.BuildUnique {
		t.Fatal("unique build key not detected")
	}
}

func TestJoinOrderHint(t *testing.T) {
	q := &Query{
		Tables: []TableRef{{Name: "orders"}, {Name: "lineitem"}, {Name: "customer"}},
		Where: []Expr{
			Eq(Col("o_orderkey"), Col("l_orderkey")),
			Eq(Col("o_custkey"), Col("c_custkey")),
		},
		Select: []SelectItem{{Expr: Col("l_price")}},
		Hints:  Hints{ProbeBase: "lineitem", ProbeOrder: []string{"orders", "customer"}},
		Limit:  -1,
	}
	out := plan1(t, q)
	top, ok := out.Input.(*Join)
	if !ok {
		t.Fatalf("top is %T", out.Input)
	}
	if top.Build.(*Scan).Table.Name != "customer" {
		t.Fatalf("outer build = %s", top.Build.(*Scan).Table.Name)
	}
	inner := top.Probe.(*Join)
	if inner.Build.(*Scan).Table.Name != "orders" {
		t.Fatalf("inner build = %s", inner.Build.(*Scan).Table.Name)
	}
}

func TestPayloadCarriesLaterJoinKeys(t *testing.T) {
	// customer joins through orders: o_custkey must ride in the payload.
	q := &Query{
		Tables: []TableRef{{Name: "orders"}, {Name: "lineitem"}, {Name: "customer"}},
		Where: []Expr{
			Eq(Col("o_orderkey"), Col("l_orderkey")),
			Eq(Col("o_custkey"), Col("c_custkey")),
		},
		Select: []SelectItem{{Expr: Col("l_price")}},
		Hints:  Hints{ProbeBase: "lineitem", ProbeOrder: []string{"orders", "customer"}},
		Limit:  -1,
	}
	out := plan1(t, q)
	inner := out.Input.(*Join).Probe.(*Join)
	found := false
	for _, m := range inner.Out() {
		if m.Name == "o_custkey" {
			found = true
		}
	}
	if !found {
		t.Fatal("o_custkey missing from inner join output")
	}
}

func TestStringLiteralEncoding(t *testing.T) {
	out := plan1(t, &Query{
		Tables: []TableRef{{Name: "customer"}},
		Where:  []Expr{Eq(Col("c_seg"), Str("B"))},
		Select: []SelectItem{{Expr: Col("c_custkey")}},
		Limit:  -1,
	})
	s := out.Input.(*Scan)
	f := s.Filter.(*PBin)
	c := f.R.(*PConst)
	cat := testCatalog(t)
	cust, _ := cat.Table("customer")
	want, _ := cust.Col("c_seg").Dict.Lookup("B")
	if c.Val != want {
		t.Fatalf("dict encoding = %d, want %d", c.Val, want)
	}
}

func TestMissingStringEncodesImpossible(t *testing.T) {
	out := plan1(t, &Query{
		Tables: []TableRef{{Name: "customer"}},
		Where:  []Expr{Eq(Col("c_seg"), Str("NOPE"))},
		Select: []SelectItem{{Expr: Col("c_custkey")}},
		Limit:  -1,
	})
	c := out.Input.(*Scan).Filter.(*PBin).R.(*PConst)
	if c.Val != -1 {
		t.Fatalf("missing dict string encoded as %d", c.Val)
	}
}

func TestDateLiteralEncoding(t *testing.T) {
	out := plan1(t, &Query{
		Tables: []TableRef{{Name: "orders"}},
		Where:  []Expr{Lt(Col("o_orderdate"), Str("1992-01-11"))},
		Select: []SelectItem{{Expr: Col("o_orderkey")}},
		Limit:  -1,
	})
	c := out.Input.(*Scan).Filter.(*PBin).R.(*PConst)
	if c.Val != 10 {
		t.Fatalf("date encoded as %d, want 10", c.Val)
	}
}

func TestGroupByPlan(t *testing.T) {
	out := plan1(t, &Query{
		Tables:  []TableRef{{Name: "lineitem"}},
		Select:  []SelectItem{{Expr: Col("l_orderkey")}, {Expr: &Agg{Fn: AggSum, Arg: Col("l_price")}, Alias: "s"}},
		GroupBy: []Expr{Col("l_orderkey")},
		Limit:   -1,
	})
	g, ok := out.Input.(*GroupBy)
	if !ok {
		t.Fatalf("input is %T", out.Input)
	}
	if len(g.Aggs) != 1 || g.Aggs[0].Fn != AggSum {
		t.Fatalf("aggs = %+v", g.Aggs)
	}
	// Output mapping: key then agg.
	if out.Exprs[0].(*PCol).Pos != 0 || out.Exprs[1].(*PCol).Pos != 1 {
		t.Fatalf("projection mapping: %v", out.Exprs)
	}
}

func TestGlobalAggregate(t *testing.T) {
	out := plan1(t, &Query{
		Tables: []TableRef{{Name: "lineitem"}},
		Select: []SelectItem{{Expr: &Agg{Fn: AggCount}, Alias: "n"}},
		Limit:  -1,
	})
	g, ok := out.Input.(*GroupBy)
	if !ok {
		t.Fatalf("input is %T", out.Input)
	}
	if len(g.Keys) != 1 {
		t.Fatalf("global agg keys = %d", len(g.Keys))
	}
	if _, isConst := g.Keys[0].(*PConst); !isConst {
		t.Fatalf("global agg key = %T", g.Keys[0])
	}
}

func TestGroupJoinFusion(t *testing.T) {
	q := &Query{
		Tables:  []TableRef{{Name: "lineitem"}, {Name: "orders"}},
		Where:   []Expr{Eq(Col("o_orderkey"), Col("l_orderkey"))},
		Select:  []SelectItem{{Expr: Col("l_orderkey")}, {Expr: &Agg{Fn: AggSum, Arg: Col("l_price")}, Alias: "s"}},
		GroupBy: []Expr{Col("l_orderkey")},
		Limit:   -1,
	}
	out := plan1(t, q)
	if _, ok := out.Input.(*GroupJoin); !ok {
		t.Fatalf("expected group-join fusion, got %T", out.Input)
	}
	// Disabled by hint:
	q.Hints.NoGroupJoin = true
	out = plan1(t, q)
	if _, ok := out.Input.(*GroupBy); !ok {
		t.Fatalf("hint ignored, got %T", out.Input)
	}
}

func TestGroupJoinNotFusedOnNonUniqueBuild(t *testing.T) {
	// Group key = join key, but build side key (l_orderkey in lineitem
	// as build) is not unique → no fusion. Force lineitem as build by
	// making orders the probe base.
	q := &Query{
		Tables:  []TableRef{{Name: "lineitem"}, {Name: "orders"}},
		Where:   []Expr{Eq(Col("o_orderkey"), Col("l_orderkey"))},
		Select:  []SelectItem{{Expr: Col("o_orderkey")}, {Expr: &Agg{Fn: AggCount}, Alias: "n"}},
		GroupBy: []Expr{Col("o_orderkey")},
		Hints:   Hints{ProbeBase: "orders"},
		Limit:   -1,
	}
	out := plan1(t, q)
	if _, ok := out.Input.(*GroupJoin); ok {
		t.Fatal("fused despite non-unique build key")
	}
}

func TestOrderByBinding(t *testing.T) {
	out := plan1(t, &Query{
		Tables:  []TableRef{{Name: "orders"}},
		Select:  []SelectItem{{Expr: Col("o_orderkey"), Alias: "k"}, {Expr: Col("o_orderdate")}},
		OrderBy: []OrderItem{{Expr: Col("o_orderdate"), Desc: true}, {Expr: &Const{Val: 1}}},
		Limit:   5,
	})
	if len(out.OrderBy) != 2 || out.OrderBy[0] != 1 || out.OrderBy[1] != 0 {
		t.Fatalf("order by = %v", out.OrderBy)
	}
	if !out.Desc[0] || out.Desc[1] {
		t.Fatalf("desc flags = %v", out.Desc)
	}
	if out.Limit != 5 {
		t.Fatalf("limit = %d", out.Limit)
	}
}

func TestPlannerErrors(t *testing.T) {
	cases := []*Query{
		// Unknown table.
		{Tables: []TableRef{{Name: "nope"}}, Select: []SelectItem{{Expr: Col("x")}}},
		// Unknown column.
		{Tables: []TableRef{{Name: "orders"}}, Select: []SelectItem{{Expr: Col("zzz")}}},
		// Ambiguous column (both lineitem and orders have ...keys? use alias dup).
		{Tables: []TableRef{{Name: "orders", Alias: "a"}, {Name: "orders", Alias: "a"}},
			Select: []SelectItem{{Expr: Col("a.o_orderkey")}}},
		// Cross product (no join edge).
		{Tables: []TableRef{{Name: "orders"}, {Name: "customer"}},
			Select: []SelectItem{{Expr: Col("o_orderkey")}}},
		// Non-equi join predicate.
		{Tables: []TableRef{{Name: "orders"}, {Name: "lineitem"}},
			Where:  []Expr{Lt(Col("o_orderkey"), Col("l_orderkey"))},
			Select: []SelectItem{{Expr: Col("o_orderkey")}}},
		// >2 group keys.
		{Tables: []TableRef{{Name: "orders"}},
			Select:  []SelectItem{{Expr: &Agg{Fn: AggCount}}},
			GroupBy: []Expr{Col("o_orderkey"), Col("o_custkey"), Col("o_orderdate")}},
		// Select item neither key nor aggregate.
		{Tables: []TableRef{{Name: "orders"}},
			Select:  []SelectItem{{Expr: Col("o_custkey")}, {Expr: &Agg{Fn: AggCount}}},
			GroupBy: []Expr{Col("o_orderkey")}},
		// ORDER BY not in select list.
		{Tables: []TableRef{{Name: "orders"}},
			Select:  []SelectItem{{Expr: Col("o_orderkey")}},
			OrderBy: []OrderItem{{Expr: Col("o_custkey")}}},
		// Bad hint alias.
		{Tables: []TableRef{{Name: "orders"}, {Name: "lineitem"}},
			Where:  []Expr{Eq(Col("o_orderkey"), Col("l_orderkey"))},
			Select: []SelectItem{{Expr: Col("l_price")}},
			Hints:  Hints{ProbeBase: "bogus"}},
	}
	for i, q := range cases {
		if q.Limit == 0 {
			q.Limit = -1
		}
		if _, err := Plan(testCatalog(t), q); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestRenderShowsTree(t *testing.T) {
	out := plan1(t, &Query{
		Tables: []TableRef{{Name: "orders"}, {Name: "lineitem"}},
		Where:  []Expr{Eq(Col("o_orderkey"), Col("l_orderkey"))},
		Select: []SelectItem{{Expr: Col("l_price")}},
		Limit:  -1,
	})
	r := Render(out, nil)
	for _, want := range []string{"output", "join", "tablescan orders", "tablescan lineitem"} {
		if !strings.Contains(r, want) {
			t.Errorf("render missing %q:\n%s", want, r)
		}
	}
}

func TestExprStrings(t *testing.T) {
	e := And(Eq(Col("a.x"), Num(3)), Lt(Col("y"), Str("s")))
	if e.String() != "((a.x = 3) and (y < 's'))" {
		t.Fatalf("String() = %s", e.String())
	}
	a := &Agg{Fn: AggCount}
	if a.String() != "count(*)" {
		t.Fatalf("agg = %s", a.String())
	}
}

// TestGroupBoundFollowsKeys: a group-by is bounded by its keys' domains —
// a probe key by its join's build, a build-payload column by the build it
// comes from, a constant by one — and width counts every node's columns as
// Out builds them.
func TestGroupBoundFollowsKeys(t *testing.T) {
	cat := testCatalog(t)
	capOf := func(name string) int {
		tb, err := cat.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		return tb.RowCap()
	}
	for _, tc := range []struct {
		key  Expr // nil: a scalar aggregate
		want int
	}{
		{Col("l_orderkey"), capOf("orders")},
		{Col("c_seg"), capOf("customer")},
		{Col("l_price"), capOf("lineitem")},
		{nil, 1},
	} {
		q := &Query{
			Tables: []TableRef{{Name: "orders"}, {Name: "lineitem"}, {Name: "customer"}},
			Where: []Expr{
				Eq(Col("o_orderkey"), Col("l_orderkey")),
				Eq(Col("o_custkey"), Col("c_custkey")),
			},
			Select: []SelectItem{{Expr: &Agg{Fn: AggSum, Arg: Col("l_price")}, Alias: "s"}},
			Hints:  Hints{ProbeBase: "lineitem", ProbeOrder: []string{"orders", "customer"}, NoGroupJoin: true},
			Limit:  -1,
		}
		if tc.key != nil {
			q.GroupBy = []Expr{tc.key}
		}
		out, err := Plan(cat, q)
		if err != nil {
			t.Fatal(err)
		}
		g := out.Input.(*GroupBy)
		if got := g.BoundRows(); got != tc.want {
			t.Errorf("group by %v: bound %d, want %d", tc.key, got, tc.want)
		}
		Walk(out, func(n Node) {
			if got, want := width(n), len(n.Out()); got != want {
				t.Errorf("%s: width %d, Out has %d columns", n.Describe(), got, want)
			}
		})
	}
}
