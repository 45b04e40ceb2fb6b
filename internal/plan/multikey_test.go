package plan

import (
	"testing"

	"repro/internal/catalog"
)

func TestTwoKeyGroupByPlan(t *testing.T) {
	out := plan1(t, &Query{
		Tables: []TableRef{{Name: "orders"}},
		Select: []SelectItem{
			{Expr: Col("o_custkey")},
			{Expr: Col("o_orderdate")},
			{Expr: &Agg{Fn: AggCount}, Alias: "n"},
		},
		GroupBy: []Expr{Col("o_custkey"), Col("o_orderdate")},
		Limit:   -1,
	})
	g, ok := out.Input.(*GroupBy)
	if !ok {
		t.Fatalf("input is %T", out.Input)
	}
	if len(g.Keys) != 2 || len(g.KeyMetas) != 2 {
		t.Fatalf("keys = %d", len(g.Keys))
	}
	// Output schema: key0, key1, then the aggregate.
	outCols := g.Out()
	if outCols[0].Name != "o_custkey" || outCols[1].Name != "o_orderdate" {
		t.Fatalf("key metas: %+v", outCols[:2])
	}
	// Select mapping: positions 0, 1, then agg at 2.
	for i, want := range []int{0, 1, 2} {
		if out.Exprs[i].(*PCol).Pos != want {
			t.Fatalf("select item %d mapped to %d", i, out.Exprs[i].(*PCol).Pos)
		}
	}
}

func TestTwoKeySelectOrderIndependent(t *testing.T) {
	// Select list order differs from GROUP BY order.
	out := plan1(t, &Query{
		Tables: []TableRef{{Name: "orders"}},
		Select: []SelectItem{
			{Expr: &Agg{Fn: AggCount}, Alias: "n"},
			{Expr: Col("o_orderdate")},
			{Expr: Col("o_custkey")},
		},
		GroupBy: []Expr{Col("o_custkey"), Col("o_orderdate")},
		Limit:   -1,
	})
	// agg → pos 2; o_orderdate → key index 1; o_custkey → key index 0.
	if out.Exprs[0].(*PCol).Pos != 2 || out.Exprs[1].(*PCol).Pos != 1 || out.Exprs[2].(*PCol).Pos != 0 {
		t.Fatalf("mapping: %v %v %v", out.Exprs[0], out.Exprs[1], out.Exprs[2])
	}
}

func TestNoGroupJoinFusionWithTwoKeys(t *testing.T) {
	out := plan1(t, &Query{
		Tables: []TableRef{{Name: "lineitem"}, {Name: "orders"}},
		Where:  []Expr{Eq(Col("o_orderkey"), Col("l_orderkey"))},
		Select: []SelectItem{
			{Expr: Col("l_orderkey")},
			{Expr: Col("o_custkey")},
			{Expr: &Agg{Fn: AggCount}, Alias: "n"},
		},
		GroupBy: []Expr{Col("l_orderkey"), Col("o_custkey")},
		Limit:   -1,
	})
	if _, fused := out.Input.(*GroupJoin); fused {
		t.Fatal("two-key aggregation must not fuse into a groupjoin")
	}
}

func TestRowCompareDictCollation(t *testing.T) {
	d := catalog.NewDict()
	// Insertion order deliberately differs from lexicographic order.
	z := d.ID("zebra")
	a := d.ID("apple")
	metas := []ColMeta{{Type: catalog.TStr, Dict: d}}
	compare := RowCompare([]int{0}, []bool{false}, metas)
	if compare([]int64{a}, []int64{z}) >= 0 {
		t.Fatal("apple should sort before zebra despite larger dict id")
	}
	if compare([]int64{z}, []int64{a}) <= 0 {
		t.Fatal("zebra before apple?")
	}
	// Descending flips it.
	desc := RowCompare([]int{0}, []bool{true}, metas)
	if desc([]int64{z}, []int64{a}) >= 0 {
		t.Fatal("descending collation broken")
	}
	if compare([]int64{a}, []int64{a}) != 0 {
		t.Fatal("a row must compare equal to itself")
	}
}

func TestRowCompareNumericTieBreak(t *testing.T) {
	metas := []ColMeta{{Type: catalog.TInt}, {Type: catalog.TInt}}
	compare := RowCompare([]int{0, 1}, []bool{false, true}, metas)
	if compare([]int64{1, 5}, []int64{2, 5}) >= 0 || compare([]int64{2, 5}, []int64{1, 5}) <= 0 {
		t.Fatal("primary ascending broken")
	}
	if compare([]int64{1, 9}, []int64{1, 5}) >= 0 || compare([]int64{1, 5}, []int64{1, 9}) <= 0 {
		t.Fatal("secondary descending broken")
	}
	if compare([]int64{1, 5}, []int64{1, 5}) != 0 {
		t.Fatal("equal rows must compare equal")
	}
}
