package ref

import (
	"reflect"
	"testing"

	"repro/internal/catalog"
	"repro/internal/plan"
)

func scanOf(t *testing.T, rows [][2]int64) *plan.Scan {
	t.Helper()
	tb := catalog.NewTable("t")
	a := tb.AddCol("a", catalog.TInt)
	b := tb.AddCol("b", catalog.TInt)
	for _, r := range rows {
		a.Data = append(a.Data, r[0])
		b.Data = append(b.Data, r[1])
	}
	return &plan.Scan{Table: tb, Alias: "t", Cols: []int{0, 1}}
}

func TestScanFilter(t *testing.T) {
	s := scanOf(t, [][2]int64{{1, 10}, {2, 20}, {3, 30}})
	s.Filter = &plan.PBin{Op: plan.OpGt, L: &plan.PCol{Pos: 1}, R: &plan.PConst{Val: 15}}
	out := &plan.Output{
		Input: s,
		Exprs: []plan.PExpr{&plan.PCol{Pos: 0}},
		Names: []string{"a"},
		Limit: -1,
	}
	got, err := Execute(out)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int64{{2}, {3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestJoinMultiMatch(t *testing.T) {
	build := scanOf(t, [][2]int64{{1, 100}, {1, 200}, {2, 300}})
	probe := scanOf(t, [][2]int64{{1, 7}, {2, 8}, {9, 9}})
	j := &plan.Join{
		Build: build, Probe: probe,
		BuildKey: &plan.PCol{Pos: 0}, ProbeKey: &plan.PCol{Pos: 0},
		Payload: []int{1},
	}
	out := &plan.Output{
		Input: j,
		Exprs: []plan.PExpr{&plan.PCol{Pos: 1}, &plan.PCol{Pos: 2}},
		Names: []string{"pv", "bv"},
		Limit: -1,
	}
	got, err := Execute(out)
	if err != nil {
		t.Fatal(err)
	}
	// Probe row (1,7) matches two build rows; (2,8) one; (9,9) none.
	if len(got) != 3 {
		t.Fatalf("rows = %v", got)
	}
}

func TestAggregates(t *testing.T) {
	s := scanOf(t, [][2]int64{{1, 10}, {1, 30}, {2, 5}})
	g := &plan.GroupBy{
		Input:    s,
		Keys:     []plan.PExpr{&plan.PCol{Pos: 0}},
		KeyMetas: []plan.ColMeta{{Name: "k"}},
		Aggs: []plan.AggSpec{
			{Fn: plan.AggSum, Arg: &plan.PCol{Pos: 1}, Name: "s"},
			{Fn: plan.AggAvg, Arg: &plan.PCol{Pos: 1}, Name: "a"},
			{Fn: plan.AggMin, Arg: &plan.PCol{Pos: 1}, Name: "mn"},
			{Fn: plan.AggMax, Arg: &plan.PCol{Pos: 1}, Name: "mx"},
			{Fn: plan.AggCount, Name: "c"},
		},
	}
	out := &plan.Output{
		Input: g,
		Exprs: []plan.PExpr{
			&plan.PCol{Pos: 0}, &plan.PCol{Pos: 1}, &plan.PCol{Pos: 2},
			&plan.PCol{Pos: 3}, &plan.PCol{Pos: 4}, &plan.PCol{Pos: 5},
		},
		Names:   []string{"k", "s", "a", "mn", "mx", "c"},
		OrderBy: []int{0},
		Desc:    []bool{false},
		Limit:   -1,
	}
	got, err := Execute(out)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int64{
		{1, 40, 20, 10, 30, 2},
		{2, 5, 5, 5, 5, 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestOrderByDescAndLimit(t *testing.T) {
	s := scanOf(t, [][2]int64{{1, 10}, {2, 30}, {3, 20}})
	out := &plan.Output{
		Input:   s,
		Exprs:   []plan.PExpr{&plan.PCol{Pos: 0}, &plan.PCol{Pos: 1}},
		Names:   []string{"a", "b"},
		OrderBy: []int{1},
		Desc:    []bool{true},
		Limit:   2,
	}
	got, err := Execute(out)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int64{{2, 30}, {3, 20}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestDivisionByZeroError(t *testing.T) {
	s := scanOf(t, [][2]int64{{1, 0}})
	out := &plan.Output{
		Input: s,
		Exprs: []plan.PExpr{&plan.PBin{Op: plan.OpDiv, L: &plan.PCol{Pos: 0}, R: &plan.PCol{Pos: 1}}},
		Names: []string{"q"},
		Limit: -1,
	}
	if _, err := Execute(out); err == nil {
		t.Fatal("expected division error")
	}
}

func TestBooleanOperators(t *testing.T) {
	s := scanOf(t, [][2]int64{{1, 0}, {0, 1}, {1, 1}, {0, 0}})
	s.Filter = &plan.PBin{Op: plan.OpAnd, L: &plan.PCol{Pos: 0}, R: &plan.PCol{Pos: 1}}
	out := &plan.Output{
		Input: s,
		Exprs: []plan.PExpr{&plan.PCol{Pos: 0}},
		Names: []string{"a"},
		Limit: -1,
	}
	got, err := Execute(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("AND filter kept %d rows", len(got))
	}
}

func TestSameRows(t *testing.T) {
	a := [][]int64{{1, 2}, {3, 4}, {3, 4}}
	cases := []struct {
		name      string
		got, want [][]int64
		ordered   bool
		same      bool
	}{
		{"identical ordered", a, [][]int64{{1, 2}, {3, 4}, {3, 4}}, true, true},
		{"permuted ordered", a, [][]int64{{3, 4}, {1, 2}, {3, 4}}, true, false},
		{"permuted unordered", a, [][]int64{{3, 4}, {1, 2}, {3, 4}}, false, true},
		{"length mismatch", a, [][]int64{{1, 2}, {3, 4}}, false, false},
		{"duplicate counts differ", a, [][]int64{{1, 2}, {1, 2}, {3, 4}}, false, false},
		{"row width differs", [][]int64{{1, 2}}, [][]int64{{1, 2, 0}}, true, false},
		{"value differs", [][]int64{{1, 2}}, [][]int64{{1, 3}}, false, false},
		{"both empty", nil, [][]int64{}, true, true},
	}
	for _, c := range cases {
		if got := SameRows(c.got, c.want, c.ordered); got != c.same {
			t.Errorf("%s: SameRows = %v, want %v", c.name, got, c.same)
		}
		if got := SameRows(c.want, c.got, c.ordered); got != c.same {
			t.Errorf("%s (swapped): SameRows = %v, want %v", c.name, got, c.same)
		}
	}
	in := [][]int64{{9}, {1}}
	if !SameRows(in, [][]int64{{1}, {9}}, false) || in[0][0] != 9 {
		t.Errorf("unordered comparison must not reorder its input: %v", in)
	}
}
