package plan

import "testing"

// TestQuerySQL pins the statement printer's spelling on a hand-built
// query: parentheses only where precedence needs them, unary minus for
// the parser's 0 - x, ”-escaped strings, and WHERE as the conjunction
// of its conjunct list.
func TestQuerySQL(t *testing.T) {
	a, b, c := Col("a"), Col("t.b"), Col("c")
	sub := func(l, r Expr) Expr { return &Bin{Op: OpSub, L: l, R: r} }
	mul := func(l, r Expr) Expr { return &Bin{Op: OpMul, L: l, R: r} }
	or := func(l, r Expr) Expr { return &Bin{Op: OpOr, L: l, R: r} }
	q := &Query{
		Select: []SelectItem{
			{Expr: mul(a, sub(Num(100), b)), Alias: "x"},
			{Expr: sub(sub(a, b), sub(c, Num(1)))},
			{Expr: mul(sub(Num(0), a), sub(Num(0), mul(b, c)))},
			{Expr: &Agg{Fn: AggCount}},
			{Expr: &Agg{Fn: AggSum, Arg: or(a, b)}},
		},
		Tables:  []TableRef{{Name: "t"}, {Name: "u", Alias: "v"}},
		Where:   []Expr{or(Eq(a, Str("it's")), Lt(b, &Param{Idx: 3})), And(Eq(a, b), Eq(Lt(a, b), Lt(b, c)))},
		GroupBy: []Expr{a, b},
		OrderBy: []OrderItem{{Expr: Num(2), Desc: true}, {Expr: a}},
		Limit:   7,
	}
	want := "SELECT a * ( 100 - t . b ) AS x , a - t . b - ( c - 1 ) , - a * - ( t . b * c ) , count ( * ) , sum ( a OR t . b ) " +
		"FROM t , u v " +
		"WHERE ( a = 'it''s' OR t . b < $3 ) AND ( a = t . b AND ( a < t . b ) = ( t . b < c ) ) " +
		"GROUP BY a , t . b ORDER BY 2 DESC , a LIMIT 7"
	if got := q.SQL(); got != want {
		t.Fatalf("SQL:\n got %s\nwant %s", got, want)
	}
	if got, want := SortKey(q.Where[0]), "( a = # OR t . b < # )"; got != want {
		t.Fatalf("SortKey = %q, want %q", got, want)
	}
	if got := (&Query{Select: []SelectItem{{Expr: a}}, Tables: []TableRef{{Name: "t"}}, Limit: -1}).SQL(); got != "SELECT a FROM t" {
		t.Fatalf("minimal statement prints %q", got)
	}
}
