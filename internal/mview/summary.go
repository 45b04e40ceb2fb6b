// Package mview is the materialized-view manager and semantic rewriter
// on the fingerprint layer (DESIGN.md §16).
//
// A view registers the result of a single-table aggregate query as a
// columnar in-catalog table of *partial aggregates*: one row per group,
// holding the group-key values plus one accumulator column per distinct
// aggregate (sum/min/max partials and a row count). Queries whose
// predicate intervals are contained in the view's, whose group keys are
// a subset of the view's, and whose aggregates are derivable by rollup
// (SUM of SUMs, SUM of counts for COUNT, MIN of MINs, MAX of MAXs) are
// rewritten onto a re-aggregating scan of the view table — the rewritten
// statement is built as a plan.Query (this package reads text only in
// Create, where a person's DDL enters, and prints none) and flows through
// the ordinary NormalizeQuery → plan → compile stack, so attribution,
// profiling, parallel execution, and the compiled-query cache all apply
// to it unchanged.
//
// Freshness rides the epoch axis: a view records which base-row prefix
// each of its partial-row prefixes aggregates (RefreshState), refreshes
// append-only (the delta window re-aggregates into new partial rows that
// land via Catalog.AppendCols — a journaled epoch append, never an
// in-place mutation), and the engine only serves a rewrite when the
// run's snapshot pairs a base prefix with the matching view prefix.
package mview

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/sqlparse"
)

// Interval is an inclusive value interval in a column's encoded int64
// space (dictionary codes for TStr, day numbers for TDate).
type Interval struct {
	Lo, Hi int64
}

// Universe is the unconstrained interval.
var Universe = Interval{Lo: math.MinInt64, Hi: math.MaxInt64}

// Empty reports an interval that matches no value.
func (iv Interval) Empty() bool { return iv.Lo > iv.Hi }

// Contains reports qi ⊆ iv (an empty qi is contained in anything).
func (iv Interval) Contains(qi Interval) bool {
	if qi.Empty() {
		return true
	}
	return qi.Lo >= iv.Lo && qi.Hi <= iv.Hi
}

// intersect returns the intersection of two intervals (may be Empty).
func (iv Interval) intersect(o Interval) Interval {
	if o.Lo > iv.Lo {
		iv.Lo = o.Lo
	}
	if o.Hi < iv.Hi {
		iv.Hi = o.Hi
	}
	return iv
}

// AggTerm is one aggregate of a summary: the function, its (literal-
// substituted) argument expression, and a canonical key used to match a
// query aggregate against a view aggregate. count(x) canonicalizes to
// count(*) — the engine has no NULLs, so the two always agree.
type AggTerm struct {
	Fn  plan.AggFn
	Arg plan.Expr // nil for count(*)
	Key string    // canonical text, e.g. "sum(price*(100-discount))"
}

// SelKind tags a select item of a summarized query.
type SelKind uint8

const (
	// SelKey is a bare group-key column.
	SelKey SelKind = iota
	// SelAgg is a bare aggregate.
	SelAgg
)

// SelItem is one select-list entry of a summarized query.
type SelItem struct {
	Kind   SelKind
	Key    string // column name (SelKey)
	AggIdx int    // index into Summary.Aggs (SelAgg)
	Alias  string
}

// Summary is the rewriter's semantic digest of a single-table aggregate
// statement: per-column predicate intervals (conjunctive, rectangular),
// group keys, aggregates, and the output shape. Both sides of the
// subsumption check — the incoming query and each view definition — are
// summaries; anything the digest cannot represent exactly (joins,
// disjunctions, non-interval predicates, expression group keys) makes
// the statement non-summarizable and therefore never rewritten.
type Summary struct {
	Table string
	// Preds maps column name → the intersection of that column's
	// predicate intervals, in encoded value space. Columns absent from
	// the map are unconstrained.
	Preds map[string]Interval
	// Keys are the group-key column names in GROUP BY order.
	Keys []string
	// Aggs are the aggregates referenced by the select list, in first-
	// occurrence order.
	Aggs []AggTerm
	// Select is the ordered select list.
	Select []SelItem
	// OrderBy holds 0-based select-list ordinals; Desc parallels it.
	OrderBy []int
	Desc    []bool
	Limit   int // <0: none
}

// hasKey reports whether col is one of the summary's group keys.
func (s *Summary) hasKey(col string) bool {
	for _, k := range s.Keys {
		if k == col {
			return true
		}
	}
	return false
}

// aggIndex finds an aggregate by canonical key, -1 if absent.
func (s *Summary) aggIndex(key string) int {
	for i, a := range s.Aggs {
		if a.Key == key {
			return i
		}
	}
	return -1
}

// totalOrder reports whether the summary's ORDER BY pins a total order
// on the output: every group key appears among the ordered columns (two
// distinct groups always differ in some key), or the output is a single
// row (scalar aggregate). The rewriter requires this so a view-answered
// execution emits rows in exactly the base execution's order.
func (s *Summary) totalOrder() bool {
	if len(s.Keys) == 0 {
		return true
	}
	covered := map[string]bool{}
	for _, oi := range s.OrderBy {
		it := s.Select[oi]
		if it.Kind == SelKey {
			covered[it.Key] = true
		}
	}
	for _, k := range s.Keys {
		if !covered[k] {
			return false
		}
	}
	return true
}

// Summarize digests a normalized statement (canonical query plus lifted
// literal values) against the catalog. ok=false means the statement is
// outside the digest's fragment.
func Summarize(fp *sqlparse.Fingerprint, cat *catalog.Catalog) (*Summary, bool) {
	q, args := fp.Query, fp.Args
	if len(q.Tables) != 1 {
		return nil, false
	}
	alias := q.Tables[0].Name
	if a := q.Tables[0].Alias; a != "" && a != alias {
		// Aliased single tables are fine in principle, but the canonical
		// re-emission drops quals; keep the fragment qual-free.
		return nil, false
	}
	t, err := cat.Table(alias)
	if err != nil {
		return nil, false // unknown table: not ours to judge
	}
	if q.NumParams > len(args) {
		// Explicit $N placeholders without values: the rewriter needs
		// concrete literals for interval math.
		return nil, false
	}

	s := &Summary{Table: alias, Preds: map[string]Interval{}, Limit: q.Limit}

	// Predicates: top-level conjuncts of column-vs-literal comparisons.
	for _, conj := range plan.Flatten(plan.OpAnd, q.Where) {
		col, iv, ok := conjunctInterval(conj, t, alias, args)
		if !ok {
			return nil, false
		}
		if cur, exists := s.Preds[col]; exists {
			s.Preds[col] = cur.intersect(iv)
		} else {
			s.Preds[col] = iv
		}
	}

	// Group keys: bare column references.
	for _, ge := range q.GroupBy {
		cr, ok := ge.(*plan.ColRef)
		if !ok || !qualOK(cr, alias) || t.Col(cr.Name) == nil {
			return nil, false
		}
		s.Keys = append(s.Keys, cr.Name)
	}

	// Select list: bare keys and bare aggregates (mirroring the planner's
	// own grouped-select restriction).
	hasAgg := false
	for _, it := range q.Select {
		if ag, ok := it.Expr.(*plan.Agg); ok {
			hasAgg = true
			term, ok := aggTerm(ag, t, alias, args)
			if !ok {
				return nil, false
			}
			idx := s.aggIndex(term.Key)
			if idx < 0 {
				idx = len(s.Aggs)
				s.Aggs = append(s.Aggs, term)
			}
			s.Select = append(s.Select, SelItem{Kind: SelAgg, AggIdx: idx, Alias: it.Alias})
			continue
		}
		cr, ok := it.Expr.(*plan.ColRef)
		if !ok || !qualOK(cr, alias) || !s.hasKey(cr.Name) {
			return nil, false
		}
		s.Select = append(s.Select, SelItem{Kind: SelKey, Key: cr.Name, Alias: it.Alias})
	}
	if !hasAgg && len(s.Keys) == 0 {
		return nil, false // plain scan: a view of partials cannot answer it
	}

	// ORDER BY: resolve to select ordinals exactly as the planner does.
	for _, ob := range q.OrderBy {
		idx := -1
		if c, isConst := ob.Expr.(*plan.Const); isConst {
			if c.Val >= 1 && int(c.Val) <= len(q.Select) {
				idx = int(c.Val) - 1
			}
		} else {
			for i, it := range q.Select {
				if it.Expr.String() == ob.Expr.String() || (it.Alias != "" && it.Alias == ob.Expr.String()) {
					idx = i
					break
				}
			}
		}
		if idx < 0 {
			return nil, false
		}
		s.OrderBy = append(s.OrderBy, idx)
		s.Desc = append(s.Desc, ob.Desc)
	}
	return s, true
}

// qualOK accepts an unqualified column or one qualified by the single
// table's alias.
func qualOK(c *plan.ColRef, alias string) bool {
	return c.Qual == "" || c.Qual == alias
}

// conjunctInterval turns one conjunct into (column, interval) if it is a
// comparison between a column of t and a literal (or lifted parameter),
// encoded into the column's value space.
func conjunctInterval(e plan.Expr, t *catalog.Table, alias string, args []sqlparse.Literal) (string, Interval, bool) {
	b, ok := e.(*plan.Bin)
	if !ok || !b.Op.IsComparison() || b.Op == plan.OpNe {
		return "", Interval{}, false
	}
	col, colOK := colSide(b.L, alias, t)
	val, valOK := litValue(b.R, args)
	op := b.Op
	if !colOK || !valOK {
		// Flipped form: literal cmp column.
		col, colOK = colSide(b.R, alias, t)
		val, valOK = litValue(b.L, args)
		if !colOK || !valOK {
			return "", Interval{}, false
		}
		switch op {
		case plan.OpLt:
			op = plan.OpGt
		case plan.OpLe:
			op = plan.OpGe
		case plan.OpGt:
			op = plan.OpLt
		case plan.OpGe:
			op = plan.OpLe
		}
	}
	enc, ok := encodeValue(val, t.Col(col))
	if !ok {
		return "", Interval{}, false
	}
	iv := Universe
	switch op {
	case plan.OpEq:
		iv = Interval{Lo: enc, Hi: enc}
	case plan.OpLt:
		if enc == math.MinInt64 {
			return "", Interval{}, false
		}
		iv.Hi = enc - 1
	case plan.OpLe:
		iv.Hi = enc
	case plan.OpGt:
		if enc == math.MaxInt64 {
			return "", Interval{}, false
		}
		iv.Lo = enc + 1
	case plan.OpGe:
		iv.Lo = enc
	default:
		return "", Interval{}, false
	}
	return col, iv, true
}

// colSide extracts a column name when e is a (possibly qualified)
// reference to a column of t.
func colSide(e plan.Expr, alias string, t *catalog.Table) (string, bool) {
	cr, ok := e.(*plan.ColRef)
	if !ok || !qualOK(cr, alias) || t.Col(cr.Name) == nil {
		return "", false
	}
	return cr.Name, true
}

// litValue extracts a literal value: a Const, a lifted parameter
// (resolved through args), a StrConst, or a negated numeric form.
func litValue(e plan.Expr, args []sqlparse.Literal) (sqlparse.Literal, bool) {
	switch x := e.(type) {
	case *plan.Const:
		return sqlparse.Literal{Kind: sqlparse.LitNum, Num: x.Val}, true
	case *plan.StrConst:
		return sqlparse.Literal{Kind: sqlparse.LitStr, Str: x.S}, true
	case *plan.Param:
		if x.Idx < 0 || x.Idx >= len(args) {
			return sqlparse.Literal{}, false
		}
		return args[x.Idx], true
	case *plan.Bin:
		if plan.IsNeg(x) {
			if v, ok := litValue(x.R, args); ok && v.Kind == sqlparse.LitNum {
				return sqlparse.Literal{Kind: sqlparse.LitNum, Num: -v.Num}, true
			}
		}
	}
	return sqlparse.Literal{}, false
}

// encodeValue encodes a literal into a column's int64 value space, as the
// planner and EncodeParams do: numbers stay raw, strings go through
// catalog.EncodeString.
func encodeValue(v sqlparse.Literal, col *catalog.Column) (int64, bool) {
	if col == nil {
		return 0, false
	}
	if v.Kind == sqlparse.LitNum {
		return v.Num, true
	}
	enc, err := catalog.EncodeString(col.Type, col.Dict, v.Str)
	return enc, err == nil
}

// aggTerm digests one aggregate call: supported functions, literal-
// substituted argument, canonical key. avg is excluded — its rollup is
// not derivable from partials without changing the engine's integer
// division point.
func aggTerm(ag *plan.Agg, t *catalog.Table, alias string, args []sqlparse.Literal) (AggTerm, bool) {
	switch ag.Fn {
	case plan.AggSum, plan.AggMin, plan.AggMax:
		if ag.Arg == nil {
			return AggTerm{}, false
		}
		arg, ok := substitute(ag.Arg, t, alias, args)
		if !ok {
			return AggTerm{}, false
		}
		return AggTerm{Fn: ag.Fn, Arg: arg, Key: ag.Fn.String() + "(" + exprKey(arg) + ")"}, true
	case plan.AggCount:
		// count(x) ≡ count(*): no NULLs exist in the engine.
		return AggTerm{Fn: plan.AggCount, Key: "count(*)"}, true
	default:
		return AggTerm{}, false
	}
}

// substitute rewrites an aggregate argument into literal-substituted,
// qual-stripped form and validates it: column references of t, integer
// constants, and +,-,* arithmetic (division and modulo are rejected so
// the host-side build can never disagree with the generated kernels on
// truncation corner cases).
func substitute(e plan.Expr, t *catalog.Table, alias string, args []sqlparse.Literal) (plan.Expr, bool) {
	switch x := e.(type) {
	case *plan.ColRef:
		if !qualOK(x, alias) || t.Col(x.Name) == nil {
			return nil, false
		}
		return &plan.ColRef{Name: x.Name}, true
	case *plan.Const:
		return &plan.Const{Val: x.Val}, true
	case *plan.Param:
		if x.Idx < 0 || x.Idx >= len(args) || args[x.Idx].Kind != sqlparse.LitNum {
			return nil, false
		}
		return &plan.Const{Val: args[x.Idx].Num}, true
	case *plan.Bin:
		if x.Op != plan.OpAdd && x.Op != plan.OpSub && x.Op != plan.OpMul {
			return nil, false
		}
		l, ok := substitute(x.L, t, alias, args)
		if !ok {
			return nil, false
		}
		r, ok := substitute(x.R, t, alias, args)
		if !ok {
			return nil, false
		}
		return &plan.Bin{Op: x.Op, L: l, R: r}, true
	}
	return nil, false
}

// exprKey renders a substituted expression canonically (fully
// parenthesized, qual-free) for aggregate matching.
func exprKey(e plan.Expr) string {
	switch x := e.(type) {
	case *plan.ColRef:
		return strings.ToLower(x.Name)
	case *plan.Const:
		return fmt.Sprintf("%d", x.Val)
	case *plan.Bin:
		return "(" + exprKey(x.L) + x.Op.String() + exprKey(x.R) + ")"
	}
	return "?"
}

// evalExpr evaluates a substituted aggregate argument over one base row
// (cols maps column name → data prefix).
func evalExpr(e plan.Expr, cols map[string][]int64, row int) int64 {
	switch x := e.(type) {
	case *plan.ColRef:
		return cols[x.Name][row]
	case *plan.Const:
		return x.Val
	case *plan.Bin:
		l := evalExpr(x.L, cols, row)
		r := evalExpr(x.R, cols, row)
		switch x.Op {
		case plan.OpAdd:
			return l + r
		case plan.OpSub:
			return l - r
		case plan.OpMul:
			return l * r
		}
	}
	return 0
}
