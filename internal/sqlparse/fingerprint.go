package sqlparse

// Query fingerprinting: the front door of the compiled-query cache.
//
// Normalize is parse → canonicalize the AST → print. Parse is the only
// reader of statement text (and the only BETWEEN/IN desugar), the
// canonical plan.Query the only form a statement has after it, and Canon
// that query printed (plan.Query.SQL). A statement that starts life as
// an AST enters at NormalizeQuery. Canonicalizing
//
//   - folds identifiers to lower case;
//   - rebuilds AND/OR chains left-deep, drops repeated OR arms (IN lists
//     with duplicate items) and stable-sorts the top-level WHERE conjuncts
//     under a value-insensitive key, so range syntax, IN spelling,
//     predicate order and redundant parentheses do not change the
//     fingerprint — the collisions package mview relies on;
//   - lifts literals into $N parameters in print order, values alongside
//     as Args: numbers deduplicated by value (the planner matches GROUP BY
//     against SELECT textually), strings one per occurrence (each is
//     encoded by the column it faces), nothing in ORDER BY or LIMIT, and
//     nothing in a statement that already carries $N.

import (
	"hash/fnv"
	"sort"
	"strings"

	"repro/internal/plan"
)

// LitKind distinguishes lifted literal kinds.
type LitKind uint8

const (
	// LitNum is an integer literal.
	LitNum LitKind = iota
	// LitStr is a string literal (dates included; the encoding context
	// is decided by the column the parameter is compared with).
	LitStr
)

// Literal is one literal value lifted out of a statement.
type Literal struct {
	Kind LitKind
	Num  int64
	Str  string
}

// Fingerprint is the normalized identity of a statement.
type Fingerprint struct {
	// Canon is the canonical parameterized text ($N placeholders):
	// Query printed. Parse(Canon) rebuilds Query node for node.
	Canon string
	// Hash is the 64-bit FNV-1a hash of Canon.
	Hash uint64
	// Args holds the lifted literal values, indexed by parameter.
	Args []Literal
	// Query is the canonical statement, fresh per Normalize call and
	// single-goroutine: planning records each parameter's encoding
	// context in its plan.Param node in place (the same one every time),
	// so only the holder plans it — the service in its own single-flight
	// compile closure, and again whenever it re-plans a kept statement.
	Query *plan.Query
}

// Normalize computes a statement's fingerprint; its errors are Parse's.
func Normalize(src string) (*Fingerprint, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return NormalizeQuery(q), nil
}

// NormalizeQuery canonicalizes q in place and returns its fingerprint:
// Normalize for a caller that holds the statement as an AST (the view
// rewriter) and so has no text to read.
func NormalizeQuery(q *plan.Query) *Fingerprint {
	fp := &Fingerprint{Query: q}
	fold(q)
	if len(q.Where) > 0 { // the conjunction of its list; Parse's has one element
		conj := q.Where[0]
		for _, c := range q.Where[1:] {
			conj = plan.And(conj, c)
		}
		q.Where = append(q.Where[:0], canonBool(conj, true))
	}
	if q.NumParams == 0 {
		fp.lift(q)
	}
	fp.Canon = q.SQL()
	fp.Hash = Hash64(fp.Canon)
	return fp
}

// fold lower-cases every identifier of q.
func fold(q *plan.Query) {
	for i := range q.Tables {
		t := &q.Tables[i]
		t.Name, t.Alias = strings.ToLower(t.Name), strings.ToLower(t.Alias)
	}
	for i := range q.Select {
		q.Select[i].Alias = strings.ToLower(q.Select[i].Alias)
	}
	eachLeaf(q, true, func(e plan.Expr) plan.Expr {
		if c, ok := e.(*plan.ColRef); ok {
			c.Qual, c.Name = strings.ToLower(c.Qual), strings.ToLower(c.Name)
		}
		return e
	})
}

// canonBool puts a boolean expression in canonical shape: AND/OR chains
// left-deep, OR chains without repeated arms and, at the top of WHERE,
// the AND chain stable-sorted by plan.SortKey (conjunction commutes, and
// equal keys mean equal masked text, so input order may break ties).
func canonBool(e plan.Expr, top bool) plan.Expr {
	b, ok := e.(*plan.Bin)
	if !ok || b.Op != plan.OpAnd && b.Op != plan.OpOr {
		return e
	}
	var arms []plan.Expr
	seen := map[string]bool{}
	for _, a := range plan.Flatten(b.Op, []plan.Expr{e}) {
		a = canonBool(a, false)
		if b.Op == plan.OpOr {
			k := a.String()
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		arms = append(arms, a)
	}
	if top && b.Op == plan.OpAnd {
		sort.SliceStable(arms, func(i, j int) bool { return plan.SortKey(arms[i]) < plan.SortKey(arms[j]) })
	}
	e = arms[0]
	for _, a := range arms[1:] {
		e = &plan.Bin{Op: b.Op, L: e, R: a}
	}
	return e
}

// lift replaces q's literals by parameters and records their values.
func (fp *Fingerprint) lift(q *plan.Query) {
	eachLeaf(q, false, func(e plan.Expr) plan.Expr {
		var lit Literal
		switch x := e.(type) {
		case *plan.Const:
			lit = Literal{Kind: LitNum, Num: x.Val}
			for i, a := range fp.Args {
				if a == lit {
					return &plan.Param{Idx: i}
				}
			}
		case *plan.StrConst:
			lit = Literal{Kind: LitStr, Str: x.S}
		default:
			return e
		}
		fp.Args = append(fp.Args, lit)
		return &plan.Param{Idx: len(fp.Args) - 1}
	})
	q.NumParams = len(fp.Args)
}

// eachLeaf replaces every leaf of q's expressions by f(leaf), in print
// order; ORDER BY items only with tail. The zero of a unary minus
// (plan.IsNeg) is spelling, not a leaf.
func eachLeaf(q *plan.Query, tail bool, f func(plan.Expr) plan.Expr) {
	var rec func(e plan.Expr) plan.Expr
	rec = func(e plan.Expr) plan.Expr {
		switch x := e.(type) {
		case *plan.Bin:
			if !plan.IsNeg(x) {
				x.L = rec(x.L)
			}
			x.R = rec(x.R)
		case *plan.Agg:
			if x.Arg != nil {
				x.Arg = rec(x.Arg)
			}
		default:
			return f(e)
		}
		return e
	}
	for i := range q.Select {
		q.Select[i].Expr = rec(q.Select[i].Expr)
	}
	for i := range q.Where {
		q.Where[i] = rec(q.Where[i])
	}
	for i := range q.GroupBy {
		q.GroupBy[i] = rec(q.GroupBy[i])
	}
	for i := 0; tail && i < len(q.OrderBy); i++ {
		q.OrderBy[i].Expr = rec(q.OrderBy[i].Expr)
	}
}

// Hash64 is the 64-bit FNV-1a hash of a canonical text. Normalize uses
// it for statement fingerprints; the cardinality-history cache (package
// cost) uses it to key observations by canonical plan-expression text, so
// both identity domains share one hash function and one collision story.
func Hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
