package plan

import (
	"strconv"
	"strings"
)

// Statement text: one spelling — upper-case keywords, single spaces,
// parentheses only where precedence needs them, ''-escaped strings — such
// that sqlparse.Parse reading q.SQL() rebuilds a parsed q node for node. It is
// the one printer: canons, the view rewriter's Rewrite.SQL and whatever a
// tool shows a person all come from here, and no part of the system reads
// its output back.

// Binding strengths of the expression grammar, loosest first.
const (
	precOr = iota + 1
	precAnd
	precCmp
	precAdd
	precMul
	precNeg
	precAtom
)

// IsNeg reports the parser's encoding of unary minus, 0 - x; SQL prints
// it back as "- x".
func IsNeg(b *Bin) bool {
	c, ok := b.L.(*Const)
	return ok && b.Op == OpSub && c.Val == 0
}

var binPrec = [...]int{
	OpOr: precOr, OpAnd: precAnd,
	OpEq: precCmp, OpNe: precCmp, OpLt: precCmp, OpLe: precCmp, OpGt: precCmp, OpGe: precCmp,
	OpAdd: precAdd, OpSub: precAdd, OpMul: precMul, OpDiv: precMul, OpMod: precMul,
}

func prec(e Expr) int {
	b, ok := e.(*Bin)
	switch {
	case !ok:
		return precAtom
	case IsNeg(b):
		return precNeg
	}
	return binPrec[b.Op]
}

type sqlWriter struct {
	b    strings.Builder
	mask bool // literals and parameters print as "#" (SortKey)
}

func (w *sqlWriter) tok(toks ...string) {
	for _, t := range toks {
		if w.b.Len() > 0 {
			w.b.WriteByte(' ')
		}
		w.b.WriteString(t)
	}
}

// expr prints e, parenthesized if it binds looser than min.
func (w *sqlWriter) expr(e Expr, min int) {
	p := prec(e)
	if p < min {
		w.tok("(")
		w.expr(e, 0)
		w.tok(")")
		return
	}
	switch x := e.(type) {
	case *Bin:
		if p == precNeg {
			w.tok("-")
			w.expr(x.R, precAtom)
			return
		}
		l := p // operators group to the left; comparisons do not chain
		if p == precCmp {
			l++
		}
		w.expr(x.L, l)
		w.tok(strings.ToUpper(x.Op.String()))
		w.expr(x.R, p+1)
	case *Agg:
		w.tok(x.Fn.String(), "(")
		if x.Arg == nil {
			w.tok("*")
		} else {
			w.expr(x.Arg, 0)
		}
		w.tok(")")
	case *ColRef:
		if x.Qual != "" {
			w.tok(x.Qual, ".")
		}
		w.tok(x.Name)
	default: // *Const, *StrConst, *Param
		if w.mask {
			w.tok("#")
		} else {
			w.tok(e.String())
		}
	}
}

// SortKey is e as SQL prints it among the conjuncts of WHERE, with
// literals and parameters masked alike: the value-insensitive key
// conjuncts are ordered by, the same before and after literal lifting.
func SortKey(e Expr) string {
	w := sqlWriter{mask: true}
	w.expr(e, precAnd)
	return w.b.String()
}

// SQL renders the query as statement text. Hints have no spelling.
func (q *Query) SQL() string {
	var w sqlWriter
	w.b.Grow(128)
	for i, it := range q.Select {
		w.tok(sep(i, "SELECT"))
		w.expr(it.Expr, 0)
		if it.Alias != "" {
			w.tok("AS", it.Alias)
		}
	}
	for i, t := range q.Tables {
		w.tok(sep(i, "FROM"), t.Name)
		if t.Alias != "" {
			w.tok(t.Alias)
		}
	}
	if len(q.Where) > 0 {
		conj := q.Where[0]
		for _, c := range q.Where[1:] {
			conj = And(conj, c)
		}
		w.tok("WHERE")
		w.expr(conj, 0)
	}
	for i, g := range q.GroupBy {
		w.tok(sep(i, "GROUP BY"))
		w.expr(g, 0)
	}
	for i, o := range q.OrderBy {
		w.tok(sep(i, "ORDER BY"))
		w.expr(o.Expr, 0)
		if o.Desc {
			w.tok("DESC")
		}
	}
	if q.Limit >= 0 {
		w.tok("LIMIT", strconv.Itoa(q.Limit))
	}
	return w.b.String()
}

// sep introduces item i of a clause: the keyword first, a comma after.
func sep(i int, keyword string) string {
	if i == 0 {
		return keyword
	}
	return ","
}
