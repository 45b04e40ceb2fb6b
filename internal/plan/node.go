package plan

import (
	"cmp"
	"fmt"
	"strings"

	"repro/internal/catalog"
)

// ColMeta describes one output column of an operator.
type ColMeta struct {
	Qual, Name string
	Type       catalog.Type
	Dict       *catalog.Dict
}

// Label renders the column name for reports.
func (c ColMeta) Label() string {
	if c.Qual == "" {
		return c.Name
	}
	return c.Qual + "." + c.Name
}

// Node is a dataflow-graph operator.
type Node interface {
	// Out is the operator's output row schema.
	Out() []ColMeta
	// Children returns input operators (build side first for joins).
	Children() []Node
	// EstRows is the optimizer's cardinality estimate.
	EstRows() float64
	// BoundRows is a safe upper bound used to size hash-table arenas.
	BoundRows() int
	// Kind is a short operator-kind label ("tablescan", "hash join", ...).
	Kind() string
	// Describe renders the operator for plan displays.
	Describe() string
}

// Scan reads a base table with an optional pushed-down filter.
type Scan struct {
	Table  *catalog.Table
	Alias  string
	Filter PExpr // conjunction over positions in the scan's *output* row (indices into Cols); nil = none

	// Cols are the table column indices this scan outputs (pruned).
	Cols []int

	// RowsEst is the pre-filter row estimate (the rows the scan loop
	// visits); Est is what passes the filter.
	RowsEst, Est float64
}

func (s *Scan) Out() []ColMeta {
	out := make([]ColMeta, len(s.Cols))
	for i, ci := range s.Cols {
		c := s.Table.Cols[ci]
		out[i] = ColMeta{Qual: s.Alias, Name: c.Name, Type: c.Type, Dict: c.Dict}
	}
	return out
}
func (s *Scan) Children() []Node { return nil }
func (s *Scan) EstRows() float64 { return s.Est }

// BoundRows is the table's row *capacity*, not its current row count: the
// sizes derived from it (hash-table arenas, result buffers, column
// regions) are baked into compiled artifacts, which must keep serving
// every epoch the capacity admits while rows append underneath.
func (s *Scan) BoundRows() int { return s.Table.RowCap() }
func (s *Scan) Kind() string {
	if s.Filter != nil {
		return "tablescan+filter"
	}
	return "tablescan"
}
func (s *Scan) Describe() string {
	d := fmt.Sprintf("tablescan %s", s.Alias)
	if s.Filter != nil {
		d += fmt.Sprintf(" σ(%s)", PString(s.Filter))
	}
	return d
}

// Join is an inner hash equi-join. The build side's key must hash-match
// the probe side's key; Payload lists build-output positions carried into
// the join's output. Output schema: probe columns ++ build payload columns.
type Join struct {
	Build, Probe       Node
	BuildKey, ProbeKey PExpr
	Payload            []int // positions in Build.Out()

	// BuildUnique marks a unique build key (a catalog.Column.Unique column,
	// which the catalog keeps distinct under appends). Each probe row then
	// matches at most one build entry: it enables group-join fusion, a
	// probe that leaves its hash chain at the first match, and the output
	// bound of BoundRows.
	BuildUnique bool

	// Label distinguishes joins in reports, e.g. "join ord.".
	Label string

	Est float64
}

func (j *Join) Out() []ColMeta {
	out := append([]ColMeta{}, j.Probe.Out()...)
	b := j.Build.Out()
	for _, p := range j.Payload {
		out = append(out, b[p])
	}
	return out
}
func (j *Join) Children() []Node { return []Node{j.Build, j.Probe} }
func (j *Join) EstRows() float64 { return j.Est }

// BoundRows bounds the join's output rows. On a unique build key each
// probe row matches at most once, so the probe side's bound holds; it holds
// in every epoch, because the catalog refuses an append that would repeat a
// Unique key.
func (j *Join) BoundRows() int {
	b := j.Probe.BoundRows()
	if !j.BuildUnique {
		b *= 4 // fudge; the hash arena traps if ever exceeded
	}
	return b
}
func (j *Join) Kind() string { return "hash join" }
func (j *Join) Describe() string {
	name := j.Label
	if name == "" {
		name = "hash join"
	}
	return fmt.Sprintf("%s (%s = %s)", name, PString(j.BuildKey), PString(j.ProbeKey))
}

// AggSpec is one aggregate computed by GroupBy / GroupJoin.
type AggSpec struct {
	Fn   AggFn
	Arg  PExpr // over the input row; nil for count(*)
	Name string
}

// GroupBy is a hash aggregation with up to two grouping keys.
type GroupBy struct {
	Input    Node
	Keys     []PExpr
	KeyMetas []ColMeta
	Aggs     []AggSpec

	Est float64
}

func (g *GroupBy) Out() []ColMeta {
	out := append([]ColMeta{}, g.KeyMetas...)
	for _, a := range g.Aggs {
		out = append(out, ColMeta{Name: a.Name, Type: catalog.TInt})
	}
	return out
}
func (g *GroupBy) Children() []Node { return []Node{g.Input} }
func (g *GroupBy) EstRows() float64 { return g.Est }
func (g *GroupBy) Kind() string     { return "group by" }
func (g *GroupBy) Describe() string {
	parts := make([]string, len(g.Keys))
	for i, k := range g.Keys {
		parts[i] = PString(k)
	}
	return fmt.Sprintf("group by %s", strings.Join(parts, ", "))
}

// BoundRows bounds the number of groups: the product of the keys' domain
// bounds, capped at the input's bound. It depends only on the plan and the
// table capacities, so it holds in every epoch those capacities admit.
func (g *GroupBy) BoundRows() int { return g.groups(false) }

// DistinctGroups bounds the groups the keys' values form in the epoch the
// plan is compiled at: like BoundRows, but a scan column counts its
// distinct values (catalog.Table.ColStats) instead of the table's
// capacity. A count that reads the statistics' cap is unknown and counts
// the capacity. Later appends can exceed it, so it may size only what
// stays correct when exceeded, such as a chained directory.
func (g *GroupBy) DistinctGroups() int { return g.groups(true) }

func (g *GroupBy) groups(distinct bool) int {
	in := g.Input.BoundRows()
	b := 1
	for _, k := range g.Keys {
		switch x := k.(type) {
		case *PConst: // one value
		case *PCol:
			b = min(b*keyDomain(g.Input, x.Pos, distinct), in)
		default:
			return in
		}
	}
	return b
}

// keyDomain bounds the number of distinct values in output column pos of
// n. An inner equi-join keeps only the probe values that occur in its
// build, so its probe key has at most as many values as the build has
// rows; a build-payload column has the build's domain. With distinct set,
// a scan column's domain is its distinct count at compile time.
func keyDomain(n Node, pos int, distinct bool) int {
	switch x := n.(type) {
	case *Scan:
		if distinct {
			if d := x.Table.ColStats(x.Table.Cols[x.Cols[pos]].Name).Distinct; d < catalog.DistinctCap {
				return d
			}
		}
	case *Join:
		np := width(x.Probe)
		if pos >= np {
			return keyDomain(x.Build, x.Payload[pos-np], distinct)
		}
		d := keyDomain(x.Probe, pos, distinct)
		if pk, ok := x.ProbeKey.(*PCol); ok && pk.Pos == pos {
			d = min(d, x.Build.BoundRows())
		}
		return d
	}
	return n.BoundRows()
}

// width is len(n.Out()) without building the schema: bounds are computed
// on every compile, and a cache miss should not allocate for them.
func width(n Node) int {
	switch x := n.(type) {
	case *Scan:
		return len(x.Cols)
	case *Join:
		return width(x.Probe) + len(x.Payload)
	case *GroupBy:
		return len(x.KeyMetas) + len(x.Aggs)
	case *GroupJoin:
		return 1 + len(x.Aggs)
	}
	return len(n.Out())
}

// GroupJoin is the fused group-by + join physical operator (§5.4, [31]):
// it builds one hash table on the build side's unique key, probes with the
// probe side while updating aggregate state in place, and emits one row
// per matched key. Aggregate arguments are over the *probe* row.
type GroupJoin struct {
	Build, Probe       Node
	BuildKey, ProbeKey PExpr
	KeyMeta            ColMeta
	Aggs               []AggSpec

	Est float64
}

func (g *GroupJoin) Out() []ColMeta {
	out := []ColMeta{g.KeyMeta}
	for _, a := range g.Aggs {
		out = append(out, ColMeta{Name: a.Name, Type: catalog.TInt})
	}
	return out
}
func (g *GroupJoin) Children() []Node { return []Node{g.Build, g.Probe} }
func (g *GroupJoin) EstRows() float64 { return g.Est }
func (g *GroupJoin) BoundRows() int   { return g.Build.BoundRows() }
func (g *GroupJoin) Kind() string     { return "groupjoin" }
func (g *GroupJoin) Describe() string {
	return fmt.Sprintf("groupjoin (%s = %s)", PString(g.BuildKey), PString(g.ProbeKey))
}

// ParamInfo is the encoding context of one bound parameter: how a
// session-supplied argument value must be encoded before being staged
// into the artifact's parameter region. The zero value means "raw int64".
type ParamInfo struct {
	Type catalog.Type
	Dict *catalog.Dict
}

// Output is the plan root: final projections plus host-side order/limit.
type Output struct {
	Input Node
	Exprs []PExpr
	Names []string

	// OrderBy are output-column indices to sort by (host-side); Desc
	// flags parallel them. Limit < 0 means no limit.
	OrderBy []int
	Desc    []bool
	Limit   int

	// Params describes the plan's bound parameters ($0..$N-1); empty for
	// fully-literal plans. Execution must supply exactly len(Params)
	// values.
	Params []ParamInfo
}

func (o *Output) Out() []ColMeta {
	out := make([]ColMeta, len(o.Exprs))
	in := o.Input.Out()
	for i, e := range o.Exprs {
		m := ColMeta{Name: o.Names[i], Type: catalog.TInt}
		if c, ok := e.(*PCol); ok {
			m.Type = in[c.Pos].Type
			m.Dict = in[c.Pos].Dict
		}
		out[i] = m
	}
	return out
}
func (o *Output) Children() []Node { return []Node{o.Input} }
func (o *Output) EstRows() float64 { return o.Input.EstRows() }
func (o *Output) BoundRows() int   { return o.Input.BoundRows() }
func (o *Output) Kind() string     { return "output" }
func (o *Output) Describe() string { return "output " + strings.Join(o.Names, ", ") }

// RowCompare builds the three-way ORDER BY comparator over result rows
// (negative, zero or positive, like cmp.Compare): column indices with
// descending flags, comparing dictionary-encoded strings by their decoded
// text (SQL collation) and everything else numerically.
func RowCompare(orderBy []int, desc []bool, metas []ColMeta) func(a, b []int64) int {
	return func(x, y []int64) int {
		for k, col := range orderBy {
			a, b := x[col], y[col]
			if a == b {
				continue
			}
			c := cmp.Compare(a, b)
			if col < len(metas) && metas[col].Type == catalog.TStr && metas[col].Dict != nil {
				if c = strings.Compare(metas[col].Dict.String(a), metas[col].Dict.String(b)); c == 0 {
					continue
				}
			}
			if desc[k] {
				return -c
			}
			return c
		}
		return 0
	}
}

// Walk visits the plan tree depth-first (children before node).
func Walk(n Node, fn func(Node)) {
	for _, c := range n.Children() {
		Walk(c, fn)
	}
	fn(n)
}

// Render draws the plan tree as indented text, with an optional per-node
// annotation (the profiler annotates operator cost percentages, Fig. 9b).
func Render(n Node, annotate func(Node) string) string {
	var sb strings.Builder
	var rec func(n Node, depth int)
	rec = func(n Node, depth int) {
		ann := ""
		if annotate != nil {
			if a := annotate(n); a != "" {
				ann = " " + a
			}
		}
		fmt.Fprintf(&sb, "%s%s%s\n", strings.Repeat("  ", depth), n.Describe(), ann)
		for _, c := range n.Children() {
			rec(c, depth+1)
		}
	}
	rec(n, 0)
	return sb.String()
}
