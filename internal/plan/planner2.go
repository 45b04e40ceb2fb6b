package plan

import (
	"fmt"
)

// joinTree builds the join pipeline: one probe-side chain of hash joins,
// each building on the smaller input, unless hints force the shape
// (Fig. 10's two alternative plans).
func (p *planner) joinTree(scans map[string]*Scan, edges []joinEdge) (Node, *schema, error) {
	if len(p.aliases) == 1 {
		s := scans[p.aliases[0]]
		return s, &schema{cols: s.Out()}, nil
	}

	// Choose the probe base: forced by hint, otherwise the largest input
	// (the fact table streams through the pipeline; Umbra does the same).
	base := p.q.Hints.ProbeBase
	if base == "" {
		for _, a := range p.aliases {
			if base == "" || scans[a].Est > scans[base].Est {
				base = a
			}
		}
	} else if _, ok := p.tables[base]; !ok {
		return nil, nil, fmt.Errorf("plan: hint probe base %q is not a table alias", base)
	}

	joined := map[string]bool{base: true}
	var cur Node = scans[base]
	curSchema := &schema{cols: cur.Out()}

	order := p.q.Hints.ProbeOrder
	remaining := len(p.aliases) - 1
	for remaining > 0 {
		var next string
		if len(order) > 0 {
			next, order = order[0], order[1:]
			if joined[next] {
				return nil, nil, fmt.Errorf("plan: hint repeats alias %q", next)
			}
			if _, ok := p.tables[next]; !ok {
				return nil, nil, fmt.Errorf("plan: hint alias %q unknown", next)
			}
		} else {
			// Greedy: among joinable tables, take the smallest build side.
			for _, a := range p.aliases {
				if joined[a] || !hasEdge(edges, joined, a) {
					continue
				}
				if next == "" || scans[a].Est < scans[next].Est {
					next = a
				}
			}
			if next == "" {
				return nil, nil, fmt.Errorf("plan: query graph is disconnected (cross products unsupported)")
			}
		}

		edge, err := pickEdge(edges, joined, next)
		if err != nil {
			return nil, nil, err
		}
		build := scans[next]
		buildSchema := &schema{cols: build.Out()}

		// Key columns: edge side belonging to `next` is the build key.
		bCol, pQual, pCol := edge.colB, edge.aliasA, edge.colA
		if edge.aliasA == next {
			bCol, pQual, pCol = edge.colA, edge.aliasB, edge.colB
		}
		bPos, err := buildSchema.find(next, bCol)
		if err != nil {
			return nil, nil, err
		}
		pPos, err := curSchema.find(pQual, pCol)
		if err != nil {
			return nil, nil, err
		}

		payload := p.payloadCols(next, build, bCol)
		kc := build.Table.Col(bCol)
		j := &Join{
			Build:       build,
			Probe:       cur,
			BuildKey:    &PCol{Pos: bPos},
			ProbeKey:    &PCol{Pos: pPos},
			Payload:     payload,
			BuildUnique: kc != nil && kc.Unique,
			Label:       "join " + next,
		}
		d := p.colStats(build.Table, bCol).Distinct
		if d < 1 {
			d = 1
		}
		j.Est = cur.EstRows() * build.Est / float64(d)
		if j.Est < 1 {
			j.Est = 1
		}
		p.correctRows(j)
		// New schema: probe columns ++ payload columns.
		cols := append([]ColMeta{}, curSchema.cols...)
		for _, pi := range payload {
			cols = append(cols, buildSchema.cols[pi])
		}
		cur, curSchema = j, &schema{cols: cols}
		joined[next] = true
		remaining--
	}
	return cur, curSchema, nil
}

func hasEdge(edges []joinEdge, joined map[string]bool, a string) bool {
	for _, e := range edges {
		if e.aliasA == a && joined[e.aliasB] || e.aliasB == a && joined[e.aliasA] {
			return true
		}
	}
	return false
}

func pickEdge(edges []joinEdge, joined map[string]bool, next string) (joinEdge, error) {
	var found []joinEdge
	for _, e := range edges {
		if e.aliasA == next && joined[e.aliasB] || e.aliasB == next && joined[e.aliasA] {
			found = append(found, e)
		}
	}
	switch len(found) {
	case 0:
		return joinEdge{}, fmt.Errorf("plan: no join predicate connects %q", next)
	case 1:
		return found[0], nil
	default:
		return joinEdge{}, fmt.Errorf("plan: composite join keys to %q unsupported", next)
	}
}

// payloadCols lists which of the build scan's output positions must be
// carried into the join output (column pruning: everything the rest of the
// query still references; the filter-only columns stay behind).
func (p *planner) payloadCols(alias string, build *Scan, keyCol string) []int {
	needed := map[string]bool{}
	collect := func(e Expr) {
		var refs []*ColRef
		exprCols(e, &refs)
		for _, r := range refs {
			if a, err := p.qualify(r); err == nil && a == alias {
				needed[r.Name] = true
			}
		}
	}
	for _, s := range p.q.Select {
		collect(s.Expr)
	}
	for _, g := range p.q.GroupBy {
		collect(g)
	}
	for _, o := range p.q.OrderBy {
		collect(o.Expr)
	}
	// Join-edge columns must survive too: a later join may key on one of
	// this build side's columns.
	for _, conj := range Flatten(OpAnd, p.q.Where) {
		var refs []*ColRef
		exprCols(conj, &refs)
		aliases := map[string]bool{}
		for _, r := range refs {
			if a, err := p.qualify(r); err == nil {
				aliases[a] = true
			}
		}
		if len(aliases) >= 2 {
			collect(conj)
		}
	}
	var out []int
	for i, c := range build.Out() {
		if needed[c.Name] {
			out = append(out, i)
		}
	}
	return out
}

// aggregate inserts GroupBy (or the fused GroupJoin) when the query
// aggregates, and returns the mapping of select items onto the new top
// node's output (nil when no aggregation happens).
func (p *planner) aggregate(cur Node, curSchema *schema) (Node, *schema, error) {
	hasAgg := len(p.q.GroupBy) > 0
	for _, s := range p.q.Select {
		if _, ok := s.Expr.(*Agg); ok {
			hasAgg = true
		}
	}
	if !hasAgg {
		return cur, curSchema, nil
	}
	if len(p.q.GroupBy) > 2 {
		return nil, nil, fmt.Errorf("plan: at most two GROUP BY keys supported")
	}

	keys := []PExpr{&PConst{Val: 0}}
	keyMetas := []ColMeta{{Name: "<group>"}}
	if len(p.q.GroupBy) > 0 {
		keys = keys[:0]
		keyMetas = keyMetas[:0]
		for _, ge := range p.q.GroupBy {
			k, err := bind(ge, curSchema)
			if err != nil {
				return nil, nil, err
			}
			keys = append(keys, k)
			if pc, ok := k.(*PCol); ok {
				keyMetas = append(keyMetas, curSchema.cols[pc.Pos])
			} else {
				keyMetas = append(keyMetas, ColMeta{Name: ge.String()})
			}
		}
	}
	key, keyMeta := keys[0], keyMetas[0]

	var aggs []AggSpec
	for _, s := range p.q.Select {
		a, ok := s.Expr.(*Agg)
		if !ok {
			continue
		}
		spec := AggSpec{Fn: a.Fn, Name: s.Alias}
		if spec.Name == "" {
			spec.Name = a.String()
		}
		if a.Arg != nil {
			arg, err := bind(a.Arg, curSchema)
			if err != nil {
				return nil, nil, err
			}
			spec.Arg = arg
		} else if a.Fn != AggCount {
			return nil, nil, fmt.Errorf("plan: %s requires an argument", a.Fn)
		}
		aggs = append(aggs, spec)
	}

	// Group-join fusion (§5.4): single group key == probe key of the top
	// join, unique build key, aggregates over probe-side columns only.
	if j, ok := cur.(*Join); ok && !p.q.Hints.NoGroupJoin && len(p.q.GroupBy) == 1 && len(keys) == 1 {
		if gjApplicable(j, key, aggs) {
			gj := &GroupJoin{
				Build:    j.Build,
				Probe:    j.Probe,
				BuildKey: j.BuildKey,
				ProbeKey: j.ProbeKey,
				KeyMeta:  keyMeta,
				Aggs:     aggs,
				Est:      j.Build.EstRows(),
			}
			p.correctRows(gj)
			out := &schema{cols: gj.Out()}
			return gj, out, nil
		}
	}

	g := &GroupBy{Input: cur, Keys: keys, KeyMetas: keyMetas, Aggs: aggs}
	g.Est = cur.EstRows() / 3
	if g.Est < 1 {
		g.Est = 1
	}
	p.correctRows(g)
	return g, &schema{cols: g.Out()}, nil
}

// gjApplicable checks the group-join fusion preconditions.
func gjApplicable(j *Join, key PExpr, aggs []AggSpec) bool {
	if !j.BuildUnique {
		return false
	}
	kc, ok := key.(*PCol)
	pk, ok2 := j.ProbeKey.(*PCol)
	if !ok || !ok2 || kc.Pos != pk.Pos {
		return false
	}
	probeWidth := len(j.Probe.Out())
	for _, a := range aggs {
		if a.Arg == nil {
			continue
		}
		used := map[int]bool{}
		ColsUsed(a.Arg, used)
		for pos := range used {
			if pos >= probeWidth {
				return false // aggregate reads build payload
			}
		}
	}
	return true
}

// output binds the final projections and host-side ORDER BY / LIMIT.
func (p *planner) output(top Node, topSchema *schema) (*Output, error) {
	o := &Output{Input: top, Limit: -1}
	if p.q.Limit > 0 {
		o.Limit = p.q.Limit
	}

	nKeys := 0
	grouped := false
	switch g := top.(type) {
	case *GroupBy:
		grouped, nKeys = true, len(g.Keys)
	case *GroupJoin:
		grouped, nKeys = true, 1
	}

	// Group keys occupy the first nKeys output positions; aggregates
	// follow in select-list order.
	keyPos := func(e Expr) int {
		for i, ge := range p.q.GroupBy {
			if i < nKeys && e.String() == ge.String() {
				return i
			}
		}
		return -1
	}

	aggIdx := 0
	for _, s := range p.q.Select {
		name := s.Alias
		if name == "" {
			name = s.Expr.String()
		}
		var pe PExpr
		if grouped {
			if _, isAgg := s.Expr.(*Agg); isAgg {
				pe = &PCol{Pos: nKeys + aggIdx}
				aggIdx++
			} else if kp := keyPos(s.Expr); kp >= 0 {
				pe = &PCol{Pos: kp}
			} else {
				return nil, fmt.Errorf("plan: select item %s is neither a group key nor an aggregate", s.Expr)
			}
		} else {
			var err error
			pe, err = bind(s.Expr, topSchema)
			if err != nil {
				return nil, err
			}
		}
		o.Exprs = append(o.Exprs, pe)
		o.Names = append(o.Names, name)
	}

	for _, ob := range p.q.OrderBy {
		idx := -1
		if c, isConst := ob.Expr.(*Const); isConst {
			// ORDER BY <ordinal>.
			if c.Val >= 1 && int(c.Val) <= len(o.Exprs) {
				idx = int(c.Val) - 1
			}
		} else {
			for i, s := range p.q.Select {
				if s.Expr.String() == ob.Expr.String() || (s.Alias != "" && s.Alias == ob.Expr.String()) {
					idx = i
					break
				}
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("plan: ORDER BY item %s not in select list", ob.Expr)
		}
		o.OrderBy = append(o.OrderBy, idx)
		o.Desc = append(o.Desc, ob.Desc)
	}
	return o, nil
}
