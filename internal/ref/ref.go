// Package ref is a straightforward interpreted executor over the catalog.
// It evaluates physical plans host-side (hash maps and Go loops, no code
// generation) and serves two purposes: it is the correctness oracle every
// compiled query is tested against, and it stands in for the interpreted
// baseline compiling engines are usually compared with.
package ref

import (
	"fmt"
	"slices"

	"repro/internal/catalog"
	"repro/internal/plan"
)

// Execute runs a plan and returns the result rows (ORDER BY and LIMIT
// applied). Plans with bound parameters need ExecuteWith.
func Execute(pl *plan.Output) ([][]int64, error) { return ExecuteWith(pl, nil) }

// ExecuteWith runs a plan with bound-parameter values (indexed by $N).
// params must hold exactly len(pl.Params) values — the same encoded
// arguments the compiled artifact would be staged with, so compiled and
// interpreted runs stay comparable row for row.
func ExecuteWith(pl *plan.Output, params []int64) ([][]int64, error) {
	if len(params) != len(pl.Params) {
		return nil, fmt.Errorf("ref: plan expects %d bound parameters, got %d", len(pl.Params), len(params))
	}
	ex := &executor{params: params}
	return ex.run(pl)
}

// SameRows reports whether two result sets hold the same rows: position by
// position when ordered (the query has an ORDER BY, or the caller claims
// byte-identical execution), as multisets otherwise.
func SameRows(got, want [][]int64, ordered bool) bool {
	if len(got) != len(want) {
		return false
	}
	if !ordered {
		got, want = sortedRows(got), sortedRows(want)
	}
	for i := range got {
		if !slices.Equal(got[i], want[i]) {
			return false
		}
	}
	return true
}

func sortedRows(rows [][]int64) [][]int64 {
	out := slices.Clone(rows)
	slices.SortFunc(out, slices.Compare[[]int64])
	return out
}

// executor threads the bound-parameter values through evaluation.
type executor struct {
	params []int64
}

func (ex *executor) run(pl *plan.Output) ([][]int64, error) {
	in, err := ex.eval(pl.Input)
	if err != nil {
		return nil, err
	}
	rows := make([][]int64, 0, len(in))
	for _, r := range in {
		out := make([]int64, len(pl.Exprs))
		for i, e := range pl.Exprs {
			v, err := ex.evalExpr(e, r)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		rows = append(rows, out)
	}
	slices.SortStableFunc(rows, plan.RowCompare(pl.OrderBy, pl.Desc, pl.Out()))
	if pl.Limit >= 0 && len(rows) > pl.Limit {
		rows = rows[:pl.Limit]
	}
	return rows, nil
}

func (ex *executor) eval(n plan.Node) ([][]int64, error) {
	switch x := n.(type) {
	case *plan.Scan:
		return ex.evalScan(x)
	case *plan.Join:
		return ex.evalJoin(x)
	case *plan.GroupBy:
		return ex.evalGroupBy(x)
	case *plan.GroupJoin:
		return ex.evalGroupJoin(x)
	case *plan.Output:
		return ex.run(x)
	}
	return nil, fmt.Errorf("ref: unknown node %T", n)
}

func (ex *executor) evalScan(s *plan.Scan) ([][]int64, error) {
	var out [][]int64
	n := s.Table.Rows()
	cols := make([]*catalog.Column, len(s.Cols))
	for i, ci := range s.Cols {
		cols[i] = s.Table.Cols[ci]
	}
	for r := 0; r < n; r++ {
		row := make([]int64, len(cols))
		for i, c := range cols {
			row[i] = c.Data[r]
		}
		if s.Filter != nil {
			v, err := ex.evalExpr(s.Filter, row)
			if err != nil {
				return nil, err
			}
			if v == 0 {
				continue
			}
		}
		out = append(out, row)
	}
	return out, nil
}

func (ex *executor) evalJoin(j *plan.Join) ([][]int64, error) {
	build, err := ex.eval(j.Build)
	if err != nil {
		return nil, err
	}
	probe, err := ex.eval(j.Probe)
	if err != nil {
		return nil, err
	}
	ht := make(map[int64][][]int64, len(build))
	for _, r := range build {
		k, err := ex.evalExpr(j.BuildKey, r)
		if err != nil {
			return nil, err
		}
		ht[k] = append(ht[k], r)
	}
	var out [][]int64
	for _, pr := range probe {
		k, err := ex.evalExpr(j.ProbeKey, pr)
		if err != nil {
			return nil, err
		}
		for _, br := range ht[k] {
			row := append(append([]int64{}, pr...), pick(br, j.Payload)...)
			out = append(out, row)
		}
	}
	return out, nil
}

func pick(row []int64, idx []int) []int64 {
	out := make([]int64, len(idx))
	for i, p := range idx {
		out[i] = row[p]
	}
	return out
}

// aggState accumulates one group's aggregates.
type aggState struct {
	keys []int64
	sums []int64
	cnts []int64
	set  []bool
}

func newAggState(keys []int64, n int) *aggState {
	return &aggState{keys: keys, sums: make([]int64, n), cnts: make([]int64, n), set: make([]bool, n)}
}

func (ex *executor) update(st *aggState, aggs []plan.AggSpec, row []int64) error {
	for i, a := range aggs {
		var v int64
		if a.Arg != nil {
			var err error
			v, err = ex.evalExpr(a.Arg, row)
			if err != nil {
				return err
			}
		}
		switch a.Fn {
		case plan.AggSum, plan.AggAvg:
			st.sums[i] += v
			st.cnts[i]++
		case plan.AggCount:
			st.cnts[i]++
		case plan.AggMin:
			if !st.set[i] || v < st.sums[i] {
				st.sums[i] = v
			}
		case plan.AggMax:
			if !st.set[i] || v > st.sums[i] {
				st.sums[i] = v
			}
		}
		st.set[i] = true
	}
	return nil
}

func (st *aggState) row(aggs []plan.AggSpec) []int64 {
	out := make([]int64, 0, len(st.keys)+len(aggs))
	out = append(out, st.keys...)
	for i, a := range aggs {
		switch a.Fn {
		case plan.AggSum, plan.AggMin, plan.AggMax:
			out = append(out, st.sums[i])
		case plan.AggCount:
			out = append(out, st.cnts[i])
		case plan.AggAvg:
			out = append(out, st.sums[i]/st.cnts[i])
		}
	}
	return out
}

func (ex *executor) aggregate(in [][]int64, keys []plan.PExpr, aggs []plan.AggSpec) ([][]int64, error) {
	groups := map[[2]int64]*aggState{}
	var order [][2]int64
	for _, r := range in {
		var mk [2]int64
		kv := make([]int64, len(keys))
		for i, ke := range keys {
			v, err := ex.evalExpr(ke, r)
			if err != nil {
				return nil, err
			}
			kv[i] = v
			mk[i] = v
		}
		st, ok := groups[mk]
		if !ok {
			st = newAggState(kv, len(aggs))
			groups[mk] = st
			order = append(order, mk)
		}
		if err := ex.update(st, aggs, r); err != nil {
			return nil, err
		}
	}
	out := make([][]int64, 0, len(order))
	for _, k := range order {
		out = append(out, groups[k].row(aggs))
	}
	return out, nil
}

func (ex *executor) evalGroupBy(g *plan.GroupBy) ([][]int64, error) {
	in, err := ex.eval(g.Input)
	if err != nil {
		return nil, err
	}
	return ex.aggregate(in, g.Keys, g.Aggs)
}

// evalGroupJoin evaluates the fused operator by its definition: aggregate
// the join result by the (unique) build key.
func (ex *executor) evalGroupJoin(g *plan.GroupJoin) ([][]int64, error) {
	j := &plan.Join{
		Build: g.Build, Probe: g.Probe,
		BuildKey: g.BuildKey, ProbeKey: g.ProbeKey,
		BuildUnique: true,
	}
	in, err := ex.evalJoin(j)
	if err != nil {
		return nil, err
	}
	return ex.aggregate(in, []plan.PExpr{g.ProbeKey}, g.Aggs)
}

func (ex *executor) evalExpr(e plan.PExpr, row []int64) (int64, error) {
	switch x := e.(type) {
	case *plan.PConst:
		return x.Val, nil
	case *plan.PParam:
		if x.Idx < 0 || x.Idx >= len(ex.params) {
			return 0, fmt.Errorf("ref: parameter $%d out of %d bound values", x.Idx, len(ex.params))
		}
		return ex.params[x.Idx], nil
	case *plan.PCol:
		if x.Pos < 0 || x.Pos >= len(row) {
			return 0, fmt.Errorf("ref: column %d out of row width %d", x.Pos, len(row))
		}
		return row[x.Pos], nil
	case *plan.PBin:
		l, err := ex.evalExpr(x.L, row)
		if err != nil {
			return 0, err
		}
		r, err := ex.evalExpr(x.R, row)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case plan.OpAdd:
			return l + r, nil
		case plan.OpSub:
			return l - r, nil
		case plan.OpMul:
			return l * r, nil
		case plan.OpDiv:
			if r == 0 {
				return 0, fmt.Errorf("ref: division by zero")
			}
			return l / r, nil
		case plan.OpMod:
			if r == 0 {
				return 0, fmt.Errorf("ref: modulo by zero")
			}
			return l % r, nil
		case plan.OpEq:
			return b2i(l == r), nil
		case plan.OpNe:
			return b2i(l != r), nil
		case plan.OpLt:
			return b2i(l < r), nil
		case plan.OpLe:
			return b2i(l <= r), nil
		case plan.OpGt:
			return b2i(l > r), nil
		case plan.OpGe:
			return b2i(l >= r), nil
		case plan.OpAnd:
			return b2i(l != 0 && r != 0), nil
		case plan.OpOr:
			return b2i(l != 0 || r != 0), nil
		}
	}
	return 0, fmt.Errorf("ref: cannot evaluate %T", e)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
