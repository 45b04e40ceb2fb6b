package mview

import (
	"math"
	"sort"

	"repro/internal/plan"
	"repro/internal/sqlparse"
)

// The semantic rewriter: decide whether a normalized statement is
// subsumed by a registered view and, if so, rebuild it as a query over
// the view's partial-aggregate table. The rewritten query is an AST from
// the start — it enters the front end at sqlparse.NormalizeQuery, never
// as text — and its fingerprint flows through the ordinary cache → plan →
// compile stack, so every textual variant of a dashboard query family
// converges onto ONE rewritten canonical form and ONE cached artifact.
//
// Soundness ladder (every rung must hold before a rewrite is served):
//
//  1. same base table, and the query is summarizable (Summarize);
//  2. per-column predicate containment: I_Q(c) ⊆ I_V(c) for every
//     column, with strict containment only allowed on view group-key
//     columns (the residual predicate re-filters partial rows by key —
//     on a non-key column the partials have already mixed rows the
//     query wants with rows it does not);
//  3. group-key subset: Q's keys ⊆ V's keys, so re-grouping the
//     partials by Q's keys is a pure rollup;
//  4. aggregate derivability: SUM→SUM of partial sums, COUNT→SUM of
//     partial counts, MIN→MIN of partial mins, MAX→MAX of partial maxes
//     (AVG is never derivable here — integer division does not commute
//     with rollup);
//  5. output-order totality: Q orders by all its group keys (or is a
//     scalar aggregate), so base and rewritten executions emit rows in
//     the same order and the rewrite is byte-identical, LIMIT included;
//  6. aggregate select items carry aliases, so the output header is
//     also preserved verbatim;
//  7. the cost gate: the rewritten plan must actually be cheaper under
//     the cycle model (a view as large as its base table wins nothing).
//
// Freshness is NOT decided here — prepare-time has no snapshot. The
// engine checks ConsistentUnder against the bound snapshot at run time
// and transparently falls back to the base-table statement when the
// snapshot has no consistent view prefix.

// Rewrite is a successful subsumption decision.
type Rewrite struct {
	SQL  string // rewritten statement over the view table, as plan.Query.SQL prints it
	View string // view name (for ConsistentUnder and attribution)
	Base string // base table name

	Fingerprint *sqlparse.Fingerprint // what the engine caches and plans; equals Normalize(SQL)
}

// Rewrite tries to rewrite a normalized statement onto a registered
// view. With no views registered this is one atomic load — the zero
// rewrite tax for services that never created a view.
func (m *Manager) Rewrite(fp *sqlparse.Fingerprint) (*Rewrite, bool) {
	if m.nviews.Load() == 0 {
		return nil, false
	}
	qs, ok := Summarize(fp, m.cat)
	if !ok {
		return nil, false
	}
	if !qs.totalOrder() {
		return nil, false // rung 5: row order would be engine-chosen
	}
	for _, it := range qs.Select {
		if it.Kind == SelAgg && it.Alias == "" {
			return nil, false // rung 6: header must survive the rewrite
		}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	for _, name := range m.order {
		v := m.views[name]
		aggMap, ok := subsume(qs, v)
		if !ok {
			continue
		}
		// Freshness policy. Incremental views catch up right here (an
		// append-only delta re-aggregation); lazy views simply stop
		// matching while stale.
		if bt, err := m.cat.Table(v.def.Table); err == nil {
			last := v.states[len(v.states)-1]
			if int64(bt.Rows()) > last.Covered {
				if v.Policy != RefreshIncremental {
					continue
				}
				if err := m.refreshLocked(v); err != nil {
					continue
				}
			}
		}
		rq, ok := emit(qs, v, aggMap)
		if !ok {
			continue
		}
		sql := rq.SQL() // before NormalizeQuery lifts the literals out
		rfp := sqlparse.NormalizeQuery(rq)
		if !m.costGateOK(fp, v, rfp) {
			continue
		}
		v.hits++
		return &Rewrite{SQL: sql, View: v.Name, Base: v.def.Table, Fingerprint: rfp}, true
	}
	return nil, false
}

// subsume checks rungs 1–4 and returns, per query aggregate index, the
// view's stored-aggregate index it rolls up from.
func subsume(q *Summary, v *View) ([]int, bool) {
	d := v.def
	if q.Table != d.Table {
		return nil, false
	}
	// Rung 3: group-key subset.
	for _, k := range q.Keys {
		if !d.hasKey(k) {
			return nil, false
		}
	}
	// Rung 2: predicate containment. Every view predicate must be
	// matched by a query predicate at least as strict (else the view
	// dropped rows the query wants), and every query predicate must be
	// contained in the view's, strictly only on view key columns.
	for col, vi := range d.Preds {
		qi, ok := q.Preds[col]
		if !ok || !vi.Contains(qi) {
			return nil, false
		}
	}
	for col, qi := range q.Preds {
		vi, ok := d.Preds[col]
		if !ok {
			vi = Universe
		}
		if !vi.Contains(qi) {
			return nil, false
		}
		if qi != vi && !d.hasKey(col) {
			return nil, false
		}
	}
	// Rung 4: aggregate derivability.
	aggMap := make([]int, len(q.Aggs))
	for i, qa := range q.Aggs {
		switch qa.Fn {
		case plan.AggCount:
			aggMap[i] = v.cntIdx
		case plan.AggSum, plan.AggMin, plan.AggMax:
			j := -1
			for vi, va := range v.aggs {
				if va.Key == qa.Key {
					j = vi
					break
				}
			}
			if j < 0 {
				return nil, false
			}
			aggMap[i] = j
		default:
			return nil, false
		}
	}
	return aggMap, true
}

// emit rebuilds the query over the view table, node for node as the
// parser would have read it: rolled-up aggregates, residual key predicates
// as raw encoded integer literals (the planner accepts plain numerics
// against any column type — they are already in encoded value space), Q's
// own group keys, ordinals for ORDER BY, and the original LIMIT. ok=false
// means a residual bound has no literal spelling.
func emit(q *Summary, v *View, aggMap []int) (*plan.Query, bool) {
	out := &plan.Query{Tables: []plan.TableRef{{Name: v.TableName}}, Limit: q.Limit}
	for _, it := range q.Select {
		var e plan.Expr
		if it.Kind == SelAgg {
			roll := plan.AggSum // SUM of sums, SUM of counts
			if fn := q.Aggs[it.AggIdx].Fn; fn == plan.AggMin || fn == plan.AggMax {
				roll = fn
			}
			e = &plan.Agg{Fn: roll, Arg: &plan.ColRef{Name: aggCol(aggMap[it.AggIdx])}}
		} else {
			e = &plan.ColRef{Name: it.Key}
		}
		out.Select = append(out.Select, plan.SelectItem{Expr: e, Alias: it.Alias})
	}

	cols := make([]string, 0, len(q.Preds))
	for c := range q.Preds {
		if v.def.hasKey(c) { // else equal to the view's predicate; already applied
			cols = append(cols, c)
		}
	}
	sort.Strings(cols)
	residual := func(c string, op plan.BinOp, bound int64) {
		out.Where = append(out.Where, &plan.Bin{Op: op, L: &plan.ColRef{Name: c}, R: numLit(bound)})
	}
	for _, c := range cols {
		qi := q.Preds[c]
		switch {
		case qi.Hi == math.MinInt64:
			return nil, false // the parser reads a literal's magnitude first
		case qi.Lo == qi.Hi:
			residual(c, plan.OpEq, qi.Lo)
			continue
		}
		if qi.Lo != math.MinInt64 {
			residual(c, plan.OpGe, qi.Lo)
		}
		if qi.Hi != math.MaxInt64 {
			residual(c, plan.OpLe, qi.Hi)
		}
	}
	for _, k := range q.Keys {
		out.GroupBy = append(out.GroupBy, &plan.ColRef{Name: k})
	}
	for i, oi := range q.OrderBy {
		out.OrderBy = append(out.OrderBy, plan.OrderItem{Expr: plan.Num(int64(oi + 1)), Desc: q.Desc[i]})
	}
	return out, true
}

// numLit is an encoded value as the parser reads its literal: a negative
// one is unary minus, 0 - |v|.
func numLit(v int64) plan.Expr {
	if v < 0 {
		return &plan.Bin{Op: plan.OpSub, L: plan.Num(0), R: plan.Num(-v)}
	}
	return plan.Num(v)
}

// CostModel prices a physical plan; the engine installs its cycle cost
// model (cost.Annotate) here. The indirection keeps mview free of a
// package-cost dependency so verify can import mview without a cycle.
type CostModel func(pl *plan.Output) float64

// SetCostModel installs the plan-pricing function the cost gate uses
// and clears previously cached verdicts.
func (m *Manager) SetCostModel(f CostModel) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.costFn = f
	m.costGate = map[[2]uint64]bool{}
}

// costGateOK plans both forms and serves the rewrite only if the cost
// model prices it strictly cheaper. The verdict is cached per
// (statement canon, view) for the current catalog state: the cycle
// model prices plans from catalog cardinalities, which move as base
// and view tables grow, so the cache is cleared whenever the catalog
// version (DDL, over-capacity growth) or epoch (in-capacity appends,
// refreshes) has advanced — a verdict computed on a tiny table must
// not outlive the sizes it was priced on. Drop and SetCostModel clear
// it too. The rewritten statement must plan in any case — an emission
// the planner rejects is never served. Without an installed model only
// that plannability check gates.
func (m *Manager) costGateOK(fp *sqlparse.Fingerprint, v *View, rfp *sqlparse.Fingerprint) bool {
	if ver, ep := m.cat.Version(), m.cat.Epoch(); ver != m.costVer || ep != m.costEpoch {
		m.costGate = map[[2]uint64]bool{}
		m.costVer, m.costEpoch = ver, ep
	}
	key := [2]uint64{fp.Hash, sqlparse.Hash64(v.Name)}
	if verdict, ok := m.costGate[key]; ok {
		return verdict
	}
	verdict := func() bool {
		viewPlan, err := plan.Plan(m.cat, rfp.Query)
		if err != nil {
			return false
		}
		if m.costFn == nil {
			return true
		}
		basePlan, err := plan.Plan(m.cat, fp.Query)
		return err == nil && m.costFn(viewPlan) < m.costFn(basePlan)
	}()
	m.costGate[key] = verdict
	return verdict
}
