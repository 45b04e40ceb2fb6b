package cost

// The execution-side true-cardinality collector. A counter-instrumented
// run (Options.TupleCounters) leaves one row counter per task in the
// artifact's counter region; the engine reads them back into
// Result.TupleCounts for serial and parallel runs alike. This file walks
// them up the attribution chain — task counter → Tagging Dictionary
// Log A → operator → plan node — and turns them into the per-expression
// truth the history cache consumes.

import (
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/plan"
)

// TrueRows maps every plan node to its observed output row count. For a
// filtered scan the σ-filter operator's counter is the node's output
// (the scan counter counts scanned rows, estimate and truth both refer
// to surviving rows); every other node reads its own operator's counter
// under pipeline.OutputRolePriority. Nodes whose operator never counted
// (no tasks of a counted role) are absent from the result.
func TrueRows(pc *pipeline.Compiled, counts map[core.ComponentID]int64) map[plan.Node]int64 {
	if pc == nil || len(counts) == 0 {
		return nil
	}
	rows := pc.OperatorRows(counts)
	out := map[plan.Node]int64{}
	for n, op := range pc.OpIDs {
		id := op
		if fid, ok := pc.FilterOpIDs[n]; ok {
			id = fid
		}
		if r, ok := rows[id]; ok {
			out[n] = r
		}
	}
	return out
}

// QError is the q-error of an estimate against an observed row count, both
// sides clamped to >= 1 row (1.0 = perfect).
func QError(est float64, rows int64) float64 {
	e, t := max(est, 1), max(float64(rows), 1)
	if e > t {
		return e / t
	}
	return t / e
}

// ObserveTrueRows feeds one run's observed cardinalities into the
// history, keyed by each node's canonical plan expression, and reports
// whether any entry changed materially (the caller's invalidation cue).
// The plan root (Output) is skipped: its expression is its input's, and
// observing both would double-weight one expression.
func ObserveTrueRows(h *History, root *plan.Output, pc *pipeline.Compiled, counts map[core.ComponentID]int64) bool {
	true_ := TrueRows(pc, counts)
	if len(true_) == 0 {
		return false
	}
	material := false
	plan.Walk(root, func(n plan.Node) {
		if _, isOut := n.(*plan.Output); isOut {
			return
		}
		r, ok := true_[n]
		if !ok {
			return
		}
		if h.Observe(plan.Canon(n), r) {
			material = true
		}
	})
	return material
}
