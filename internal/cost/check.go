package cost

// tprofvet's cost pass: static and dynamic invariants of the cost layer.
// CheckModel asserts every plan node carries a consistent estimate;
// CheckObserved asserts every collected true count maps to a live tag —
// a task the registry knows whose Log A lineage resolves to an operator
// — and that every operator-bearing plan node was actually counted.

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/plan"
)

// CheckModel verifies an annotated plan's estimates: every node has an
// entry, rows and cycles are finite and positive, a join's estimate
// never exceeds the product of its inputs, and the root's estimate
// equals its input's (Output neither filters nor expands).
func CheckModel(m *Model) []core.Diag {
	var ds []core.Diag
	plan.Walk(m.Root, func(n plan.Node) {
		e, ok := m.PerNode[n]
		if !ok {
			ds = append(ds, core.Diagf("cost/model", core.LevelOperator, n.Kind(), "plan node has no cost estimate"))
			return
		}
		if math.IsNaN(e.Rows) || math.IsInf(e.Rows, 0) || e.Rows < 1 {
			ds = append(ds, core.Diagf("cost/model", core.LevelOperator, n.Kind(),
				"estimated rows %v out of range (want finite, >= 1)", e.Rows))
		}
		if math.IsNaN(e.Cycles) || math.IsInf(e.Cycles, 0) || e.Cycles <= 0 {
			ds = append(ds, core.Diagf("cost/model", core.LevelOperator, n.Kind(),
				"estimated cycles %v out of range (want finite, > 0)", e.Cycles))
		}
		if e.Rows != n.EstRows() {
			ds = append(ds, core.Diagf("cost/model", core.LevelOperator, n.Kind(),
				"model rows %v disagree with node estimate %v", e.Rows, n.EstRows()))
		}
		switch x := n.(type) {
		case *plan.Join:
			if limit := x.Build.EstRows() * x.Probe.EstRows() * 1.001; e.Rows > limit {
				ds = append(ds, core.Diagf("cost/model", core.LevelOperator, n.Kind(),
					"join estimate %v exceeds input product %v", e.Rows, limit))
			}
		case *plan.Output:
			if e.Rows != x.Input.EstRows() {
				ds = append(ds, core.Diagf("cost/model", core.LevelOperator, n.Kind(),
					"output estimate %v differs from input estimate %v", e.Rows, x.Input.EstRows()))
			}
		case *plan.Scan:
			if limit := float64(x.Table.Rows()); limit >= 1 && e.Rows > limit*1.001 {
				ds = append(ds, core.Diagf("cost/model", core.LevelOperator, n.Kind(),
					"scan estimate %v exceeds table rows %v", e.Rows, limit))
			}
		}
	})
	return ds
}

// CheckObserved verifies one counted run against its artifact: every
// collected true count belongs to a registered task whose dictionary
// lineage resolves to a live operator, and every plan node the pipeline
// registered an operator for was actually counted.
func CheckObserved(root *plan.Output, pc *pipeline.Compiled, counts map[core.ComponentID]int64) []core.Diag {
	var ds []core.Diag
	for id := range counts {
		c, ok := pc.Registry.Lookup(id)
		if !ok {
			ds = append(ds, core.Diagf("cost/observed", core.LevelTask, fmt.Sprintf("task %d", id),
				"tuple counter for unregistered component"))
			continue
		}
		if c.Level != core.LevelTask {
			ds = append(ds, core.Diagf("cost/observed", c.Level, c.Name, "tuple counter on non-task component"))
			continue
		}
		if pc.Dict.OperatorOf(id) == core.NoComponent {
			ds = append(ds, core.Diagf("cost/observed", core.LevelTask, c.Name,
				"counted task has no operator lineage (dead tag)"))
		}
	}
	true_ := TrueRows(pc, counts)
	plan.Walk(root, func(n plan.Node) {
		if _, isOut := n.(*plan.Output); isOut {
			return
		}
		if _, ok := pc.OpIDs[n]; !ok {
			ds = append(ds, core.Diagf("cost/observed", core.LevelOperator, n.Kind(),
				"plan node has no registered operator"))
			return
		}
		if _, ok := true_[n]; !ok {
			ds = append(ds, core.Diagf("cost/observed", core.LevelOperator, n.Kind(),
				"operator has no observed row count"))
		}
	})
	return ds
}
