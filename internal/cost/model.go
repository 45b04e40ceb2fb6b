package cost

// The cycle cost model: per-node estimated cardinality and cycle cost
// for a whole plan. The per-row constants are calibrated against the
// simulated CPU's instruction costs for the generated kernels (compare
// DESIGN.md §3): they are not meant to predict absolute wall cycles, but
// to *rank* alternative physical shapes and to drive the one physical
// knob decision (Decide): partition counts down when hash tables are
// small.

import "repro/internal/plan"

// Per-row cycle constants (simulated cycles per processed row).
const (
	cyScanRow    = 6.0  // load + loop overhead per scanned row
	cyScanCol    = 2.0  // per output column materialization
	cyFilterRow  = 4.0  // predicate evaluation per scanned row
	cyBuildRow   = 28.0 // hash, directory insert, entry write
	cyProbeRow   = 18.0 // hash, directory walk, key compare
	cyMatchRow   = 6.0  // payload copy per produced join row
	cyGroupRow   = 30.0 // hash, group lookup, aggregate update
	cyGroupEmit  = 8.0  // group-scan emit per group
	cyGJBuildRow = 26.0 // group-join build (entry + aggregate slots)
	cyGJProbeRow = 20.0 // group-join probe + in-place aggregate update
	cyOutputRow  = 10.0 // result-row allocation and stores
)

// Estimate is one node's annotation: estimated output rows and estimated
// cycles spent *in this node* (children excluded).
type Estimate struct {
	Rows   float64
	Cycles float64
}

// Model annotates every node of a plan with an Estimate.
type Model struct {
	Root *plan.Output
	// PerNode holds each node's estimate; every node reachable from Root
	// has an entry.
	PerNode map[plan.Node]Estimate
	// TotalCycles sums the per-node cycle estimates.
	TotalCycles float64
}

// Annotate walks the plan bottom-up and attaches cardinality and cycle
// estimates to every node. Cardinalities are the planner's (possibly
// history-corrected) EstRows; cycles follow the per-row constants above.
func Annotate(root *plan.Output) *Model {
	m := &Model{Root: root, PerNode: map[plan.Node]Estimate{}}
	plan.Walk(root, func(n plan.Node) {
		e := Estimate{Rows: n.EstRows()}
		switch x := n.(type) {
		case *plan.Scan:
			scanned := float64(x.Table.Rows())
			e.Cycles = scanned * (cyScanRow + cyScanCol*float64(len(x.Cols)))
			if x.Filter != nil {
				e.Cycles += scanned * cyFilterRow
			}
		case *plan.Join:
			e.Cycles = x.Build.EstRows()*cyBuildRow +
				x.Probe.EstRows()*cyProbeRow +
				x.Est*cyMatchRow
		case *plan.GroupBy:
			e.Cycles = x.Input.EstRows()*cyGroupRow + x.Est*cyGroupEmit
		case *plan.GroupJoin:
			e.Cycles = x.Build.EstRows()*cyGJBuildRow +
				x.Probe.EstRows()*cyGJProbeRow +
				x.Est*cyGroupEmit
		case *plan.Output:
			e.Cycles = x.Input.EstRows() * cyOutputRow
		}
		m.PerNode[n] = e
		m.TotalCycles += e.Cycles
	})
	return m
}

// smallBuildRows: hash tables at or below this size radix-partition into
// fewer partitions — per-partition merge overhead dominates tiny tables.
const smallBuildRows = 1024

// Decide picks the per-statement partition count from an annotated model,
// never raising it above the configuration's: it shrinks when every hash
// table is small. The bool is returned unchanged; no compile reads it
// (engine.Options.BloomFilters), and it stays so that existing callers
// keep compiling.
func Decide(m *Model, bloom bool, partitions int) (bool, int) {
	maxBuild := 0.0
	plan.Walk(m.Root, func(n plan.Node) {
		switch x := n.(type) {
		case *plan.Join:
			if b := x.Build.EstRows(); b > maxBuild {
				maxBuild = b
			}
		case *plan.GroupJoin:
			if b := x.Build.EstRows(); b > maxBuild {
				maxBuild = b
			}
		case *plan.GroupBy:
			if b := x.Est; b > maxBuild {
				maxBuild = b
			}
		}
	})
	if partitions > 2 && maxBuild <= smallBuildRows {
		partitions = 2
	}
	return bloom, partitions
}
