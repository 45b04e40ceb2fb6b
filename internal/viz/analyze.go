package viz

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/pipeline"
	"repro/internal/plan"
)

// AnalyzedPlan renders the plan annotated with EXPLAIN ANALYZE tuple
// counts, the planner's cardinality estimate with its q-error against
// the observed truth, and, when a profile is supplied, the sampled time
// share next to them — the §6.1 comparison: "even though the tuple count
// is a decent approximation, our sampling approach captures the actual
// time spent in each operator."
func AnalyzedPlan(pl *plan.Output, pc *pipeline.Compiled, counts map[core.ComponentID]int64, p *core.Profile) string {
	rows := pc.OperatorRows(counts)
	true_ := cost.TrueRows(pc, counts)
	return plan.Render(pl, func(n plan.Node) string {
		id, ok := pc.OpIDs[n]
		if !ok {
			return ""
		}
		out := fmt.Sprintf("[rows=%d]", rows[id])
		if fid, ok := pc.FilterOpIDs[n]; ok {
			out += fmt.Sprintf(" [σ rows=%d]", rows[fid])
		}
		if t, ok := true_[n]; ok {
			out += fmt.Sprintf(" [est=%.0f q=%.2f]", n.EstRows(), cost.QError(n.EstRows(), t))
		}
		if p != nil && p.TotalSamples > 0 {
			out += fmt.Sprintf(" (time %.1f%%)", p.OpPct(id))
		}
		return out
	})
}

// TaskRowTable renders the raw per-task counters.
func TaskRowTable(pc *pipeline.Compiled, counts map[core.ComponentID]int64) string {
	out := fmt.Sprintf("%-36s %12s\n", "task", "rows")
	for _, task := range pc.Registry.ByLevel(core.LevelTask) {
		if n, ok := counts[task.ID]; ok {
			out += fmt.Sprintf("%-36s %12d\n", task.Name, n)
		}
	}
	return out
}
