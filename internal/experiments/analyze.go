package experiments

import (
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/pmu"
	"repro/internal/queries"
	"repro/internal/viz"
	"repro/internal/vm"
)

// ExplainAnalyze reproduces the §6.1 comparison between EXPLAIN ANALYZE
// tuple counts and Tailored Profiling's time attribution: the fig9 query's
// scans process the most tuples, but the join and aggregation consume the
// time — exactly the misdirection the paper warns tuple counts invite.
func (e *Env) ExplainAnalyze() (string, error) {
	opts := engine.DefaultOptions()
	opts.TupleCounters = true
	eng := engine.New(e.Cat, opts)
	w := queries.Fig9()
	cq, err := eng.CompileQuery(w.Query)
	if err != nil {
		return "", err
	}
	res, err := eng.Run(cq, &pmu.Config{Event: vm.EvCycles, Period: DefaultPeriod, Format: pmu.FormatIPTimeRegs})
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("=== §6.1: EXPLAIN ANALYZE tuple counts vs. sampled time ===\n\n")
	sb.WriteString(viz.AnalyzedPlan(cq.Plan, cq.Pipe, res.TupleCounts, res.Profile))
	sb.WriteString("\nper-task row counters:\n")
	sb.WriteString(viz.TaskRowTable(cq.Pipe, res.TupleCounts))

	rows := cq.Pipe.OperatorRows(res.TupleCounts)
	var maxRowsOp, maxTimeOp string
	var maxRows int64
	var maxTime float64
	for _, c := range res.Profile.OperatorCosts() {
		if c.Pct > maxTime {
			maxTime, maxTimeOp = c.Pct, c.Name
		}
	}
	for op, n := range rows {
		if n > maxRows {
			maxRows, maxRowsOp = n, res.Profile.Registry.Name(op)
		}
	}
	fmt.Fprintf(&sb, "\nmost tuples: %-22s (%d rows)\nmost time:   %-22s (%.1f%% of samples)\n",
		maxRowsOp, maxRows, maxTimeOp, maxTime)
	if maxRowsOp != maxTimeOp {
		sb.WriteString("→ tuple counts and time attribution disagree: the paper's point that\n")
		sb.WriteString("  EXPLAIN ANALYZE approximates while sampling captures actual cost.\n")
	}
	return sb.String(), nil
}
