package cost

// Estimator implementations for the planner's plan.Estimator hook. The
// composition is: a StatsSource decides *which* statistics the planner
// sees, Naive turns them into selectivities with the planner's
// heuristics, and HistoryCorrected layers observed true cardinalities on
// top.

import (
	"repro/internal/catalog"
	"repro/internal/plan"
)

// StatsSource supplies the column statistics backing an estimator.
type StatsSource interface {
	ColStats(t *catalog.Table, col string) (catalog.Stats, bool)
}

// FreshStats is the healthy regime: the planner reads each table's own,
// up-to-date statistics.
type FreshStats struct{}

// ColStats declines, so the planner falls through to the live table.
func (FreshStats) ColStats(*catalog.Table, string) (catalog.Stats, bool) {
	return catalog.Stats{}, false
}

// Naive is the planner's built-in heuristic estimator over a chosen
// statistics source: it overrides nothing beyond where the stats come
// from.
type Naive struct{ Stats StatsSource }

func (n *Naive) ColStats(t *catalog.Table, col string) (catalog.Stats, bool) {
	return n.Stats.ColStats(t, col)
}

func (n *Naive) Rows(string, float64) (float64, bool) { return 0, false }

// HistoryCorrected layers the observed-cardinality history over a base
// estimator: statistics and selectivities come from the base, but any
// plan expression the history has seen executes gets its estimate
// replaced by the smoothed true row count. An empty history behaves
// exactly like the base — the correction is strictly additive.
type HistoryCorrected struct {
	Base plan.Estimator
	H    *History
}

func (hc *HistoryCorrected) ColStats(t *catalog.Table, col string) (catalog.Stats, bool) {
	return hc.Base.ColStats(t, col)
}

func (hc *HistoryCorrected) Rows(canon string, est float64) (float64, bool) {
	if hc.H == nil {
		return 0, false
	}
	return hc.H.Lookup(canon)
}
