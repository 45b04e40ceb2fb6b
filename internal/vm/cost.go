package vm

// Cycle cost model. The absolute values are a deliberately simple in-order
// approximation (the paper's phenomena are about *relative* costs: division
// chains dominating aggregation, directory loads missing caches, branch
// mispredictions separating plans). All constants are documented in
// DESIGN.md §5.
const (
	CostALU        = 1
	CostMul        = 3
	CostDiv        = 20
	CostCRC32      = 3
	CostStore      = 1
	CostBranch     = 1
	CostBranchMiss = 14
	CostCall       = 2

	CostLoadL1  = 4
	CostLoadL2  = 12
	CostLoadL3  = 38
	CostLoadMem = 180
)

func loadCost(level int) uint64 {
	switch level {
	case HitL1:
		return CostLoadL1
	case HitL2:
		return CostLoadL2
	case HitL3:
		return CostLoadL3
	default:
		return CostLoadMem
	}
}
