package pipeline

import (
	"math"

	"repro/internal/codegen"
	"repro/internal/plan"
)

// Hash-table entry layouts. Every entry starts with the runtime header
// [next | hash] (codegen.HTEntryHeader bytes), followed by the key and the
// operator-specific payload:
//
//	join build:   [hdr | key | payload columns ...]
//	group by:     [hdr | keys ... | state slots ...]
//	group join:   [hdr | key | match count | state slots ...]
//
// A group join's match count is its state zone's count slot, which its
// count(*) and avg aggregates read.
const (
	entryKeyOff = codegen.HTEntryHeader
	entryValOff = entryKeyOff + 8
)

// StateSlot is one 8-byte piece of aggregate state in a hash-table entry.
// Aggregates share pieces: sum(x) and avg(x) keep one sum, count(*) and
// every avg one count (a group join's match count), and equal min(x) or
// max(x) aggregates one slot. Fn is AggSum, AggCount, AggMin or AggMax,
// never AggAvg.
type StateSlot struct {
	Fn  plan.AggFn
	Arg plan.PExpr // the input; nil for the count
	Off int64      // offset within the entry
}

// piece returns the kind and input of the state slot that holds
// aggregate a's value: an avg's value is a sum, and every count counts
// the same rows.
func piece(a plan.AggSpec) (plan.AggFn, plan.PExpr) {
	switch a.Fn {
	case plan.AggAvg:
		return plan.AggSum, a.Arg
	case plan.AggCount:
		return plan.AggCount, nil
	}
	return a.Fn, a.Arg
}

// newStateSlots lays out the state slots of aggs from entry offset base.
// A zone holds at most one slot per aggregate plus the shared count.
func newStateSlots(aggs []plan.AggSpec, base int64, counted bool) []StateSlot {
	return stateLayout(make([]StateSlot, 0, len(aggs)+1), aggs, base, counted)
}

// stateBytes returns the size of aggs' state zone, laid out in a buffer
// on the stack.
func stateBytes(aggs []plan.AggSpec, counted bool) int64 {
	var buf [16]StateSlot
	return 8 * int64(len(stateLayout(buf[:0], aggs, 0, counted)))
}

// stateLayout lays out the state slots of aggs from entry offset base in
// buf's storage, each distinct slot once in first-use order. counted
// starts the zone with the count slot, a group join's match count.
func stateLayout(buf []StateSlot, aggs []plan.AggSpec, base int64, counted bool) []StateSlot {
	slots := buf[:0]
	add := func(fn plan.AggFn, arg plan.PExpr) {
		if slotOf(slots, fn, arg) < 0 {
			slots = append(slots, StateSlot{Fn: fn, Arg: arg, Off: base + 8*int64(len(slots))})
		}
	}
	if counted {
		add(plan.AggCount, nil)
	}
	for _, a := range aggs {
		add(piece(a))
		if a.Fn == plan.AggAvg {
			add(plan.AggCount, nil)
		}
	}
	return slots
}

// slotOf returns the index of the slot (fn, arg), or -1.
func slotOf(slots []StateSlot, fn plan.AggFn, arg plan.PExpr) int {
	for k, s := range slots {
		if s.Fn == fn && plan.SameExpr(s.Arg, arg) {
			return k
		}
	}
	return -1
}

// EntrySize returns the hash-table entry size (bytes) for a materializing
// operator; the engine uses it to size arenas before compilation. An
// aggregating entry holds one slot per distinct piece of state
// (StateSlot), not one per aggregate.
func EntrySize(n plan.Node) int64 {
	switch x := n.(type) {
	case *plan.Join:
		return entryValOff + 8*int64(len(x.Payload))
	case *plan.GroupBy:
		// One slot per group key, then the aggregate state zone.
		return codegen.HTEntryHeader + 8*int64(len(x.Keys)) + stateBytes(x.Aggs, false)
	case *plan.GroupJoin:
		// The key, then the state zone, which starts with the match count.
		return entryValOff + stateBytes(x.Aggs, true)
	}
	return 0
}

// Materializes reports whether a node owns a hash table.
func Materializes(n plan.Node) bool { return EntrySize(n) > 0 }

// BuildBound returns the number of entries the node's hash table must be
// able to hold (a safe upper bound): a group-by's groups, a join's build
// rows. It sizes the arena, where overflow is an error, so it holds in
// every epoch the tables' capacities admit; a directory may be smaller
// (TableDirSlots).
func BuildBound(n plan.Node) int {
	switch x := n.(type) {
	case *plan.Join:
		return x.Build.BoundRows()
	case *plan.GroupBy:
		return x.BoundRows()
	case *plan.GroupJoin:
		return x.Build.BoundRows()
	}
	return 0
}

// StagedBound returns the number of entries a morsel-parallel merge of the
// node's hash table can stage. A group-by stages up to one partial entry
// per group per morsel, so its bound is its input rows, not its groups;
// every other table stages exactly the entries it holds.
func StagedBound(n plan.Node) int {
	if g, ok := n.(*plan.GroupBy); ok {
		return g.Input.BoundRows()
	}
	return BuildBound(n)
}

// DirSlots returns the directory size for an expected entry count: 1.5
// slots per entry rounded up to a power of two, at least 16.
func DirSlots(entries int) int64 {
	if entries < 8 {
		entries = 8
	}
	return int64(1) << uint(math.Ceil(math.Log2(float64(entries)*1.5)))
}

// groupDirFloor is the fewest slots a group-by's directory gets from its
// distinct count: fewer made chains collide on plans whose groups the
// count underrates (measured at 64 and 256 slots).
const groupDirFloor = 512

// TableDirSlots returns the directory size of n's hash table. Joins and
// group joins size it for BuildBound. A group-by sizes it for the groups
// its keys form when it is compiled (plan.GroupBy.DistinctGroups), at
// least groupDirFloor slots and at most what BuildBound asks. A directory
// only sets chain lengths: when later appends add groups, the same
// artifact walks longer chains and returns the same rows.
func TableDirSlots(n plan.Node) int64 {
	slots := DirSlots(BuildBound(n))
	if g, ok := n.(*plan.GroupBy); ok && slots > groupDirFloor {
		slots = min(slots, max(groupDirFloor, DirSlots(g.DistinctGroups())))
	}
	return slots
}

// Aggregate initialization values for zero-initialized state (group join).
const (
	minInit = math.MaxInt64
	maxInit = math.MinInt64
)
