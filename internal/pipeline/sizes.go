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
//	group by:     [hdr | key | aggregate states ...]
//	group join:   [hdr | key | match count | aggregate states ...]
const (
	entryKeyOff = codegen.HTEntryHeader
	entryValOff = entryKeyOff + 8
)

// aggStateBytes returns the state footprint of one aggregate: avg needs a
// sum and a count, everything else one slot.
func aggStateBytes(fn plan.AggFn) int64 {
	if fn == plan.AggAvg {
		return 16
	}
	return 8
}

// aggOffsets returns each aggregate's offset within the state zone.
func aggOffsets(aggs []plan.AggSpec) []int64 {
	out := make([]int64, len(aggs))
	off := int64(0)
	for i, a := range aggs {
		out[i] = off
		off += aggStateBytes(a.Fn)
	}
	return out
}

func aggZoneBytes(aggs []plan.AggSpec) int64 {
	n := int64(0)
	for _, a := range aggs {
		n += aggStateBytes(a.Fn)
	}
	return n
}

// EntrySize returns the hash-table entry size (bytes) for a materializing
// operator; the engine uses it to size arenas before compilation.
func EntrySize(n plan.Node) int64 {
	switch x := n.(type) {
	case *plan.Join:
		return entryValOff + 8*int64(len(x.Payload))
	case *plan.GroupBy:
		// One slot per group key, then the aggregate state zone.
		return codegen.HTEntryHeader + 8*int64(len(x.Keys)) + aggZoneBytes(x.Aggs)
	case *plan.GroupJoin:
		return entryValOff + 8 + aggZoneBytes(x.Aggs)
	}
	return 0
}

// Materializes reports whether a node owns a hash table.
func Materializes(n plan.Node) bool { return EntrySize(n) > 0 }

// BuildBound returns the number of entries the node's hash table must be
// able to hold (a safe upper bound): a group-by's groups, a join's build
// rows.
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

// DirSlots returns the directory size (power of two) for an expected
// entry count.
func DirSlots(entries int) int64 {
	if entries < 8 {
		entries = 8
	}
	return int64(1) << uint(math.Ceil(math.Log2(float64(entries)*1.5)))
}

// Aggregate initialization values for zero-initialized state (group join).
const (
	minInit = math.MaxInt64
	maxInit = math.MinInt64
)
