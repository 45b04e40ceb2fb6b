package core

import (
	"cmp"
	"slices"
	"strconv"
)

// SkipEvent records one pruned zone of a sharded scan: work the engine
// proved unnecessary from zone bounds or a semi-join filter and therefore
// never executed. Skips keep the attribution complete — every row of every
// table is accounted for either by executed-task samples or by an explicit
// zero-cost skip — which is what lets the merged profile stay byte-identical
// across shard counts even though pruned shards never run. Skips derives
// them from the shard journals, which record each zone verdict once.
type SkipEvent struct {
	Pipeline int    // pipeline index of the pruned scan
	Alias    string // driving scan alias
	Shard    int    // shard that owned the zone (a grouping lens: depends on
	// the shard count, so Canonical excludes it, like Sample.Worker)
	Zone   int   // zone index in the table's zone map
	Lo, Hi int64 // pruned row range [Lo, Hi)
	Cause  string
}

// Skip causes.
const (
	SkipFilter   = "filter"   // zone bounds cannot satisfy the scan filter
	SkipSemiJoin = "semijoin" // probe-key bounds miss every build-side key
	SkipAbsent   = "absent"   // no candidate key is in the build's hash table
)

// ZoneDecision journals the coordinator's verdict on one zone: pruned iff
// it carries a cause.
type ZoneDecision struct {
	Zone   int    // zone index in the table's zone map
	Lo, Hi int64  // row range [Lo, Hi)
	Cause  string // SkipFilter / SkipSemiJoin / SkipAbsent; "" if surviving
}

// ShardState is the per-shard run state of one scan pipeline: which zones
// the shard owns, which were pruned and why, and how many morsels carried
// its rows. The states of one run are the lineage journal `tprofvet check
// -shard` replays: shards must tile the table, zones must tile each shard,
// and no two shards may claim the same zone (tag collision).
type ShardState struct {
	Pipeline int    // pipeline index
	Alias    string // driving scan alias
	Shard    int    // shard ID (position in the n-way split)
	Lo, Hi   int64  // row range [Lo, Hi)
	Zones    []ZoneDecision
	Morsels  int // morsels of this run that carried the shard's rows
}

// Rows returns the rows the shard owns.
func (s ShardState) Rows() int64 { return s.Hi - s.Lo }

// Scanned returns the rows of the shard's surviving zones: the rows that
// were executed.
func (s ShardState) Scanned() int64 {
	var n int64
	for _, z := range s.Zones {
		if z.Cause == "" {
			n += z.Hi - z.Lo
		}
	}
	return n
}

// Pruned reports whether every zone of the shard was pruned.
func (s ShardState) Pruned() bool {
	return len(s.Zones) > 0 && s.Scanned() == 0
}

// Skips derives the skip events of a run's shard journals, one per pruned
// zone in journal order (by pipeline, then zone); nil when no zone was
// pruned.
func Skips(journals []ShardState) []SkipEvent {
	var out []SkipEvent
	for _, j := range journals {
		for _, z := range j.Zones {
			if z.Cause != "" {
				out = append(out, SkipEvent{Pipeline: j.Pipeline, Alias: j.Alias, Shard: j.Shard,
					Zone: z.Zone, Lo: z.Lo, Hi: z.Hi, Cause: z.Cause})
			}
		}
	}
	return out
}

// Canonical serializes the profile's attribution content into a
// deterministic byte form for invariance proofs: the merged profile of a
// run must produce identical bytes for every worker count and every shard
// count (the determinism suite compares these across Workers × Shards).
// It covers exactly the fields that are execution-strategy invariant —
// sample totals, per-operator/task/IR weights, kernel and unattributed
// shares, routine counts, and skip events keyed by zone. Per-buffer lenses
// (ByWorker, ByShard, SkipEvent.Shard) and raw timestamps (MinTSC/MaxTSC,
// MemByOp points) describe *where and when* samples were recorded, not
// what they attribute to, so they are excluded by design.
func (p *Profile) Canonical() []byte {
	// One buffer, sized for every line at about 24 bytes and appended to
	// field by field, so the form costs a handful of allocations whatever
	// the profile's size.
	lines := 3 + len(p.OpWeight) + len(p.TaskWeight) + len(p.IRWeight) + len(p.RoutineCount) + len(p.Skips)
	b := make([]byte, 0, 24*lines+64*len(p.Skips))
	line := func(label string, id int) {
		b = append(b, label...)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(id), 10)
	}
	weight := func(v float64) {
		b = append(b, ' ')
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
		b = append(b, '\n')
	}
	line("samples", p.TotalSamples)
	b = append(b, '\n')
	b = append(b, "kernel"...)
	weight(p.KernelWeight)
	b = append(b, "unattributed"...)
	weight(p.Unattributed)
	for _, id := range sortedKeys(p.OpWeight) {
		line("op", int(id))
		weight(p.OpWeight[id])
	}
	for _, id := range sortedKeys(p.TaskWeight) {
		line("task", int(id))
		weight(p.TaskWeight[id])
	}
	for _, id := range sortedKeys(p.IRWeight) {
		line("ir", id)
		weight(p.IRWeight[id])
	}
	for _, name := range sortedKeys(p.RoutineCount) {
		b = append(b, "routine "...)
		b = append(b, name...)
		weight(p.RoutineCount[name])
	}
	for _, s := range p.Skips {
		line("skip", s.Pipeline)
		b = append(b, ' ')
		b = append(b, s.Alias...)
		for _, v := range []int64{int64(s.Zone), s.Lo, s.Hi, s.Hi - s.Lo} {
			b = append(b, ' ')
			b = strconv.AppendInt(b, v, 10)
		}
		b = append(b, ' ')
		b = append(b, s.Cause...)
		b = append(b, '\n')
	}
	return b
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
