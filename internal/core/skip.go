package core

import (
	"sort"
	"strconv"
	"strings"
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
	var sb strings.Builder
	w := func(parts ...string) {
		for i, s := range parts {
			if i > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(s)
		}
		sb.WriteByte('\n')
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	w("samples", strconv.Itoa(p.TotalSamples))
	w("kernel", f(p.KernelWeight))
	w("unattributed", f(p.Unattributed))

	ops := make([]int, 0, len(p.OpWeight))
	for id := range p.OpWeight {
		ops = append(ops, int(id))
	}
	sort.Ints(ops)
	for _, id := range ops {
		w("op", strconv.Itoa(id), f(p.OpWeight[ComponentID(id)]))
	}
	tasks := make([]int, 0, len(p.TaskWeight))
	for id := range p.TaskWeight {
		tasks = append(tasks, int(id))
	}
	sort.Ints(tasks)
	for _, id := range tasks {
		w("task", strconv.Itoa(id), f(p.TaskWeight[ComponentID(id)]))
	}
	irs := make([]int, 0, len(p.IRWeight))
	for id := range p.IRWeight {
		irs = append(irs, id)
	}
	sort.Ints(irs)
	for _, id := range irs {
		w("ir", strconv.Itoa(id), f(p.IRWeight[id]))
	}
	routines := make([]string, 0, len(p.RoutineCount))
	for name := range p.RoutineCount {
		routines = append(routines, name)
	}
	sort.Strings(routines)
	for _, name := range routines {
		w("routine", name, f(p.RoutineCount[name]))
	}
	for _, s := range p.Skips {
		w("skip", strconv.Itoa(s.Pipeline), s.Alias, strconv.Itoa(s.Zone),
			strconv.FormatInt(s.Lo, 10), strconv.FormatInt(s.Hi, 10),
			strconv.FormatInt(s.Hi-s.Lo, 10), s.Cause)
	}
	return []byte(sb.String())
}
