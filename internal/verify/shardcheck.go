package verify

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/plan"
)

// Shard-journal verification (`tprofvet check -shard`, DESIGN.md §13).
//
// A sharded run leaves one trail: per-shard lineage journals recording
// which zones each shard owned and the coordinator's verdict on each. The
// merged profile's skip events are derived from them (core.Skips), so the
// attribution contract — every table row is accounted for either by a
// scanned zone or by a skip — holds when the journals merge without
// collisions and tile the table exactly. This checker replays the
// journals structurally; they are core types, so the package needs no
// engine import (the engine depends on verify, not the other way around).

// ScanRows maps each scan alias of a plan to its table's row count: the
// tableRows CheckShards replays a run of the plan against.
func ScanRows(root *plan.Output) map[string]int64 {
	rows := map[string]int64{}
	plan.Walk(root, func(n plan.Node) {
		if s, ok := n.(*plan.Scan); ok {
			rows[s.Alias] = int64(s.Table.Rows())
		}
	})
	return rows
}

// CheckShards verifies one run's shard journals against the scanned
// tables' row counts. tableRows maps each scan alias of the run's plan to
// its table's row count (ScanRows); every alias with rows must be
// journaled, since the coordinator journals every scan it runs.
func CheckShards(tableRows map[string]int64, journals []core.ShardState) []core.Diag {
	var out []core.Diag

	type zkey struct {
		pipe, zone int
	}
	zoneOwner := map[zkey]int{}
	byPipe := map[int][]core.ShardState{}

	for _, j := range journals {
		locus := fmt.Sprintf("%s shard %d", j.Alias, j.Shard)
		byPipe[j.Pipeline] = append(byPipe[j.Pipeline], j)

		next := j.Lo
		for _, z := range j.Zones {
			k := zkey{j.Pipeline, z.Zone}
			if prev, dup := zoneOwner[k]; dup {
				out = append(out, core.Diagf("shard/zone-collision", core.LevelTask, locus,
					"zone %d already claimed by shard %d (tag collision)", z.Zone, prev))
			}
			zoneOwner[k] = j.Shard
			if z.Lo != next {
				out = append(out, core.Diagf("shard/zone-gap", core.LevelTask, locus,
					"zone %d covers [%d,%d), expected to start at %d", z.Zone, z.Lo, z.Hi, next))
			}
			next = z.Hi
			if z.Cause != "" && z.Cause != core.SkipFilter && z.Cause != core.SkipSemiJoin && z.Cause != core.SkipAbsent {
				out = append(out, core.Diagf("shard/cause-unknown", core.LevelTask, locus,
					"pruned zone %d has unknown cause %q", z.Zone, z.Cause))
			}
		}
		if next != j.Hi {
			out = append(out, core.Diagf("shard/zone-short", core.LevelTask, locus,
				"zones end at %d, shard owns [%d,%d)", next, j.Lo, j.Hi))
		}
	}

	// Per pipeline: shards tile the scanned table [0, rows) contiguously.
	journaled := map[string]bool{}
	for pipe, js := range byPipe {
		alias := js[0].Alias
		journaled[alias] = true
		locus := fmt.Sprintf("%s pipeline %d", alias, pipe)
		next := int64(0)
		for _, j := range js {
			if j.Lo != next {
				out = append(out, core.Diagf("shard/tile-gap", core.LevelTask, locus,
					"shard %d starts at %d, expected %d", j.Shard, j.Lo, next))
			}
			next = j.Hi
		}
		want, ok := tableRows[alias]
		if !ok {
			out = append(out, core.Diagf("shard/unknown-alias", core.LevelTask, locus,
				"no table row count supplied for journaled scan"))
			continue
		}
		if next != want {
			out = append(out, core.Diagf("shard/tile-short", core.LevelTask, locus,
				"shards cover [0,%d), table has %d rows", next, want))
		}
	}
	// A scanned table with rows and no journal at all: nothing tiles it.
	var unjournaled []string
	for alias, rows := range tableRows {
		if rows > 0 && !journaled[alias] {
			unjournaled = append(unjournaled, alias)
		}
	}
	slices.Sort(unjournaled)
	for _, alias := range unjournaled {
		out = append(out, core.Diagf("shard/tile-short", core.LevelTask, alias,
			"no shard journal covers the scan, table has %d rows", tableRows[alias]))
	}
	return out
}
