package verify

import (
	"fmt"

	"repro/internal/core"
)

// Shard-journal verification (`tprofvet check -shard`, DESIGN.md §13).
//
// A sharded run leaves two trails: per-shard lineage journals (which
// zones each shard owned and what the coordinator decided about them) and
// zero-cost skip events in the merged profile (one per pruned zone). The
// attribution contract is that the two trails merge without collisions
// and cover the table exactly — every table row is accounted for either
// by a scanned zone or by a matching skip event. This checker replays the
// journals structurally; both trails are core types, so the package needs
// no engine import (the engine depends on verify, not the other way
// around).

func shardDiag(check, locus, format string, args ...interface{}) Diag {
	return Diag{Check: check, Level: core.LevelTask,
		Locus: locus, Msg: fmt.Sprintf(format, args...)}
}

// CheckShards verifies one run's shard journals against the scanned
// tables' row counts and the merged profile's skip events. tableRows maps
// each journaled scan alias to its table's row count.
func CheckShards(tableRows map[string]int64, journals []core.ShardState, skips []core.SkipEvent) []Diag {
	var out []Diag

	type zkey struct {
		pipe, zone int
	}
	zoneOwner := map[zkey]int{}
	prunedZones := map[zkey]core.ZoneDecision{}
	byPipe := map[int][]core.ShardState{}

	for _, j := range journals {
		locus := fmt.Sprintf("%s shard %d", j.Alias, j.Shard)
		byPipe[j.Pipeline] = append(byPipe[j.Pipeline], j)

		var rows, scanned int64
		next := j.Lo
		for _, z := range j.Zones {
			k := zkey{j.Pipeline, z.Zone}
			if prev, dup := zoneOwner[k]; dup {
				out = append(out, shardDiag("shard/zone-collision", locus,
					"zone %d already claimed by shard %d (tag collision)", z.Zone, prev))
			}
			zoneOwner[k] = j.Shard
			if z.Lo != next {
				out = append(out, shardDiag("shard/zone-gap", locus,
					"zone %d covers [%d,%d), expected to start at %d", z.Zone, z.Lo, z.Hi, next))
			}
			next = z.Hi
			rows += z.Hi - z.Lo
			switch {
			case z.Pruned && z.Cause == "":
				out = append(out, shardDiag("shard/cause-missing", locus,
					"pruned zone %d carries no skip cause", z.Zone))
			case z.Pruned:
				if z.Cause != core.SkipFilter && z.Cause != core.SkipSemiJoin && z.Cause != core.SkipAbsent {
					out = append(out, shardDiag("shard/cause-unknown", locus,
						"pruned zone %d has unknown cause %q", z.Zone, z.Cause))
				}
				prunedZones[k] = z
			default:
				scanned += z.Hi - z.Lo
				if z.Cause != "" {
					out = append(out, shardDiag("shard/cause-spurious", locus,
						"surviving zone %d carries cause %q", z.Zone, z.Cause))
				}
			}
		}
		if next != j.Hi {
			out = append(out, shardDiag("shard/zone-short", locus,
				"zones end at %d, shard owns [%d,%d)", next, j.Lo, j.Hi))
		}
		if rows != j.Rows {
			out = append(out, shardDiag("shard/rows-mismatch", locus,
				"zones cover %d rows, journal claims %d", rows, j.Rows))
		}
		if scanned != j.Scanned {
			out = append(out, shardDiag("shard/scanned-mismatch", locus,
				"surviving zones hold %d rows, journal claims scanned %d", scanned, j.Scanned))
		}
		if j.Pruned != (scanned == 0 && len(j.Zones) > 0) {
			out = append(out, shardDiag("shard/pruned-flag", locus,
				"whole-shard pruned flag %v disagrees with %d surviving rows", j.Pruned, scanned))
		}
	}

	// Per pipeline: shards tile the scanned table [0, rows) contiguously.
	for pipe, js := range byPipe {
		alias := js[0].Alias
		locus := fmt.Sprintf("%s pipeline %d", alias, pipe)
		next := int64(0)
		for _, j := range js {
			if j.Lo != next {
				out = append(out, shardDiag("shard/tile-gap", locus,
					"shard %d starts at %d, expected %d", j.Shard, j.Lo, next))
			}
			next = j.Hi
		}
		want, ok := tableRows[alias]
		if !ok {
			out = append(out, shardDiag("shard/unknown-alias", locus,
				"no table row count supplied for journaled scan"))
			continue
		}
		if next != want {
			out = append(out, shardDiag("shard/tile-short", locus,
				"shards cover [0,%d), table has %d rows", next, want))
		}
	}

	// Pruned zones and skip events are in bijection, and agree on every
	// field the profile records.
	seen := map[zkey]bool{}
	for _, sk := range skips {
		k := zkey{sk.Pipeline, sk.Zone}
		locus := fmt.Sprintf("%s zone %d", sk.Alias, sk.Zone)
		if seen[k] {
			out = append(out, shardDiag("shard/skip-duplicate", locus,
				"zone has two skip events in the merged profile"))
			continue
		}
		seen[k] = true
		z, ok := prunedZones[k]
		if !ok {
			out = append(out, shardDiag("shard/skip-orphan", locus,
				"skip event has no pruned zone in any journal"))
			continue
		}
		if sk.Lo != z.Lo || sk.Hi != z.Hi || sk.Rows != z.Hi-z.Lo {
			out = append(out, shardDiag("shard/skip-range", locus,
				"skip event spans [%d,%d) rows=%d, journal says [%d,%d)", sk.Lo, sk.Hi, sk.Rows, z.Lo, z.Hi))
		}
		if sk.Cause != z.Cause {
			out = append(out, shardDiag("shard/skip-cause", locus,
				"skip cause %q, journal says %q", sk.Cause, z.Cause))
		}
		if want := zoneOwner[k]; sk.Shard != want {
			out = append(out, shardDiag("shard/skip-shard", locus,
				"skip stamped shard %d, journal owner is %d", sk.Shard, want))
		}
	}
	for k := range prunedZones {
		if !seen[k] {
			out = append(out, shardDiag("shard/skip-missing",
				fmt.Sprintf("pipeline %d zone %d", k.pipe, k.zone),
				"pruned zone has no skip event in the merged profile"))
		}
	}
	return out
}
