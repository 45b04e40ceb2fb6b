package verify

import (
	"testing"

	"repro/internal/core"
)

// cleanShardRun builds a consistent two-shard fixture over one pipeline:
// four zones of 100 rows, zone 1 filter-pruned and zone 2 pruned as absent,
// with the matching skip events.
func cleanShardRun() (map[string]int64, []core.ShardState, []core.SkipEvent) {
	rows := map[string]int64{"l": 400}
	journals := []core.ShardState{
		{Pipeline: 2, Alias: "l", Shard: 0, Lo: 0, Hi: 200, Rows: 200, Scanned: 100,
			Zones: []core.ZoneDecision{
				{Zone: 0, Lo: 0, Hi: 100},
				{Zone: 1, Lo: 100, Hi: 200, Pruned: true, Cause: core.SkipFilter},
			}},
		{Pipeline: 2, Alias: "l", Shard: 1, Lo: 200, Hi: 400, Rows: 200, Scanned: 100,
			Zones: []core.ZoneDecision{
				{Zone: 2, Lo: 200, Hi: 300, Pruned: true, Cause: core.SkipAbsent},
				{Zone: 3, Lo: 300, Hi: 400},
			}},
	}
	skips := []core.SkipEvent{
		{Pipeline: 2, Alias: "l", Shard: 0, Zone: 1, Lo: 100, Hi: 200, Rows: 100, Cause: core.SkipFilter},
		{Pipeline: 2, Alias: "l", Shard: 1, Zone: 2, Lo: 200, Hi: 300, Rows: 100, Cause: core.SkipAbsent},
	}
	return rows, journals, skips
}

func hasCheck(ds []Diag, check string) bool {
	for _, d := range ds {
		if d.Check == check {
			return true
		}
	}
	return false
}

func TestCheckShardsClean(t *testing.T) {
	rows, journals, skips := cleanShardRun()
	if ds := CheckShards(rows, journals, skips); len(ds) != 0 {
		t.Fatalf("clean fixture produced diagnostics: %v", ds)
	}
}

func TestCheckShardsCorruptions(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(rows map[string]int64, js []core.ShardState, sk []core.SkipEvent) (map[string]int64, []core.ShardState, []core.SkipEvent)
		want    string
	}{
		{"zone collision", func(rows map[string]int64, js []core.ShardState, sk []core.SkipEvent) (map[string]int64, []core.ShardState, []core.SkipEvent) {
			js[1].Zones[1].Zone = 0 // shard 1 re-claims shard 0's zone tag
			return rows, js, sk
		}, "shard/zone-collision"},
		{"zone gap", func(rows map[string]int64, js []core.ShardState, sk []core.SkipEvent) (map[string]int64, []core.ShardState, []core.SkipEvent) {
			js[0].Zones[1].Lo = 150
			return rows, js, sk
		}, "shard/zone-gap"},
		{"rows mismatch", func(rows map[string]int64, js []core.ShardState, sk []core.SkipEvent) (map[string]int64, []core.ShardState, []core.SkipEvent) {
			js[0].Rows = 150
			return rows, js, sk
		}, "shard/rows-mismatch"},
		{"scanned mismatch", func(rows map[string]int64, js []core.ShardState, sk []core.SkipEvent) (map[string]int64, []core.ShardState, []core.SkipEvent) {
			js[1].Scanned = 200 // claims it scanned the pruned zone too
			return rows, js, sk
		}, "shard/scanned-mismatch"},
		{"pruned flag", func(rows map[string]int64, js []core.ShardState, sk []core.SkipEvent) (map[string]int64, []core.ShardState, []core.SkipEvent) {
			js[0].Pruned = true
			return rows, js, sk
		}, "shard/pruned-flag"},
		{"cause missing", func(rows map[string]int64, js []core.ShardState, sk []core.SkipEvent) (map[string]int64, []core.ShardState, []core.SkipEvent) {
			js[0].Zones[1].Cause = ""
			return rows, js, sk
		}, "shard/cause-missing"},
		{"cause unknown", func(rows map[string]int64, js []core.ShardState, sk []core.SkipEvent) (map[string]int64, []core.ShardState, []core.SkipEvent) {
			js[0].Zones[1].Cause = "vibes"
			return rows, js, sk
		}, "shard/cause-unknown"},
		{"tile gap", func(rows map[string]int64, js []core.ShardState, sk []core.SkipEvent) (map[string]int64, []core.ShardState, []core.SkipEvent) {
			js[1].Lo = 250
			return rows, js, sk
		}, "shard/tile-gap"},
		{"tile short", func(rows map[string]int64, js []core.ShardState, sk []core.SkipEvent) (map[string]int64, []core.ShardState, []core.SkipEvent) {
			rows["l"] = 500 // table larger than the journaled shards cover
			return rows, js, sk
		}, "shard/tile-short"},
		{"unknown alias", func(rows map[string]int64, js []core.ShardState, sk []core.SkipEvent) (map[string]int64, []core.ShardState, []core.SkipEvent) {
			delete(rows, "l")
			return rows, js, sk
		}, "shard/unknown-alias"},
		{"skip missing", func(rows map[string]int64, js []core.ShardState, sk []core.SkipEvent) (map[string]int64, []core.ShardState, []core.SkipEvent) {
			return rows, js, sk[:1] // drop the absent zone's skip event
		}, "shard/skip-missing"},
		{"skip orphan", func(rows map[string]int64, js []core.ShardState, sk []core.SkipEvent) (map[string]int64, []core.ShardState, []core.SkipEvent) {
			sk = append(sk, core.SkipEvent{Pipeline: 2, Alias: "l", Zone: 9, Lo: 900, Hi: 950, Rows: 50, Cause: core.SkipFilter})
			return rows, js, sk
		}, "shard/skip-orphan"},
		{"skip duplicate", func(rows map[string]int64, js []core.ShardState, sk []core.SkipEvent) (map[string]int64, []core.ShardState, []core.SkipEvent) {
			return rows, js, append(sk, sk[0])
		}, "shard/skip-duplicate"},
		{"skip range", func(rows map[string]int64, js []core.ShardState, sk []core.SkipEvent) (map[string]int64, []core.ShardState, []core.SkipEvent) {
			sk[0].Hi = 180
			return rows, js, sk
		}, "shard/skip-range"},
		{"skip cause", func(rows map[string]int64, js []core.ShardState, sk []core.SkipEvent) (map[string]int64, []core.ShardState, []core.SkipEvent) {
			sk[1].Cause = core.SkipSemiJoin
			return rows, js, sk
		}, "shard/skip-cause"},
		{"skip shard", func(rows map[string]int64, js []core.ShardState, sk []core.SkipEvent) (map[string]int64, []core.ShardState, []core.SkipEvent) {
			sk[0].Shard = 1
			return rows, js, sk
		}, "shard/skip-shard"},
	}
	for _, tc := range cases {
		rows, journals, skips := cleanShardRun()
		rows, journals, skips = tc.corrupt(rows, journals, skips)
		ds := CheckShards(rows, journals, skips)
		if !hasCheck(ds, tc.want) {
			t.Errorf("%s: expected a %s diagnostic, got %v", tc.name, tc.want, ds)
		}
	}
}
