package verify

import (
	"testing"

	"repro/internal/core"
)

// cleanShardRun builds a consistent fixture of two pipelines: a two-shard
// scan of l over four zones of 100 rows, zone 1 filter-pruned and zone 2
// pruned as absent, and an unsplit scan of o, one zone of 100 rows.
func cleanShardRun() (map[string]int64, []core.ShardState) {
	rows := map[string]int64{"l": 400, "o": 100}
	journals := []core.ShardState{
		{Pipeline: 2, Alias: "l", Shard: 0, Lo: 0, Hi: 200,
			Zones: []core.ZoneDecision{
				{Zone: 0, Lo: 0, Hi: 100},
				{Zone: 1, Lo: 100, Hi: 200, Cause: core.SkipFilter},
			}},
		{Pipeline: 2, Alias: "l", Shard: 1, Lo: 200, Hi: 400,
			Zones: []core.ZoneDecision{
				{Zone: 2, Lo: 200, Hi: 300, Cause: core.SkipAbsent},
				{Zone: 3, Lo: 300, Hi: 400},
			}},
		{Pipeline: 3, Alias: "o", Shard: 0, Lo: 0, Hi: 100,
			Zones: []core.ZoneDecision{{Zone: 0, Lo: 0, Hi: 100}}},
	}
	return rows, journals
}

func hasCheck(ds []core.Diag, check string) bool {
	for _, d := range ds {
		if d.Check == check {
			return true
		}
	}
	return false
}

func TestCheckShardsClean(t *testing.T) {
	rows, journals := cleanShardRun()
	if ds := CheckShards(rows, journals); len(ds) != 0 {
		t.Fatalf("clean fixture produced diagnostics: %v", ds)
	}
}

func TestCheckShardsCorruptions(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(rows map[string]int64, js []core.ShardState) (map[string]int64, []core.ShardState)
		want    string
	}{
		{"tile gap", func(rows map[string]int64, js []core.ShardState) (map[string]int64, []core.ShardState) {
			js[1].Lo = 250
			return rows, js
		}, "shard/tile-gap"},
		{"tile short", func(rows map[string]int64, js []core.ShardState) (map[string]int64, []core.ShardState) {
			rows["l"] = 500 // table larger than the journaled shards cover
			return rows, js
		}, "shard/tile-short"},
		{"unsplit scan journal dropped", func(rows map[string]int64, js []core.ShardState) (map[string]int64, []core.ShardState) {
			return rows, js[:2]
		}, "shard/tile-short"},
		{"unknown alias", func(rows map[string]int64, js []core.ShardState) (map[string]int64, []core.ShardState) {
			delete(rows, "l")
			return rows, js
		}, "shard/unknown-alias"},
	}
	for _, tc := range cases {
		rows, journals := cleanShardRun()
		rows, journals = tc.corrupt(rows, journals)
		ds := CheckShards(rows, journals)
		if !hasCheck(ds, tc.want) {
			t.Errorf("%s: expected a %s diagnostic, got %v", tc.name, tc.want, ds)
		}
	}
}
