package viz

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

func TestShardSummary(t *testing.T) {
	if got := ShardSummary(&engine.Result{}); got != "" {
		t.Fatalf("unsharded result rendered a summary: %q", got)
	}

	res := &engine.Result{
		Shards: 2,
		ShardStates: []engine.ShardState{
			{Pipeline: 0, Alias: "l", Shard: 0, Lo: 0, Hi: 200, Morsels: 1,
				Zones: []engine.ZoneDecision{
					{Zone: 0, Lo: 0, Hi: 100},
					{Zone: 1, Lo: 100, Hi: 200, Cause: core.SkipFilter},
				}},
			{Pipeline: 0, Alias: "l", Shard: 1, Lo: 200, Hi: 400,
				Zones: []engine.ZoneDecision{
					{Zone: 2, Lo: 200, Hi: 300, Cause: core.SkipAbsent},
					{Zone: 3, Lo: 300, Hi: 400, Cause: core.SkipFilter},
				}},
		},
	}
	got := ShardSummary(res)
	for _, want := range []string{
		"shard pruning (2 shards):",
		"pipeline 0 scan l: 3/4 zones pruned (2 filter, 1 absent); 100/400 rows scanned",
		"shard 0 [0,200): 1/2 zones pruned, 100 rows scanned, 1 morsels",
		"shard 1 [200,400): 2/2 zones pruned, 0 rows scanned, 0 morsels  [whole shard skipped]",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("summary missing %q:\n%s", want, got)
		}
	}
}
