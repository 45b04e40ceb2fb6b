package viz

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
)

// ShardSummary renders the cross-shard coordinator's outcome for one run:
// per scan pipeline, how many zones each shard owned, how many were
// pruned and why, and how much of the table actually ran. minidb prints
// it under -analyze so EXPLAIN ANALYZE shows not just what executed but
// what was *proven unnecessary* — the skip events are the zero-cost
// complement of the tuple counts. Empty for unsharded runs.
func ShardSummary(res *engine.Result) string {
	if res == nil || res.Shards == 0 || len(res.ShardStates) == 0 {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "shard pruning (%d shards):\n", res.Shards)

	// Group journals by pipeline, in pipeline order.
	byPipe := map[int][]engine.ShardState{}
	var pipes []int
	for _, st := range res.ShardStates {
		if len(byPipe[st.Pipeline]) == 0 {
			pipes = append(pipes, st.Pipeline)
		}
		byPipe[st.Pipeline] = append(byPipe[st.Pipeline], st)
	}
	sort.Ints(pipes)

	for _, pi := range pipes {
		states := byPipe[pi]
		var zones, pruned int
		var rows, scanned int64
		causes := map[string]int{}
		for _, st := range states {
			zones += len(st.Zones)
			rows += st.Rows()
			scanned += st.Scanned()
			for _, z := range st.Zones {
				if z.Cause != "" {
					pruned++
					causes[z.Cause]++
				}
			}
		}
		fmt.Fprintf(&sb, "  pipeline %d scan %s: %d/%d zones pruned%s; %d/%d rows scanned\n",
			pi, states[0].Alias, pruned, zones, causeList(causes), scanned, rows)
		for _, st := range states {
			zp := 0
			for _, z := range st.Zones {
				if z.Cause != "" {
					zp++
				}
			}
			mark := ""
			if st.Pruned() {
				mark = "  [whole shard skipped]"
			}
			fmt.Fprintf(&sb, "    shard %d [%d,%d): %d/%d zones pruned, %d rows scanned, %d morsels%s\n",
				st.Shard, st.Lo, st.Hi, zp, len(st.Zones), st.Scanned(), st.Morsels, mark)
		}
	}
	return sb.String()
}

// causeList renders a pipeline's skip-cause tally as " (a filter, b
// semijoin, c absent)", omitting causes with no zone; empty when nothing
// was pruned.
func causeList(tally map[string]int) string {
	if len(tally) == 0 {
		return ""
	}
	var parts []string
	for _, c := range []string{core.SkipFilter, core.SkipSemiJoin, core.SkipAbsent} {
		if n := tally[c]; n > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", n, c))
		}
	}
	return " (" + strings.Join(parts, ", ") + ")"
}
