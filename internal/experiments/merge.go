package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/pipeline"
	"repro/internal/pmu"
	"repro/internal/queries"
	"repro/internal/ref"
	"repro/internal/viz"
	"repro/internal/vm"
)

// MergeRow is one measurement of the merge-scaling benchmark, serialized
// into BENCH_merge.json.
type MergeRow struct {
	Query string `json:"query"`
	// Workers 0 is the serial executor (the determinism oracle).
	Workers int `json:"workers"`
	// Mode: "serial" or "partitioned" (generated merge kernels).
	Mode       string `json:"mode"`
	WallCycles uint64 `json:"wall_cycles"`
	// MergeCycles is the simulated merge-phase makespan: the slowest
	// worker's partition-merge kernel cycles plus the coordinator's
	// placement kernel. Zero for serial rows.
	MergeCycles uint64 `json:"merge_cycles"`
	// RowsIdentical: results byte-compare equal to the workers=0 oracle.
	RowsIdentical bool `json:"rows_identical"`
}

// Merge measures the partitioned parallel merge (DESIGN.md §11): a
// join-build-heavy workload (fig9) and two group-by workloads (q6, q1)
// run at workers 0/1/2/4/8 with the generated merge kernels. Because the
// merge kernels are profiled code, their cycles are simulated time — the
// table reports the merge-phase makespan and the scaling gate the CI
// enforces: the 4-worker merge phase must be at least 2x faster than the
// same kernels run serially on one worker. Rows must be identical to the
// serial oracle in every configuration. The lanes plot overlays
// merge-kernel samples ('^') on the fig9 8-worker run.
func (e *Env) Merge() (string, []MergeRow, error) {
	var sb strings.Builder
	sb.WriteString("## Partitioned parallel merge scaling\n\n")
	fmt.Fprintf(&sb, "%-8s %-13s %8s %12s %12s %10s\n",
		"query", "mode", "workers", "wall cycles", "merge cycles", "rows")

	var rows []MergeRow
	var lanes string
	counts := []int{1, 2, 4, 8}
	for _, name := range []string{"fig9", "q6", "q1"} {
		w, ok := queries.ByName(name)
		if !ok {
			return "", nil, fmt.Errorf("no workload %s", name)
		}

		// Serial oracle.
		eng := e.engine()
		cq, err := eng.CompileQuery(w.Query)
		if err != nil {
			return "", nil, fmt.Errorf("%s: %w", name, err)
		}
		oracle, err := eng.Run(cq, nil)
		if err != nil {
			return "", nil, fmt.Errorf("%s serial: %w", name, err)
		}
		rows = append(rows, MergeRow{
			Query: name, Workers: 0, Mode: "serial",
			WallCycles: oracle.Stats.Cycles, RowsIdentical: true,
		})
		fmt.Fprintf(&sb, "%-8s %-13s %8d %12d %12s %10s\n",
			name, "serial", 0, oracle.Stats.Cycles, "-", "oracle")

		for _, workers := range counts {
			opts := engine.DefaultOptions()
			opts.Workers = workers
			peng := engine.New(e.Cat, opts)
			pcq, err := peng.CompileQuery(w.Query)
			if err != nil {
				return "", nil, fmt.Errorf("%s: %w", name, err)
			}
			res, err := peng.Run(pcq, &pmu.Config{
				Event: vm.EvInstRetired, Period: DefaultPeriod, Format: pmu.FormatIPTimeRegs,
			})
			if err != nil {
				return "", nil, fmt.Errorf("%s workers=%d: %w", name, workers, err)
			}
			// Compared in order: the partitioned merge reconstructs the
			// serial heap byte for byte, so even rows without an ORDER BY
			// may not move.
			same := ref.SameRows(res.Rows, oracle.Rows, true)
			rows = append(rows, MergeRow{
				Query: name, Workers: workers, Mode: "partitioned",
				WallCycles: res.WallCycles, MergeCycles: res.MergeCycles,
				RowsIdentical: same,
			})
			status := "identical"
			if !same {
				status = "DIFFER"
			}
			fmt.Fprintf(&sb, "%-8s %-13s %8d %12d %12d %10s\n",
				name, "partitioned", workers, res.WallCycles, res.MergeCycles, status)

			if name == "fig9" && workers == 8 {
				att := core.NewAttributor(pcq.Pipe.Dict, pcq.Code.NMap)
				isMerge := func(s *core.Sample) bool {
					for _, cr := range att.Attribute(s).Credits {
						if c, found := pcq.Pipe.Registry.Lookup(cr.Task); found && pipeline.MergeRole(c.Kind) {
							return true
						}
					}
					return false
				}
				lanes = viz.WorkerLanesTagged(res.Samples, 60, isMerge)
			}
		}
	}

	// The CI gate, restated from the measured rows.
	gate := func(q string, workers int) uint64 {
		for _, r := range rows {
			if r.Query == q && r.Mode == "partitioned" && r.Workers == workers {
				return r.MergeCycles
			}
		}
		return 0
	}
	m1, m4 := gate("fig9", 1), gate("fig9", 4)
	fmt.Fprintf(&sb, "\nmerge-phase gate (fig9 join build): %d cycles at 1 worker, %d at 4 (%.2fx; CI requires >= 2x)\n",
		m1, m4, float64(m1)/float64(m4))
	sb.WriteString("\nmerge-kernel samples overlaid '^' on the fig9 8-worker lanes:\n")
	sb.WriteString(lanes)
	return sb.String(), rows, nil
}
