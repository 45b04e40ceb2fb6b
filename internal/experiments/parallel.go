package experiments

import (
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/pmu"
	"repro/internal/queries"
	"repro/internal/viz"
	"repro/internal/vm"
)

// ScalingPoint is one row of the scaling table: a workload's speedup on
// Workers simulated cores over its one-worker run, in wall cycles.
type ScalingPoint struct {
	Query   string
	Workers int
	Speedup float64
}

// Parallel measures morsel-driven scaling: each workload runs on 1, 2, 4,
// and 8 simulated cores and reports the simulated wall clock, the speedup
// over one core, and — as a determinism check — the merged instruction-
// sample count, which must not depend on the worker count. The per-worker
// density lanes of the largest run visualize the scheduler's load balance
// (one PEBS buffer per hardware thread, merged bottom-up, as the paper's
// §5 multi-threading support describes).
func (e *Env) Parallel() (string, []ScalingPoint, error) {
	var sb strings.Builder
	sb.WriteString("## Morsel-driven parallel scaling\n\n")
	fmt.Fprintf(&sb, "%-10s %8s %12s %10s %10s\n", "query", "workers", "wall cycles", "speedup", "samples")

	workloads := []string{"q1", "q6", "fig9", "q3"}
	counts := []int{1, 2, 4, 8}
	var lanes string
	var points []ScalingPoint
	for _, name := range workloads {
		w, ok := queries.ByName(name)
		if !ok {
			return "", nil, fmt.Errorf("no workload %s", name)
		}
		var base uint64
		var baseSamples int
		for _, workers := range counts {
			opts := engine.DefaultOptions()
			opts.Workers = workers
			eng := engine.New(e.Cat, opts)
			cq, err := eng.CompileQuery(w.Query)
			if err != nil {
				return "", nil, fmt.Errorf("%s: %w", name, err)
			}
			res, err := eng.Run(cq, &pmu.Config{Event: vm.EvInstRetired, Period: DefaultPeriod, Format: pmu.FormatIPTimeRegs})
			if err != nil {
				return "", nil, fmt.Errorf("%s workers=%d: %w", name, workers, err)
			}
			if workers == 1 {
				base = res.WallCycles
				baseSamples = len(res.Samples)
			}
			mark := ""
			if len(res.Samples) != baseSamples {
				mark = " (!)"
			}
			speedup := float64(base) / float64(res.WallCycles)
			fmt.Fprintf(&sb, "%-10s %8d %12d %9.2fx %9d%s\n",
				name, workers, res.WallCycles, speedup, len(res.Samples), mark)
			points = append(points, ScalingPoint{name, workers, speedup})
			if name == "fig9" && workers == 8 {
				lanes = viz.WorkerLanes(res.Samples, 60)
			}
		}
	}
	sb.WriteString("\n")
	sb.WriteString(lanes)
	return sb.String(), points, nil
}
