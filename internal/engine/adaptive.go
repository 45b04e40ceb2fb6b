package engine

// Adaptive execution: Session.Adapt runs a statement once, sampled, hands
// back the profile, and feeds the true cardinalities — from that run, or
// from one counter run — into the service's history (see service.go). No
// profile steers a compile: a guided recompile must beat the
// estimate-driven one it refines, and the last one (spill priority) ran
// the same cycles on every suite plan (DESIGN.md §8).

import (
	"repro/internal/pmu"
	"repro/internal/ref"
	"repro/internal/vm"
)

// DefaultAdaptSampling is the sampling configuration Session.Adapt uses
// when none is given: the cycles event at the paper's default period, with
// timestamps and registers (for Register Tagging).
func DefaultAdaptSampling() pmu.Config {
	return pmu.Config{Event: vm.EvCycles, Period: 5000, Format: pmu.FormatIPTimeRegs}
}

// AdaptiveResult reports one Session.Adapt: its one sampled run.
type AdaptiveResult struct {
	// ProfileRun is the sampled execution; its Profile is the statement's
	// profile.
	ProfileRun *Result
	// Baseline and Tuned are ProfileRun, and BaselineCycles and
	// TunedCycles its WallCycles. They are kept only for the benchmark's
	// dashboard workload (bench/dashboard_ingest.go), until it may change.
	Baseline *Result
	Tuned    *Result

	BaselineCycles uint64
	TunedCycles    uint64
}

// CycleReduction is 0: Baseline and Tuned are one run.
func (r *AdaptiveResult) CycleReduction() float64 { return 0 }

// RowsEqual reports exact equality of two result sets, row order
// included.
func RowsEqual(a, b [][]int64) bool { return ref.SameRows(a, b, true) }
