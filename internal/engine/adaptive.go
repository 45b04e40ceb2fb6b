package engine

// Adaptive execution: Session.Adapt runs a statement sampled, hands back
// the profile, and feeds the run's true cardinalities into the service's
// history (see service.go). No profile steers a compile: a guided
// recompile must beat the estimate-driven one it refines, and the last
// one (spill priority) ran the same cycles on every suite plan (DESIGN.md
// §8).

import (
	"repro/internal/pmu"
	"repro/internal/ref"
	"repro/internal/vm"
)

// DefaultPGOSampling is the sampling configuration Session.Adapt uses when
// none is given: the cycles event at the paper's default period, with
// timestamps and registers (for Register Tagging).
func DefaultPGOSampling() pmu.Config {
	return pmu.Config{Event: vm.EvCycles, Period: 5000, Format: pmu.FormatIPTimeRegs}
}

// AdaptiveResult reports one Session.Adapt: the sampled run and one
// unprofiled run of the same artifact.
type AdaptiveResult struct {
	// ProfileRun is the sampled execution; its Profile is the statement's
	// profile.
	ProfileRun *Result
	// Baseline is the unprofiled execution. Tuned is the same *Result:
	// Adapt compiles nothing, so there is no second binary to run.
	Baseline *Result
	Tuned    *Result

	BaselineCycles uint64
	TunedCycles    uint64
}

// CycleReduction returns the fractional wall-cycle reduction of Tuned
// against Baseline, which is 0 since both are one run.
func (r *AdaptiveResult) CycleReduction() float64 {
	if r.BaselineCycles == 0 {
		return 0
	}
	return 1 - float64(r.TunedCycles)/float64(r.BaselineCycles)
}

// RowsEqual reports exact equality of two result sets, row order
// included.
func RowsEqual(a, b [][]int64) bool { return ref.SameRows(a, b, true) }
