package engine

// Profile-guided recompilation: the Tagging Dictionary's lineage lets
// samples flow bottom-up to IR instructions, tasks and operators; this
// file closes the loop by feeding the profile's IR weights back down into
// the spill allocator. One adaptive cycle is: run sampled → build the
// profile → recompile guided by it → re-run → compare cycles. The
// recompiled binary must produce row-identical results, and it lays out
// and optimizes exactly like the unguided one, so profiling it yields
// another valid, normalized profile — the cycle can repeat.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/pmu"
	"repro/internal/ref"
	"repro/internal/vm"
)

// DefaultPGOSampling is the sampling configuration RunAdaptive uses when
// none is given: the cycles event at the paper's default period, with
// timestamps and registers (for Register Tagging).
func DefaultPGOSampling() pmu.Config {
	return pmu.Config{Event: vm.EvCycles, Period: 5000, Format: pmu.FormatIPTimeRegs}
}

// AdaptiveResult reports one profile → recompile → re-run cycle.
type AdaptiveResult struct {
	// ProfileRun is the sampled execution of the original binary that
	// produced the guiding profile.
	ProfileRun *Result
	// Baseline and Tuned are unprofiled executions of the original and
	// recompiled binaries; their WallCycles are directly comparable.
	Baseline *Result
	Tuned    *Result
	// Recompiled is the profile-guided compilation.
	Recompiled *Compiled

	BaselineCycles uint64
	TunedCycles    uint64
}

// Speedup returns baseline/tuned simulated wall cycles (>1 is faster).
func (r *AdaptiveResult) Speedup() float64 {
	if r.TunedCycles == 0 {
		return 0
	}
	return float64(r.BaselineCycles) / float64(r.TunedCycles)
}

// CycleReduction returns the fractional wall-cycle reduction, e.g. 0.12
// for a 12% faster tuned binary.
func (r *AdaptiveResult) CycleReduction() float64 {
	if r.BaselineCycles == 0 {
		return 0
	}
	return 1 - float64(r.TunedCycles)/float64(r.BaselineCycles)
}

// RunAdaptive executes one adaptive cycle for a compiled query: a sampled
// run under cfg (nil selects DefaultPGOSampling), a recompilation guided
// by the resulting profile, and unprofiled runs of both binaries. It
// fails if the recompiled query's rows differ from the original's in any
// way — profile-guided recompilation is only an optimization if it is
// invisible.
func (e *Engine) RunAdaptive(cq *Compiled, cfg *pmu.Config) (*AdaptiveResult, error) {
	return runAdaptive(&executor{Opts: e.Opts}, cq, nil, cfg, func(prof *core.Profile) (*Compiled, error) {
		return e.CompilePlanGuided(cq.Plan, prof.IRWeight)
	})
}

// runAdaptive is the adaptive cycle with per-session run state (nil for
// parameterless plans). recompile builds cq's plan again exactly as cq was
// built, plus the profile's IR weights in the spill allocator. The tuned
// artifact is compiled for the same parameterized plan, so it remains
// valid for any future binding of the same fingerprint.
func runAdaptive(x *executor, cq *Compiled, rs *RunState, cfg *pmu.Config, recompile func(*core.Profile) (*Compiled, error)) (*AdaptiveResult, error) {
	if cfg == nil {
		d := DefaultPGOSampling()
		cfg = &d
	}
	profRun, err := x.run(cq, rs, 1, cfg)
	if err != nil {
		return nil, fmt.Errorf("engine: adaptive profiling run: %w", err)
	}
	if profRun.Profile == nil {
		return nil, fmt.Errorf("engine: adaptive profiling run produced no profile")
	}
	tunedCq, err := recompile(profRun.Profile)
	if err != nil {
		return nil, fmt.Errorf("engine: recompile: %w", err)
	}
	baseline, err := x.run(cq, rs, 1, nil)
	if err != nil {
		return nil, fmt.Errorf("engine: baseline run: %w", err)
	}
	tuned, err := x.run(tunedCq, rs, 1, nil)
	if err != nil {
		return nil, fmt.Errorf("engine: tuned run: %w", err)
	}
	if !RowsEqual(baseline.Rows, tuned.Rows) {
		return nil, fmt.Errorf("engine: recompiled query changed results (%d vs %d rows)",
			len(baseline.Rows), len(tuned.Rows))
	}
	return &AdaptiveResult{
		ProfileRun:     profRun,
		Baseline:       baseline,
		Tuned:          tuned,
		Recompiled:     tunedCq,
		BaselineCycles: baseline.WallCycles,
		TunedCycles:    tuned.WallCycles,
	}, nil
}

// RowsEqual reports exact equality of two result sets, row order
// included: a guided recompile differs only in register allocation,
// which preserves tuple processing order, so even pre-ORDER-BY tie order
// must survive recompilation.
func RowsEqual(a, b [][]int64) bool { return ref.SameRows(a, b, true) }
