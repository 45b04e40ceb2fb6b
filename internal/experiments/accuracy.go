package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ir"
	"repro/internal/plan"
	"repro/internal/pmu"
	"repro/internal/queries"
	"repro/internal/vm"
)

// AccuracyStats carries the §6.3 measurements.
type AccuracyStats struct {
	TagChecked    int
	TagMismatches int

	TSCDeltaMean float64
	TSCDeltaDev  float64 // mean absolute deviation from the mean

	LoadSamplesOnLoads     float64 // fraction
	BranchMissOnBranches   float64
	LoadSamples, BranchMis int
}

// crossCheckPeriod is §6.3(a)'s sampling period in cycles: a prime, and
// short enough that the cross-check of the intro-nogj run sees ≥ 500
// samples at sf 0.15 (TestAccuracyZeroMismatches).
const crossCheckPeriod = 499

// Accuracy reproduces the §6.3 validation: (a) cross-check sampled
// instruction pointers against Register Tagging applied to *all* generated
// code, (b) verify TSC timestamps reflect the sampling distance, and
// (c) check event plausibility (load samples point at loads, branch-miss
// samples at branches).
func (e *Env) Accuracy() (string, *AccuracyStats, error) {
	st := &AccuracyStats{}
	var sb strings.Builder
	sb.WriteString("=== §6.3: accuracy ===\n\n")

	// (a) Tag-everything cross-check.
	var err error
	st.TagChecked, st.TagMismatches, err = tagCrossCheck(e.Cat, queries.Intro(true).Query)
	if err != nil {
		return "", nil, err
	}
	fmt.Fprintf(&sb, "(a) IP vs tag-everywhere cross-check: %d samples checked, %d mismatches (paper: 0)\n",
		st.TagChecked, st.TagMismatches)

	// (b) TSC deltas at a fixed sampling period.
	_, res2, err := e.profileQuery(queries.Fig9(), DefaultPeriod)
	if err != nil {
		return "", nil, err
	}
	var deltas []float64
	for i := 1; i < len(res2.Samples); i++ {
		deltas = append(deltas, float64(res2.Samples[i].TSC-res2.Samples[i-1].TSC))
	}
	if len(deltas) > 0 {
		sum := 0.0
		for _, d := range deltas {
			sum += d
		}
		st.TSCDeltaMean = sum / float64(len(deltas))
		dev := 0.0
		for _, d := range deltas {
			dev += math.Abs(d - st.TSCDeltaMean)
		}
		st.TSCDeltaDev = dev / float64(len(deltas))
	}
	fmt.Fprintf(&sb, "(b) TSC deltas at period %d cycles: mean %.0f, mean abs deviation %.0f cycles (paper: ~40 cycles)\n",
		DefaultPeriod, st.TSCDeltaMean, st.TSCDeltaDev)

	// (c) Event plausibility.
	engPlain := e.engine()
	cq3, err := engPlain.CompileQuery(queries.Fig9().Query)
	if err != nil {
		return "", nil, err
	}
	loadRes, err := engPlain.Run(cq3, &pmu.Config{Event: vm.EvMemLoads, Period: 997, Format: pmu.FormatIPTimeRegs})
	if err != nil {
		return "", nil, err
	}
	onLoads := 0
	for _, s := range loadRes.Samples {
		if cq3.Code.Program.Code[s.IP].IsLoad() {
			onLoads++
		}
	}
	st.LoadSamples = len(loadRes.Samples)
	if st.LoadSamples > 0 {
		st.LoadSamplesOnLoads = float64(onLoads) / float64(st.LoadSamples)
	}

	brRes, err := engPlain.Run(cq3, &pmu.Config{Event: vm.EvBranchMiss, Period: 97, Format: pmu.FormatIPTimeRegs})
	if err != nil {
		return "", nil, err
	}
	onBranches := 0
	for _, s := range brRes.Samples {
		if cq3.Code.Program.Code[s.IP].IsBranch() {
			onBranches++
		}
	}
	st.BranchMis = len(brRes.Samples)
	if st.BranchMis > 0 {
		st.BranchMissOnBranches = float64(onBranches) / float64(st.BranchMis)
	}
	fmt.Fprintf(&sb, "(c) %.1f%% of %d MEM_LOADS samples point at loads; %.1f%% of %d BRANCH_MISS samples at branches (paper: all plausible)\n",
		100*st.LoadSamplesOnLoads, st.LoadSamples, 100*st.BranchMissOnBranches, st.BranchMis)
	return sb.String(), st, nil
}

// tagCrossCheck compiles q with the tag register kept on the owning task
// through all generated code (Options.TagEverything), runs it sampling
// cycles at crossCheckPeriod, and compares each generated-code sample
// whose instruction has one owning task against the sampled tag: checked
// counts those samples, mismatches the ones whose tag names another task.
func tagCrossCheck(cat *catalog.Catalog, q *plan.Query) (checked, mismatches int, err error) {
	opts := engine.DefaultOptions()
	opts.TagEverything = true
	eng := engine.New(cat, opts)
	cq, err := eng.CompileQuery(q)
	if err != nil {
		return 0, 0, err
	}
	res, err := eng.Run(cq, &pmu.Config{Event: vm.EvCycles, Period: crossCheckPeriod, Format: pmu.FormatIPTimeRegs})
	if err != nil {
		return 0, 0, err
	}
	instrByID := map[int]*ir.Instr{}
	cq.Pipe.Module.ForEachInstr(func(_ *ir.Func, _ *ir.Block, in *ir.Instr) {
		instrByID[in.ID] = in
	})
	nmap := cq.Code.NMap
	for _, s := range res.Samples {
		if s.IP >= len(nmap.Region) || nmap.Region[s.IP] != core.RegionGenerated {
			continue
		}
		task, ok := soleTask(nmap.IRs[s.IP], instrByID, cq.Pipe.Dict)
		if !ok {
			continue
		}
		checked++
		if s.Tag != int64(task) {
			mismatches++
		}
	}
	return checked, mismatches, nil
}

// soleTask returns the one task owning every IR instruction a native
// instruction descends from. A fused instruction (a load with its folded
// address Add, a compare-and-branch) counts when its parts share a task;
// parts of different tasks are legitimately multi-owner. Tag-transition
// code and edge copies never count: they execute while the tag register
// still holds the previous section's tag.
func soleTask(irs []int, instrByID map[int]*ir.Instr, dict *core.Dictionary) (core.ComponentID, bool) {
	task := core.NoComponent
	for _, id := range irs {
		in := instrByID[id]
		if in == nil {
			return core.NoComponent, false
		}
		switch in.Op {
		case ir.OpPhi, ir.OpSetTag, ir.OpGetTag, ir.OpConst:
			return core.NoComponent, false
		}
		tasks := dict.TasksOf(id)
		if len(tasks) != 1 || task != core.NoComponent && tasks[0] != task {
			return core.NoComponent, false
		}
		task = tasks[0]
	}
	return task, task != core.NoComponent
}
