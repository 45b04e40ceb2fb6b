package engine

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/pmu"
	"repro/internal/queries"
	"repro/internal/vm"
)

// Ceilings on two instruction classes the backend removes, as shares of
// every retired instruction over the suite at the test scale: before phi
// copies were coalesced and loops bottom-tested they read 6.43 % and
// 8.53 %, after it 0 % and 4.58 %. Lower them when the backend improves;
// never raise them.
const (
	maxPhiCopyShare = 0.01
	maxJumpShare    = 0.06
)

// mixOrigin names where an executed native instruction comes from: the op
// of the IR instruction it lowers (the last of its debug info), or "edge"
// for a phi edge block's bare JMP.
func mixOrigin(byID []*ir.Instr, ids []int) string {
	if len(ids) == 0 {
		return "edge"
	}
	return byID[ids[len(ids)-1]].Op.String()
}

// TestSuiteInstructionMix retire-counts every suite plan (instructions
// retired at period 1: one sample per instruction) and logs, per plan,
// the executed register copies, JMPs and MOVIs of generated code by IR
// origin. It gates executed phi copies and JMPs against their ceilings.
func TestSuiteInstructionMix(t *testing.T) {
	cat := testCatalog(t)
	type key struct{ op, origin string }
	total := map[key]int{}
	var retired, phiCopies, jumps int
	t.Logf("%-12s %9s %8s %8s %8s %8s", "plan", "retired", "phi mov", "mov", "jmp", "movi")
	for _, w := range queries.Suite() {
		cq, res := runOnce(t, cat, w.Query, DefaultOptions(), &pmu.Config{Event: vm.EvInstRetired, Period: 1})
		byID := make([]*ir.Instr, cq.Pipe.Module.MaxID()+1)
		cq.Pipe.Module.ForEachInstr(func(_ *ir.Func, _ *ir.Block, in *ir.Instr) { byID[in.ID] = in })
		plan := map[key]int{}
		for _, s := range res.Samples {
			if cq.Code.NMap.Region[s.IP] != core.RegionGenerated {
				continue
			}
			op := cq.Code.Program.Code[s.IP].Op
			if op != isa.MOVRR && op != isa.JMP && op != isa.MOVRI {
				continue
			}
			plan[key{op.String(), mixOrigin(byID, cq.Code.NMap.IRs[s.IP])}]++
		}
		byOp := map[string]int{}
		for k, n := range plan {
			total[k] += n
			byOp[k.op] += n
		}
		phi, jmp := plan[key{isa.MOVRR.String(), ir.OpPhi.String()}], byOp[isa.JMP.String()]
		t.Logf("%-12s %9d %8d %8d %8d %8d", w.Name, len(res.Samples), phi, byOp[isa.MOVRR.String()]-phi, jmp, byOp[isa.MOVRI.String()])
		retired += len(res.Samples)
		phiCopies += phi
		jumps += jmp
	}
	if retired == 0 {
		t.Fatal("no instruction retired")
	}
	keys := make([]key, 0, len(total))
	for k := range total {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b key) int {
		return strings.Compare(a.op+"/"+a.origin, b.op+"/"+b.origin)
	})
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "\n  %-5s from %-8s %8d (%.2f%%)", k.op, k.origin, total[k], 100*float64(total[k])/float64(retired))
	}
	t.Logf("by IR origin, of %d retired:%s", retired, b.String())
	for _, g := range []struct {
		name    string
		n       int
		ceiling float64
	}{{"phi copies", phiCopies, maxPhiCopyShare}, {"JMPs", jumps, maxJumpShare}} {
		share := float64(g.n) / float64(retired)
		t.Logf("%s: %.2f%% of retired instructions (ceiling %.1f%%)", g.name, 100*share, 100*g.ceiling)
		if share > g.ceiling {
			t.Errorf("executed %s are %.2f%% of retired instructions, above the %.1f%% ceiling", g.name, 100*share, 100*g.ceiling)
		}
	}
}
