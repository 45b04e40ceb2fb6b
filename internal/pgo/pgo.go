// Package pgo closes the loop from Tailored Profiling back into the
// compiler: it consumes a core.Profile from a sampling run and derives
// per-task, per-IR-instruction and per-branch hotness that the optimizer
// (internal/iropt) and the backend (internal/codegen) use to recompile the
// query — hot-loop transformations, scaled-address fusion of hot loads,
// and hotness-weighted spill priority. Block layout is not among them:
// every compile lays out its blocks from the plan's estimated counts.
//
// Everything here is only as good as the Tagging Dictionary's lineage: a
// profile keys weights by IR instruction ID, and recompilation reuses those
// IDs because pipeline lowering and the base optimization passes are
// deterministic. The paper's machinery for attributing samples upward is
// exactly what makes the downward direction (samples → optimization
// decisions) possible.
package pgo

import (
	"sort"

	"repro/internal/core"
)

// Hotness is the distilled optimization guidance of one profiling run.
type Hotness struct {
	// Total is the summed weight of all IR-attributed samples; per-item
	// weights are meaningful as fractions of it.
	Total float64
	// IR holds per-IR-instruction sample weight (cost-weighted when the
	// profile was taken on the cycles event).
	IR map[int]float64
	// Task holds per-task sample weight.
	Task map[core.ComponentID]float64
	// Branch holds per-branch outcome statistics keyed by IR instruction
	// ID. A fused compare-and-branch credits both the compare's and the
	// branch's ID, so a consumer can look up whichever ID it holds.
	Branch map[int]*core.BranchStat
}

// FromProfile derives hotness from a profile and the native map of the
// binary that produced it. The native map translates per-native-IP branch
// statistics up to IR instruction IDs — the same bottom-up direction
// sample attribution uses, reusing the backend's debug information.
func FromProfile(p *core.Profile, nmap *core.NativeMap) *Hotness {
	h := &Hotness{
		IR:     make(map[int]float64, len(p.IRWeight)),
		Task:   make(map[core.ComponentID]float64, len(p.TaskWeight)),
		Branch: make(map[int]*core.BranchStat),
	}
	for id, w := range p.IRWeight {
		h.IR[id] = w
		h.Total += w
	}
	for id, w := range p.TaskWeight {
		h.Task[id] = w
	}
	for ip, st := range p.BranchTaken {
		if ip < 0 || ip >= len(nmap.IRs) {
			continue
		}
		for _, irID := range nmap.IRs[ip] {
			acc := h.Branch[irID]
			if acc == nil {
				acc = &core.BranchStat{}
				h.Branch[irID] = acc
			}
			acc.Taken += st.Taken
			acc.Total += st.Total
		}
	}
	return h
}

// InstrWeight returns one IR instruction's profile weight (0 when the
// instruction attracted no samples). Satisfies the Hotness interfaces of
// iropt and codegen.
func (h *Hotness) InstrWeight(id int) float64 { return h.IR[id] }

// TotalWeight returns the total attributed weight.
func (h *Hotness) TotalWeight() float64 { return h.Total }

// TakenFraction returns the observed taken fraction of a branch, looked up
// under any of the given IR IDs (a fused branch carries two), normalized
// to the source branch's then-direction. ok is false when the profile has
// no outcome observations for the branch.
func (h *Hotness) TakenFraction(irIDs []int) (float64, bool) {
	var acc core.BranchStat
	for _, id := range irIDs {
		if st := h.Branch[id]; st != nil {
			acc.Taken += st.Taken
			acc.Total += st.Total
		}
	}
	return acc.TakenFraction()
}

// WeightOf sums the weight of a set of IR IDs — the weight of one native
// instruction whose debug info lists several fused IR sources.
func (h *Hotness) WeightOf(irIDs []int) float64 {
	w := 0.0
	for _, id := range irIDs {
		w += h.IR[id]
	}
	return w
}

// HotTasks returns the task IDs whose weight share is at least frac of the
// total, hottest first — reporting/diagnostic helper.
func (h *Hotness) HotTasks(frac float64) []core.ComponentID {
	var out []core.ComponentID
	for id, w := range h.Task {
		if h.Total > 0 && w/h.Total >= frac {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if h.Task[out[i]] != h.Task[out[j]] {
			return h.Task[out[i]] > h.Task[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}
