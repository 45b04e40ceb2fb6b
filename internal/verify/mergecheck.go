package verify

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/plan"
)

// ---------------------------------------------------------------------------
// Partitioned-merge invariants
// ---------------------------------------------------------------------------

// mergeInvariants checks every partitioned sink's merge artifacts
// (DESIGN.md §5) before any kernel runs:
//
//   - partition arithmetic (partitions): the partition count is a power of
//     two, agrees with the merge info, and the per-partition directory slot
//     ranges [p<<shift, (p+1)<<shift) tile the directory exactly —
//     disjointness and coverage in one equation;
//   - staging regions (region): every heap region the merge protocol uses
//     is allocated, and all are mutually disjoint (and disjoint from the
//     directory and arena they feed);
//   - state slots (state-slots): a group sink's aggregate state slots are
//     8-byte words that tile the entry from its last key to its end, each
//     a sum, a count, a min or a max, so the upsert kernel's combine folds
//     every state word once and nothing else;
//   - merge kernels are first-class profiled code (kernel): each merge
//     task is registered with a merge role and Log A links it to the
//     sink's operator; a program holds the kernel functions of every
//     partitioned sink or of none — the parallel program all, the serial
//     one none — and every instruction of one resolves through Log B to
//     its merge task.
func mergeInvariants(a *Artifact) []core.Diag {
	if a.Pipelines == nil {
		return nil
	}
	var out []core.Diag

	// Whether the module is a parallel program: one kernel function
	// present means all of them must be.
	parallel := false
	for i := range a.Pipelines {
		if mi := a.Pipelines[i].Merge; mi != nil && a.Module != nil {
			for _, fn := range [...]string{mi.ScatterFunc, mi.MergeFunc, mi.PlaceFunc} {
				parallel = parallel || fn != "" && a.Module.FuncByName(fn) != nil
			}
		}
	}

	for i := range a.Pipelines {
		info := &a.Pipelines[i]
		mi := info.Merge
		if mi == nil {
			continue
		}
		ht := info.Sink.HT
		locus := fmt.Sprintf("pipeline %q", info.Name)

		// Partition arithmetic. One equation proves both disjointness and
		// coverage: ranges [p<<shift, (p+1)<<shift) for p in [0, P) are
		// disjoint by construction and tile [0, DirSlots) iff
		// P * 2^shift == DirSlots.
		p := ht.Partitions
		if p <= 0 || p&(p-1) != 0 {
			out = append(out, core.Diagf("merge/partitions", core.LevelTask, locus,
				"partition count %d is not a positive power of two", p))
			continue
		}
		if p != mi.Partitions {
			out = append(out, core.Diagf("merge/partitions", core.LevelTask, locus,
				"layout has %d partitions but merge info says %d", p, mi.Partitions))
		}
		if got := p << ht.SlotShift; got != ht.DirSlots {
			out = append(out, core.Diagf("merge/partitions", core.LevelTask, locus,
				"partition slot ranges do not tile the directory: %d partitions × 2^%d slots = %d, directory has %d",
				p, ht.SlotShift, got, ht.DirSlots))
		}

		// Staging regions: allocated and pairwise disjoint.
		arenaCap := ht.ArenaEnd - ht.Arena
		vecCap := (ht.MergeCap / ht.EntrySize) * 8
		type region struct {
			name string
			base int64
			size int64
		}
		regions := []region{
			{"directory", ht.Dir, ht.DirSlots * 8},
			{"arena", ht.Arena, arenaCap},
			{"scatter-out", ht.ScatterOut, ht.MergeCap},
			{"merge-cnt", ht.MergeCnt, p * 8},
			{"merge-cur", ht.MergeCur, p * 8},
			{"merge-src", ht.MergeSrc, ht.MergeCap},
			{"merge-vec", ht.MergeVec, vecCap},
			{"merge-param", ht.MergeParam, pipeline.MergeParamSlots * 8},
		}
		if info.Sink.Kind == pipeline.SinkGroupAgg {
			regions = append(regions,
				region{"merge-out", ht.MergeOut, ht.MergeCap},
				region{"merge-seq", ht.MergeSeq, vecCap})
		}
		for _, r := range regions[2:] { // dir and arena are always allocated
			if r.base == 0 {
				out = append(out, core.Diagf("merge/region", core.LevelTask, locus, "%s region not allocated", r.name))
			}
		}
		for i := range regions {
			for j := i + 1; j < len(regions); j++ {
				ri, rj := regions[i], regions[j]
				if ri.base < rj.base+rj.size && rj.base < ri.base+ri.size {
					out = append(out, core.Diagf("merge/region", core.LevelTask, locus,
						"%s region [%d,%d) overlaps %s region [%d,%d)",
						ri.name, ri.base, ri.base+ri.size, rj.name, rj.base, rj.base+rj.size))
				}
			}
		}

		// State slots tile the entry after the keys — also when the slot
		// list is empty, which leaves every state word uncombined.
		if k := info.Sink.Kind; k == pipeline.SinkGroupAgg || k == pipeline.SinkGJBuild {
			off := info.Sink.KeyOff + 8*int64(info.Sink.NKeys)
			for k, s := range info.Sink.Slots {
				if s.Off != off {
					out = append(out, core.Diagf("merge/state-slots", core.LevelTask, locus,
						"state slot %d at entry offset %d, want %d", k, s.Off, off))
				}
				switch s.Fn {
				case plan.AggSum, plan.AggCount, plan.AggMin, plan.AggMax:
				default:
					out = append(out, core.Diagf("merge/state-slots", core.LevelTask, locus,
						"state slot %d holds %s, not a sum, count, min or max", k, s.Fn))
				}
				off = s.Off + 8
			}
			if off != ht.EntrySize {
				out = append(out, core.Diagf("merge/state-slots", core.LevelTask, locus,
					"state slots end at entry offset %d, entry is %d bytes", off, ht.EntrySize))
			}
		}

		// Merge kernels: generated, registered, and attributable.
		type kernel struct {
			fn   string
			task core.ComponentID
		}
		kernels := []kernel{{mi.ScatterFunc, mi.ScatterTask}, {mi.MergeFunc, mi.MergeTask}}
		if mi.PlaceFunc != "" {
			kernels = append(kernels, kernel{mi.PlaceFunc, mi.PlaceTask})
		}
		for _, k := range kernels {
			klocus := locus + " func " + k.fn
			comp, ok := a.Dict.Registry.Lookup(k.task)
			if !ok {
				out = append(out, core.Diagf("merge/kernel", core.LevelTask, klocus, "merge task %d not registered", k.task))
				continue
			}
			if !pipeline.MergeRole(comp.Kind) {
				out = append(out, core.Diagf("merge/kernel", core.LevelTask, klocus,
					"task %q has kind %q, not a merge role", comp.Name, comp.Kind))
			}
			if a.Dict.OperatorOf(k.task) == core.NoComponent {
				out = append(out, core.Diagf("merge/kernel", core.LevelTask, klocus,
					"merge task %q has no Log A operator link", comp.Name))
			}
			if a.Module == nil {
				continue
			}
			f := a.Module.FuncByName(k.fn)
			if f == nil {
				if parallel {
					out = append(out, core.Diagf("merge/kernel", core.LevelIR, klocus, "generated merge function missing from module"))
				}
				continue
			}
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					if !slices.Contains(a.Dict.TasksOf(in.ID), k.task) {
						out = append(out, core.Diagf("merge/kernel", core.LevelIR,
							fmt.Sprintf("%s.%s %%%d", k.fn, b.Name, in.ID),
							"merge-kernel instruction not linked to task %q", comp.Name))
					}
				}
			}
		}
	}
	return out
}
