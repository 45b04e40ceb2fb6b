package verify_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/pipeline"
	"repro/internal/plan"
	"repro/internal/queries"
	"repro/internal/verify"
)

// mergeArtifact compiles the fig9 workload — which carries both a join
// build and a place-kernel group sink under the default partitioned
// configuration — and returns the emit-phase artifact of its parallel
// program, the one with the merge kernels. Compilation is deterministic,
// so each corruption case gets an identical fresh fixture.
func mergeArtifact(t *testing.T) *verify.Artifact {
	t.Helper()
	return mergeArtifactWith(t, engine.DefaultOptions().Partitions)
}

func mergeArtifactWith(t *testing.T, partitions int) *verify.Artifact {
	t.Helper()
	cat := datagen.Generate(datagen.Config{ScaleFactor: 0.01, Seed: 42})
	opts := engine.DefaultOptions()
	opts.Partitions = partitions
	c := engine.NewCompiler(cat, opts)
	cq, err := c.CompileQuery(queries.Fig9().Query)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	par, err := cq.Parallel()
	if err != nil {
		t.Fatalf("merge kernels: %v", err)
	}
	return &verify.Artifact{
		Phase:     "emit",
		Module:    par.Module,
		Dict:      par.Dict,
		Code:      par.Code,
		Pipelines: cq.Pipe.Pipelines,
		Mem:       cq.Mem,
	}
}

// pickMerge returns the first partitioned pipeline of the artifact whose
// sink is of the given kind.
func pickMerge(t *testing.T, a *verify.Artifact, kind pipeline.SinkKind) *pipeline.PipelineInfo {
	t.Helper()
	for i := range a.Pipelines {
		if p := &a.Pipelines[i]; p.Merge != nil && p.Sink.Kind == kind {
			return p
		}
	}
	t.Fatal("fixture has no matching partitioned pipeline")
	return nil
}

func mergeHasCheck(ds []core.Diag, check string) bool {
	for _, d := range ds {
		if d.Check == check {
			return true
		}
	}
	return false
}

func TestMergeInvariantsClean(t *testing.T) {
	// Partitions 0 rounds to one partition: the same kernels, one slot
	// range that is the whole directory.
	for _, c := range []struct{ opt, want int }{{engine.DefaultOptions().Partitions, 8}, {0, 1}} {
		a := mergeArtifactWith(t, c.opt)
		if ds := verify.Check(a); len(ds) != 0 {
			t.Fatalf("Partitions=%d: clean fixture produced diagnostics: %v", c.opt, ds)
		}
		// The fixture must actually exercise both sink shapes.
		if p := pickMerge(t, a, pipeline.SinkGroupAgg); p.Merge.PlaceFunc == "" {
			t.Fatalf("Partitions=%d: group sink has no place kernel", c.opt)
		}
		if p := pickMerge(t, a, pipeline.SinkJoinBuild); p.Merge.Partitions != int64(c.want) {
			t.Fatalf("Partitions=%d: sink merges in %d partitions, want %d", c.opt, p.Merge.Partitions, c.want)
		}
	}
}

// TestMergeInvariantsCorruptions mirrors the shardcheck battery: every
// corruption of the merge artifacts must surface as the named diagnostic.
func TestMergeInvariantsCorruptions(t *testing.T) {
	cases := []struct {
		name string
		corr func(p *pipeline.PipelineInfo)
		want string
	}{
		{"partition count not a power of two", func(p *pipeline.PipelineInfo) {
			p.Sink.HT.Partitions = 3
		}, "merge/partitions"},
		{"merge info partition mismatch", func(p *pipeline.PipelineInfo) {
			p.Merge.Partitions = p.Sink.HT.Partitions * 2
		}, "merge/partitions"},
		{"slot ranges do not tile the directory", func(p *pipeline.PipelineInfo) {
			p.Sink.HT.SlotShift++
		}, "merge/partitions"},
		{"staging region unallocated", func(p *pipeline.PipelineInfo) {
			p.Sink.HT.MergeCnt = 0
		}, "merge/region"},
		{"staging region overlaps the arena", func(p *pipeline.PipelineInfo) {
			p.Sink.HT.MergeSrc = p.Sink.HT.Arena
		}, "merge/region"},
		{"merge task unregistered", func(p *pipeline.PipelineInfo) {
			p.Merge.ScatterTask = 999999
		}, "merge/kernel"},
		{"merge task has a non-merge kind", func(p *pipeline.PipelineInfo) {
			p.Merge.MergeTask = p.Tasks[0] // the scan task
		}, "merge/kernel"},
		{"generated merge function missing", func(p *pipeline.PipelineInfo) {
			p.Merge.ScatterFunc = "nosuchfunc"
		}, "merge/kernel"},
		{"kernel instructions linked to the wrong task", func(p *pipeline.PipelineInfo) {
			// Point the merge slot at the scatter kernel: the function
			// exists, but its instructions carry the scatter task's
			// lineage, not the merge task's.
			p.Merge.MergeFunc = p.Merge.ScatterFunc
		}, "merge/kernel"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := mergeArtifact(t)
			tc.corr(pickMerge(t, a, pipeline.SinkJoinBuild))
			ds := verify.Check(a)
			if !mergeHasCheck(ds, tc.want) {
				t.Errorf("expected a %s diagnostic, got %v", tc.want, ds)
			}
		})
	}
}

// TestMergeStateSlotCorruptions: a group sink whose state slots leave a
// word of the entry uncombined, fold one twice or hold an avg is flagged.
func TestMergeStateSlotCorruptions(t *testing.T) {
	cases := []struct {
		name string
		corr func(si *pipeline.SinkInfo)
	}{
		{"last state word left out", func(si *pipeline.SinkInfo) {
			si.Slots = si.Slots[:len(si.Slots)-1]
		}},
		{"state word folded twice", func(si *pipeline.SinkInfo) {
			si.Slots = append(si.Slots, si.Slots[0])
		}},
		{"an avg slot", func(si *pipeline.SinkInfo) {
			si.Slots = append([]pipeline.StateSlot(nil), si.Slots...)
			si.Slots[0].Fn = plan.AggAvg
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := mergeArtifact(t)
			tc.corr(&pickMerge(t, a, pipeline.SinkGroupAgg).Sink)
			ds := verify.Check(a)
			if !mergeHasCheck(ds, "merge/state-slots") {
				t.Errorf("expected a merge/state-slots diagnostic, got %v", ds)
			}
		})
	}
}
