package engine

import (
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/pmu"
	"repro/internal/queries"
	"repro/internal/vm"
)

// mergeSource is the partitioned-merge battery's workloads: a
// join-build-heavy plan (fig9), a plain group-by (q1), a selective
// group-by (q6), and a group-join (intro) — one per partitioned sink kind.
func mergeSource() source { return testSource(suiteStmts("fig9", "q1", "q6", "intro")...) }

// TestMergeDeterminism is the partitioned merge's property test: for every
// partition and worker count, the result rows are identical to the serial
// run's *in order*, and every hash table — directory, arena, cursor — is
// byte-identical on the canonical heap. The merge does not merely produce
// equivalent tables; it reconstructs the serial run's bytes.
func TestMergeDeterminism(t *testing.T) {
	l := mergeDeterminism()
	l.each = merged
	l.run(t)
}

func mergeDeterminism() *lattice {
	return &lattice{src: mergeSource(), axes: []axis{workersAxis(0, 1, 2, 4, 8), partitionsAxis(1, 8)}}
}

// merged fails unless a parallel run measured its merge phase over at
// least one materializing sink.
func merged(t *testing.T, r latticeRun) {
	t.Helper()
	if len(hashTables(r.p.Compiled)) == 0 {
		t.Fatalf("%s: no materializing sink — battery is vacuous", r.st.name)
	}
	if !r.c.serial() && r.res.MergeCycles == 0 {
		t.Fatalf("%s at %v: merge phase unmeasured", r.st.name, r.c)
	}
}

// hashTables returns the compiled query's hash-table layouts in ascending
// descriptor-address order.
func hashTables(cq *Compiled) []*pipeline.HTLayout {
	var hts []*pipeline.HTLayout
	for _, ht := range cq.Layout.HT {
		hts = append(hts, ht)
	}
	sort.Slice(hts, func(i, j int) bool { return hts[i].Desc < hts[j].Desc })
	return hts
}

// TestMergeScalingGate is the CI gate: on the join benchmark, the merge
// phase at 4 workers must be at least 2x faster than the same generated
// kernels run on a single worker. The merge kernels are profiled code, so
// this is simulated time — the gate catches any serial coordinator work
// creeping back into the merge path.
func TestMergeScalingGate(t *testing.T) {
	cat := testCatalog(t)
	_, r1 := runOnce(t, cat, queries.Fig9().Query, knobs(1, 256, 0, false), nil)
	_, r4 := runOnce(t, cat, queries.Fig9().Query, knobs(4, 256, 0, false), nil)
	if r1.MergeCycles == 0 || r4.MergeCycles == 0 {
		t.Fatalf("merge cycles unmeasured: 1w=%d 4w=%d", r1.MergeCycles, r4.MergeCycles)
	}
	t.Logf("fig9 merge phase: %d cycles at 1 worker, %d at 4 — %.2fx",
		r1.MergeCycles, r4.MergeCycles, float64(r1.MergeCycles)/float64(r4.MergeCycles))
	if r1.MergeCycles < 2*r4.MergeCycles {
		t.Fatalf("merge phase scaled %.2fx at 4 workers (1w=%d, 4w=%d); gate requires >= 2x",
			float64(r1.MergeCycles)/float64(r4.MergeCycles), r1.MergeCycles, r4.MergeCycles)
	}
}

// TestMergeZeroPartitions: Options.Partitions < 1 means one partition, not
// an unprofiled host-side merge. Every materializing sink still gets its
// generated kernels, the merge phase is measured, its samples attribute to
// merge-role tasks, and rows and hash-table bytes equal the serial run's.
func TestMergeZeroPartitions(t *testing.T) {
	l := mergeZeroPartitions()
	l.each = func(t *testing.T, r latticeRun) {
		merged(t, r)
		cq := r.p.Compiled
		for _, ht := range hashTables(cq) {
			if ht.Partitions != 1 {
				t.Fatalf("%s: hash table has %d partitions, want 1", r.st.name, ht.Partitions)
			}
		}
		for i := range cq.Pipe.Pipelines {
			info := &cq.Pipe.Pipelines[i]
			switch info.Sink.Kind {
			case pipeline.SinkJoinBuild, pipeline.SinkGJBuild, pipeline.SinkGroupAgg:
				if info.Merge == nil {
					t.Fatalf("%s: materializing sink of pipeline %q has no merge kernels", r.st.name, info.Name)
				}
			}
		}
		if !r.c.serial() && mergeSamples(t, cq, r.res) == 0 {
			t.Fatalf("%s: no PMU samples attributed to merge kernels", r.st.name)
		}
	}
	l.run(t)
}

func mergeZeroPartitions() *lattice {
	return &lattice{src: mergeSource(), axes: []axis{workersAxis(0, 4), partitionsAxis(0), eventAxis(evMergeRegs)}}
}

// TestMergeSampleAttribution: merge kernels are profiled code. A sampled
// parallel run must attribute PMU samples to merge-role tasks, and every
// such task must resolve to its plan operator through the Tagging
// Dictionary. (The worker-lanes overlay built on this predicate is
// rendered by viz.WorkerLanesTagged, tested in internal/viz.)
func TestMergeSampleAttribution(t *testing.T) {
	cq, res := runOnce(t, testCatalog(t), queries.Fig9().Query, knobs(4, 256, 0, false),
		&pmu.Config{Event: vm.EvInstRetired, Period: 97, Format: pmu.FormatIPTimeRegs})
	if mergeSamples(t, cq, res) == 0 {
		t.Fatal("no PMU samples attributed to merge kernels — merge is invisible to the profiler")
	}
}

// mergeSamples counts the samples credited to a merge-role task, each of
// which must resolve to its plan operator through the Tagging Dictionary.
func mergeSamples(t *testing.T, cq *Compiled, res *Result) int {
	t.Helper()
	par, err := cq.Parallel()
	if err != nil {
		t.Fatal(err)
	}
	att := core.NewAttributor(par.Dict, par.Code.NMap)
	n := 0
	for i := range res.Samples {
		for _, cr := range att.Attribute(&res.Samples[i]).Credits {
			if !isMergeTask(cq, cr.Task) {
				continue
			}
			if par.Dict.OperatorOf(cr.Task) == core.NoComponent {
				t.Fatalf("merge task %v has no operator in the Tagging Dictionary", cr.Task)
			}
			n++
			break
		}
	}
	return n
}

// isMergeTask reports whether a task is a scatter, merge or place kernel.
func isMergeTask(cq *Compiled, task core.ComponentID) bool {
	c, found := cq.Pipe.Registry.Lookup(task)
	return found && pipeline.MergeRole(c.Kind)
}

// TestLPTBeatsGreedy: the scheduling model. On skewed costs, in-order
// least-loaded greedy commits small items before seeing the big one; LPT
// sorts first and lands within 4/3 of optimal. The merge phase assigns
// partitions with the same lpt schedule, so this bound is what the gate
// above leans on when partition sizes are skewed.
func TestLPTBeatsGreedy(t *testing.T) {
	costs := []uint64{1, 1, 1, 1, 9}
	greedy := func(costs []uint64, workers int) uint64 {
		load := make([]uint64, workers)
		for _, c := range costs {
			m := 0
			for i := 1; i < workers; i++ {
				if load[i] < load[m] {
					m = i
				}
			}
			load[m] += c
		}
		var max uint64
		for _, l := range load {
			if l > max {
				max = l
			}
		}
		return max
	}
	g := greedy(costs, 2)
	var s lpt
	l := s.assign(costs, 2)
	if g != 11 || l != 9 {
		t.Fatalf("greedy=%d (want 11), LPT=%d (want 9)", g, l)
	}

	// Every task has one worker, and the workers' loads make the makespan.
	load := make([]uint64, 2)
	for _, p := range s.order {
		load[s.owner[p]] += costs[p]
	}
	if len(s.order) != len(costs) || max(load[0], load[1]) != l || load[0]+load[1] != 13 {
		t.Fatalf("order %v, owners %v: loads %v", s.order, s.owner, load)
	}

	// Degenerate shapes.
	if s.assign(nil, 4) != 0 {
		t.Fatal("empty cost list must have zero makespan")
	}
	if s.assign([]uint64{5}, 8) != 5 {
		t.Fatal("one item: makespan is its cost")
	}

	// The scheduler reuses its slices: a warm call allocates nothing.
	if n := testing.AllocsPerRun(10, func() { s.assign(costs, 2) }); n != 0 {
		t.Fatalf("lpt.assign allocates %.0f times per warm call", n)
	}
}

// TestSinkOverflowErrorMessage: merge pre-validation reports a structured
// error naming the sink and region, mirroring the SinkOutput check.
func TestSinkOverflowErrorMessage(t *testing.T) {
	err := &SinkOverflowError{Sink: "hashagg", Region: "hash-table arena", Needed: 4096, Capacity: 1024}
	want := `engine: hash-table arena overflow merging sink of pipeline "hashagg": need 4096 bytes, capacity 1024`
	if err.Error() != want {
		t.Fatalf("got %q\nwant %q", err.Error(), want)
	}
}

// BenchmarkMergeScaling times the partitioned 4-worker path end to end
// (compile once, run per iteration); CI's bench-smoke runs it once.
func BenchmarkMergeScaling(b *testing.B) {
	w, _ := queries.ByName("fig9")
	opts := DefaultOptions()
	opts.Workers = 4
	opts.MorselRows = 256
	e := New(testCatalog(b), opts)
	cq, err := e.CompileQuery(w.Query)
	if err != nil {
		b.Fatalf("compile: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(cq, nil); err != nil {
			b.Fatalf("run: %v", err)
		}
	}
}
