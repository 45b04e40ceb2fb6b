package engine

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/pmu"
	"repro/internal/queries"
	"repro/internal/vm"
)

// mergeQueries are the workloads the partitioned-merge battery sweeps: a
// join-build-heavy plan (fig9), a plain group-by (q1), a selective
// group-by (q6), and a group-join (intro) — one per partitioned sink kind.
var mergeQueries = []string{"fig9", "q1", "q6", "intro"}

func mergeRun(t *testing.T, name string, workers, partitions int) (*Compiled, *Result) {
	t.Helper()
	return mergeRunSampled(t, name, workers, partitions, nil)
}

func mergeRunSampled(t *testing.T, name string, workers, partitions int, cfg *pmu.Config) (*Compiled, *Result) {
	t.Helper()
	w, ok := queries.ByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	opts := DefaultOptions()
	opts.Workers = workers
	opts.MorselRows = 256
	opts.Partitions = partitions
	e := New(testCatalog(t), opts)
	cq, err := e.CompileQuery(w.Query)
	if err != nil {
		t.Fatalf("%s compile: %v", name, err)
	}
	res, err := e.Run(cq, cfg)
	if err != nil {
		t.Fatalf("%s workers=%d: %v", name, workers, err)
	}
	return cq, res
}

// TestMergeDeterminism is the partitioned merge's property test: for every
// partition and worker count, the result rows are identical to the serial
// oracle *in order*, and every hash table — directory, arena, cursor — is
// byte-identical on the canonical heap. The merge does not merely produce
// equivalent tables; it reconstructs the serial run's bytes.
func TestMergeDeterminism(t *testing.T) {
	for _, name := range mergeQueries {
		name := name
		t.Run(name, func(t *testing.T) {
			for _, parts := range []int{1, DefaultOptions().Partitions} {
				ocq, oracle := mergeRun(t, name, 0, parts)
				for _, workers := range []int{1, 2, 4, 8} {
					cq, res := mergeRun(t, name, workers, parts)
					sameAsSerial(t, fmt.Sprintf("partitions=%d workers=%d", parts, workers), cq, res, ocq, oracle)
				}
			}
		})
	}
}

// sameAsSerial fails unless a parallel run's rows, in order, and every
// hash table's cursor, directory and arena bytes equal the serial run's,
// and the merge phase was measured.
func sameAsSerial(t *testing.T, label string, cq *Compiled, res *Result, ocq *Compiled, oracle *Result) {
	t.Helper()
	rowsEqual(t, res.Rows, oracle.Rows, true)
	if res.MergeCycles == 0 {
		t.Fatalf("%s: merge phase unmeasured", label)
	}

	// The layout is a pure function of catalog + options, so both
	// compiles place every hash table at the same addresses; pair them
	// by descriptor address.
	hts, ohts := hashTables(cq), hashTables(ocq)
	if len(hts) == 0 {
		t.Fatalf("%s: no materializing sink — battery is vacuous", label)
	}
	if len(hts) != len(ohts) {
		t.Fatalf("%s: %d hash tables, oracle has %d", label, len(hts), len(ohts))
	}
	for i, ht := range hts {
		if *ohts[i] != *ht {
			t.Fatalf("%s: hash-table layout %d differs from oracle", label, i)
		}
		got, want := res.CPU.Heap, oracle.CPU.Heap
		gc := codegen.HeapI64(got, ht.Desc+codegen.HTDescCursor)
		wc := codegen.HeapI64(want, ht.Desc+codegen.HTDescCursor)
		if gc != wc {
			t.Fatalf("%s ht %d: cursor %d, oracle %d", label, i, gc, wc)
		}
		if !bytesEq(got, want, ht.Dir, ht.Dir+ht.DirSlots*8) {
			t.Fatalf("%s ht %d: directory differs from oracle", label, i)
		}
		if !bytesEq(got, want, ht.Arena, gc) {
			t.Fatalf("%s ht %d: arena differs from oracle", label, i)
		}
	}
}

func bytesEq(a, b []byte, lo, hi int64) bool {
	return string(a[lo:hi]) == string(b[lo:hi])
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
	_, r1 := mergeRun(t, "fig9", 1, DefaultOptions().Partitions)
	_, r4 := mergeRun(t, "fig9", 4, DefaultOptions().Partitions)
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
	cfg := &pmu.Config{Event: vm.EvInstRetired, Period: 97, Format: pmu.FormatIPTimeRegs}
	for _, name := range mergeQueries {
		ocq, oracle := mergeRun(t, name, 0, 0)
		cq, res := mergeRunSampled(t, name, 4, 0, cfg)
		sameAsSerial(t, name+" partitions=0 workers=4", cq, res, ocq, oracle)
		for _, ht := range hashTables(cq) {
			if ht.Partitions != 1 {
				t.Fatalf("%s: hash table has %d partitions, want 1", name, ht.Partitions)
			}
		}
		for i := range cq.Pipe.Pipelines {
			info := &cq.Pipe.Pipelines[i]
			switch info.Sink.Kind {
			case pipeline.SinkJoinBuild, pipeline.SinkGJBuild, pipeline.SinkGroupAgg:
				if info.Merge == nil {
					t.Fatalf("%s: materializing sink of pipeline %q has no merge kernels", name, info.Name)
				}
			}
		}
		if mergeSamples(t, cq, res) == 0 {
			t.Fatalf("%s: no PMU samples attributed to merge kernels", name)
		}
	}
}

// TestMergeSampleAttribution: merge kernels are profiled code. A sampled
// parallel run must attribute PMU samples to merge-role tasks, and every
// such task must resolve to its plan operator through the Tagging
// Dictionary. (The worker-lanes overlay built on this predicate is
// rendered by viz.WorkerLanesTagged, tested in internal/viz.)
func TestMergeSampleAttribution(t *testing.T) {
	cq, res := mergeRunSampled(t, "fig9", 4, DefaultOptions().Partitions,
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
