package engine

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"repro/internal/codegen"
	"repro/internal/pipeline"
	"repro/internal/plan"
	"repro/internal/pmu"
	"repro/internal/queries"
)

// mergeOnly names the regions only a parallel or sharded run's scatter,
// merge and place kernels address: the merge area above Compiled.mergeBase.
var mergeOnly = map[string]bool{
	"ht.scatter": true, "ht.mergecnt": true, "ht.mergecur": true, "ht.mergesrc": true,
	"ht.mergevec": true, "ht.mergeout": true, "ht.mergeseq": true, "ht.mergeparam": true,
}

// TestLayoutRegionsDisjoint verifies, for every suite query, that the
// regions buildLayout carved — spill, state slots, descriptors,
// morsel bounds, counters, column data, every hash table's directory,
// arena and merge staging, and the result buffer — are
// non-empty, ascending, disjoint and inside [spillBase, heapSize), and
// that the merge-only regions, and only they, lie at or above mergeBase.
// Alignment padding belongs to no region. An overlap here would silently
// corrupt query results.
func TestLayoutRegionsDisjoint(t *testing.T) {
	cat := testCatalog(t)
	opts := DefaultOptions()
	opts.TupleCounters = true // include the counter region in the check
	e := New(cat, opts)

	for _, w := range queries.Suite() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			cq, err := e.CompileQuery(w.Query)
			if err != nil {
				t.Fatal(err)
			}
			end := int64(spillBase)
			for _, r := range cq.regions {
				if r.Hi <= r.Lo {
					t.Fatalf("region %s empty or inverted: [%d, %d)", r.Name, r.Lo, r.Hi)
				}
				if r.Lo < end {
					t.Fatalf("region %s [%d,%d) starts below %d, the end of its predecessor", r.Name, r.Lo, r.Hi, end)
				}
				end = r.Hi
			}
			if end > int64(cq.heapSize) {
				t.Fatalf("last region ends at %d, beyond the heap (%d)", end, cq.heapSize)
			}

			// The heap is the one-core heap, ending at the 64-byte-aligned
			// end of the result buffer, followed by the merge area.
			base := int64(cq.mergeBase)
			for _, r := range cq.regions {
				switch {
				case r.Name == "result" && base != align(r.Hi, 64):
					t.Fatalf("merge area begins at %d, want the aligned end of result [%d,%d)", base, r.Lo, r.Hi)
				case mergeOnly[r.Name] && r.Lo < base:
					t.Fatalf("merge-only region %s [%d,%d) lies below the merge base %d", r.Name, r.Lo, r.Hi, base)
				case !mergeOnly[r.Name] && r.Hi > base:
					t.Fatalf("region %s [%d,%d) reaches past the merge base %d", r.Name, r.Lo, r.Hi, base)
				}
			}

			// The record is complete: every address the layout publishes
			// starts a region of the expected name.
			at := func(name string, addr int64) {
				t.Helper()
				for _, r := range cq.regions {
					if r.Lo == addr {
						if r.Name != name {
							t.Fatalf("address %d starts region %s, want %s", addr, r.Name, name)
						}
						return
					}
				}
				t.Fatalf("no region %s starts at %d", name, addr)
			}
			lay := cq.Layout
			if lay.StateBase != DataFloor {
				t.Fatalf("state slots start at %d, want DataFloor %d", lay.StateBase, DataFloor)
			}
			at("state", lay.StateBase)
			at("morsel", lay.MorselBase)
			at("counters", lay.CounterBase)
			at("result", cq.resultBase)
			for _, b := range cq.binds {
				at("col", b.addr)
			}
			for n, ht := range lay.HT {
				at("ht.dir", ht.Dir)
				at("ht.arena", ht.Arena)
				at("ht.scatter", ht.ScatterOut)
				at("ht.mergecnt", ht.MergeCnt)
				at("ht.mergecur", ht.MergeCur)
				at("ht.mergesrc", ht.MergeSrc)
				at("ht.mergevec", ht.MergeVec)
				at("ht.mergeparam", ht.MergeParam)
				if _, ok := n.(*plan.GroupBy); ok {
					at("ht.mergeout", ht.MergeOut)
					at("ht.mergeseq", ht.MergeSeq)
				}
				if d := cq.Mem.RegionAt(ht.Desc, codegen.HTDescSize); d == nil || d.Name != "desc" {
					t.Fatalf("hash-table descriptor at %d is not inside the desc region", ht.Desc)
				}
			}
		})
	}
}

// TestLayoutDeterministic: compiling the same query twice yields identical
// layouts (maps must not introduce address nondeterminism).
func TestLayoutDeterministic(t *testing.T) {
	cat := testCatalog(t)
	e := New(cat, DefaultOptions())
	q := queries.Fig10(false).Query
	c1, err := e.CompileQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := e.CompileQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Layout.StateBase != c2.Layout.StateBase || c1.resultBase != c2.resultBase {
		t.Fatal("layout base addresses differ between compiles")
	}
	if len(c1.Code.Program.Code) != len(c2.Code.Program.Code) {
		t.Fatalf("program sizes differ: %d vs %d",
			len(c1.Code.Program.Code), len(c2.Code.Program.Code))
	}
	for i := range c1.Code.Program.Code {
		if c1.Code.Program.Code[i] != c2.Code.Program.Code[i] {
			t.Fatalf("instruction %d differs between compiles", i)
		}
	}
}

// TestHashTableRegionSizes: every suite hash table's arena is sized by its
// build bound — BuildBound+16 entries — and its directory by
// TableDirSlots, which for a join or group join is DirSlots(BuildBound)
// and for a group-by never more; its entry-sized merge regions by
// StagedBound+16 entries, its side vectors by StagedBound+16 words, and
// its merge cursors by the partition count.
func TestHashTableRegionSizes(t *testing.T) {
	e := New(testCatalog(t), DefaultOptions())
	for _, w := range queries.Suite() {
		cq, err := e.CompileQuery(w.Query)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		sizeAt := func(addr int64) int64 {
			for _, r := range cq.regions {
				if r.Lo == addr {
					return r.Hi - r.Lo
				}
			}
			return -1
		}
		type sized struct {
			name       string
			addr, size int64
		}
		for n, ht := range cq.Layout.HT {
			es := pipeline.EntrySize(n)
			staged := int64(pipeline.StagedBound(n) + 16)
			dirSlots := pipeline.TableDirSlots(n)
			if bound := pipeline.DirSlots(pipeline.BuildBound(n)); dirSlots > bound {
				t.Errorf("%s: %d directory slots, more than the bound's %d", w.Name, dirSlots, bound)
			} else if _, ok := n.(*plan.GroupBy); !ok && dirSlots != bound {
				t.Errorf("%s: %s has %d directory slots, want the bound's %d", w.Name, n.Kind(), dirSlots, bound)
			}
			want := []sized{
				{"ht.dir", ht.Dir, dirSlots * 8},
				{"ht.arena", ht.Arena, int64(pipeline.BuildBound(n)+16) * es},
				{"ht.scatter", ht.ScatterOut, staged * es},
				{"ht.mergesrc", ht.MergeSrc, staged * es},
				{"ht.mergevec", ht.MergeVec, staged * 8},
				{"ht.mergecnt", ht.MergeCnt, ht.Partitions * 8},
				{"ht.mergecur", ht.MergeCur, ht.Partitions * 8},
			}
			if _, ok := n.(*plan.GroupBy); ok {
				want = append(want, sized{"ht.mergeout", ht.MergeOut, staged * es}, sized{"ht.mergeseq", ht.MergeSeq, staged * 8})
			}
			for _, r := range want {
				if got := sizeAt(r.addr); got != r.size {
					t.Errorf("%s: %s at %d holds %d bytes, want %d", w.Name, r.name, r.addr, got, r.size)
				}
			}
		}
	}
}

// TestOneCorePathStaysInPrefix: a one-core run addresses nothing at or
// above mergeBase. Every suite and SQL statement runs serially on a machine
// of the full heap size — unprofiled, sampled with registers, three
// iterations, with tuple counters — and must leave the merge area zero and
// equal the run on the one-core machine in rows, statistics, clock,
// samples and every prefix byte.
func TestOneCorePathStaysInPrefix(t *testing.T) {
	cat := testCatalog(t)
	counters := DefaultOptions()
	counters.TupleCounters = true
	shapes := []struct {
		name string
		opts Options
		cfg  *pmu.Config
		n    int
	}{
		{"unprofiled", DefaultOptions(), nil, 1},
		{"cycles-regs", DefaultOptions(), pgoSampling(), 1},
		{"iterations3", DefaultOptions(), nil, 3},
		{"tuple-counters", counters, nil, 1},
	}
	for _, w := range append(queries.Suite(), queries.SQLSuite()...) {
		for _, sh := range shapes {
			cq, err := (&Compiler{Cat: cat, Opts: sh.opts}).CompileQuery(w.Query)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			x := &executor{Opts: sh.opts}
			want, err := x.run(cq, nil, sh.n, sh.cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", w.Name, sh.name, err)
			}
			r, err := x.stage(cq, cq.serial(), nil, sh.cfg, cq.heapSize)
			if err != nil {
				t.Fatalf("%s/%s: %v", w.Name, sh.name, err)
			}
			got, err := r.iterate(sh.n)
			if err != nil {
				t.Fatalf("%s/%s on the full heap: %v", w.Name, sh.name, err)
			}
			base := cq.mergeBase
			switch {
			case len(want.CPU.Heap) != base:
				t.Fatalf("%s/%s: the one-core machine has %d bytes of heap, want %d", w.Name, sh.name, len(want.CPU.Heap), base)
			case slices.ContainsFunc(got.CPU.Heap[base:], func(b byte) bool { return b != 0 }):
				t.Fatalf("%s/%s: the run wrote the merge area [%d, %d)", w.Name, sh.name, base, len(got.CPU.Heap))
			case !reflect.DeepEqual(got.Rows, want.Rows):
				t.Fatalf("%s/%s: rows differ", w.Name, sh.name)
			case got.Stats != want.Stats || got.CPU.TSC() != want.CPU.TSC():
				t.Fatalf("%s/%s: stats or clock differ:\n got %+v (tsc %d)\nwant %+v (tsc %d)", w.Name, sh.name, got.Stats, got.CPU.TSC(), want.Stats, want.CPU.TSC())
			case !reflect.DeepEqual(got.Samples, want.Samples):
				t.Fatalf("%s/%s: sample streams differ (%d vs %d)", w.Name, sh.name, len(got.Samples), len(want.Samples))
			case !reflect.DeepEqual(got.TupleCounts, want.TupleCounts):
				t.Fatalf("%s/%s: tuple counts differ", w.Name, sh.name)
			case !bytes.Equal(got.CPU.Heap[:base], want.CPU.Heap):
				t.Fatalf("%s/%s: heaps differ below the merge base", w.Name, sh.name)
			}
		}
	}
}
