package vm

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"
)

func TestCacheL1Hit(t *testing.T) {
	h := NewHierarchy()
	if lvl := h.Access(0x1000); lvl != HitMem {
		t.Fatalf("cold access served by level %d, want memory", lvl)
	}
	if lvl := h.Access(0x1000); lvl != HitL1 {
		t.Fatalf("second access served by level %d, want L1", lvl)
	}
	// Same cache line.
	if lvl := h.Access(0x1038); lvl != HitL1 {
		t.Fatalf("same-line access served by level %d, want L1", lvl)
	}
	// Different line.
	if lvl := h.Access(0x1040); lvl == HitL1 {
		t.Fatal("different line reported as L1 hit on first touch")
	}
}

func TestCacheL1EvictionFallsToL2(t *testing.T) {
	h := NewHierarchy()
	// L1: 32 KiB, 8-way, 64 B lines → 64 sets; addresses 64*64 bytes
	// apart map to the same set. Touch 9 such lines to evict the first.
	const stride = 64 * 64
	for i := 0; i < 9; i++ {
		h.Access(uint64(i * stride))
	}
	if lvl := h.Access(0); lvl != HitL2 {
		t.Fatalf("evicted line served by level %d, want L2", lvl)
	}
}

func TestCacheWorkingSetLevels(t *testing.T) {
	h := NewHierarchy()
	touch := func(bytes int) int {
		// Two passes: first to fill, second to measure.
		worst := 0
		for pass := 0; pass < 2; pass++ {
			worst = 0
			for a := 0; a < bytes; a += 64 {
				lvl := h.Access(uint64(a))
				if lvl > worst {
					worst = lvl
				}
			}
		}
		return worst
	}
	if lvl := touch(16 << 10); lvl != HitL1 {
		t.Errorf("16 KiB working set served at level %d, want L1", lvl)
	}
	if lvl := touch(128 << 10); lvl > HitL2 {
		t.Errorf("128 KiB working set served at level %d, want ≤ L2", lvl)
	}
	if lvl := touch(2 << 20); lvl > HitL3 {
		t.Errorf("2 MiB working set served at level %d, want ≤ L3", lvl)
	}
}

func TestBranchPredictorLearnsBias(t *testing.T) {
	bp := NewBranchPredictor()
	misses := 0
	for i := 0; i < 100; i++ {
		if !bp.Predict(42, true) {
			misses++
		}
	}
	if misses > 3 {
		t.Fatalf("always-taken branch mispredicted %d/100 times", misses)
	}
}

func TestBranchPredictorAlternatingHurts(t *testing.T) {
	bp := NewBranchPredictor()
	misses := 0
	for i := 0; i < 100; i++ {
		if !bp.Predict(7, i%2 == 0) {
			misses++
		}
	}
	if misses < 40 {
		t.Fatalf("alternating branch mispredicted only %d/100 times", misses)
	}
}

func TestBranchPredictorIndependentSlots(t *testing.T) {
	bp := NewBranchPredictor()
	for i := 0; i < 10; i++ {
		bp.Predict(1, true)
		bp.Predict(2, false)
	}
	if !bp.Predict(1, true) {
		t.Fatal("slot 1 forgot its taken bias")
	}
	if !bp.Predict(2, false) {
		t.Fatal("slot 2 forgot its not-taken bias")
	}
}

// TestCacheMatchesTimestampLRU: the recency-ordered sets serve every address
// stream from the same levels as the reference's timestamped ways.
func TestCacheMatchesTimestampLRU(t *testing.T) {
	const span = 24 << 20 // beyond L3, so every level evicts
	x := uint64(88172645463325252)
	random := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	streams := map[string]func(i int) uint64{
		"sequential":       func(i int) uint64 { return uint64(i) * 8 % span },
		"same line":        func(i int) uint64 { return uint64(i/5)*4096 + uint64(i%5)*13%64 },
		"strided conflict": func(i int) uint64 { return uint64(i%11) * (l1Sets << lineShift) }, // 11 lines, one L1 set
		"l3 conflict":      func(i int) uint64 { return uint64(i%13) * (l3Sets << lineShift) }, // 13 lines, one set at every level
		"random conflict":  func(int) uint64 { return random() % 20 * (l3Sets << lineShift) },  // 20 such lines
		"two streams":      func(i int) uint64 { return uint64(i%2)*(8<<20) + uint64(i/2)*8 },
		"random":           func(int) uint64 { return random() % span },
		"random hot set":   func(int) uint64 { return random() % (48 << 10) },
		"scan then reuse":  func(i int) uint64 { return uint64(i%70000) * 64 },
	}
	for name, next := range streams {
		h, ref := NewHierarchy(), newRefHierarchy()
		var served [HitMem + 1]int
		for i := 0; i < 400_000; i++ {
			addr := next(i)
			got, want := h.Access(addr), ref.Access(addr)
			if got != want {
				t.Fatalf("%s: access %d (addr %#x) served by level %d, reference says %d", name, i, addr, got, want)
			}
			served[got]++
		}
		t.Logf("%-18s L1 %6d  L2 %6d  L3 %6d  mem %6d", name, served[HitL1], served[HitL2], served[HitL3], served[HitMem])
	}
}

// TestBoundedHierarchyMatchesReference: a hierarchy sized for L lines serves
// every stream of addresses below L lines from the same levels as the
// reference, on both sides of the threshold: L3 answered by the bitmap (L ≤
// 131072) and by its tags.
func TestBoundedHierarchyMatchesReference(t *testing.T) {
	for _, lines := range []uint64{1, 4096, 131071, 131072, 131073, 200000} {
		span := lines << lineShift
		x := uint64(88172645463325252)
		random := func() uint64 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return x
		}
		// conflict cycles at random through the heap's lines that share
		// one set of a level with stride sets.
		conflict := func(stride uint64) func(int) uint64 {
			n := (lines + stride - 1) / stride
			return func(int) uint64 { return random() % n * stride << lineShift }
		}
		streams := map[string]func(i int) uint64{
			"sequential": func(i int) uint64 { return uint64(i)%lines<<lineShift | uint64(i)*8%lineBytes },
			"random":     func(int) uint64 { return random() % span },
			"l1 set":     conflict(l1Sets),
			"l2 set":     conflict(l2Sets),
			"l3 set":     conflict(l3Sets),
			"hot set":    func(int) uint64 { return random() % min(span, 48<<10) },
			"warm set":   func(int) uint64 { return random() % min(span, 512<<10) },
		}
		h := newHierarchy(lines)
		if h.l3Tags != (lines > l3Sets*l3Ways) || h.l3Tags != (h.l3 != nil) {
			t.Fatalf("%d lines: hierarchy answers L3 from tags = %v, has them = %v", lines, h.l3Tags, h.l3 != nil)
		}
		for name, next := range streams {
			h, ref := newHierarchy(lines), newRefHierarchy()
			var served [HitMem + 1]int
			for i := 0; i < 50_000+2*int(lines); i++ {
				addr := next(i)
				got, want := h.Access(addr), ref.Access(addr)
				if got != want {
					t.Fatalf("%d lines, %s: access %d (addr %#x) served by level %d, reference says %d", lines, name, i, addr, got, want)
				}
				served[got]++
			}
			t.Logf("%6d lines %-10s L1 %6d  L2 %6d  L3 %6d  mem %6d", lines, name, served[HitL1], served[HitL2], served[HitL3], served[HitMem])
		}
	}
}

// TestNewCPUFootprint pins what building a CPU costs besides its heap: one
// allocation of ≈ 24 KiB (L1 and L2 tags, predictor, registers) and one bit
// per heap line. Only a heap beyond 8 MiB adds L3's 512 KiB of tags. Before
// the cache model was sized for the heap, every CPU carried 530 KiB of tags;
// the timestamped model took 2.1 MB in a dozen allocations, on every run.
//
// runtime.ReadMemStats counts every goroutine's allocations, its own
// included: when the big heap starts a collection, ReadMemStats can wait
// for the collector's stop-the-world and allocate a 96-byte sudog inside
// the window. So the collector stays off while the test builds, and a
// build is read as the least of three: vm.New's own allocation is the
// same every time, and what anything else allocates only adds to a
// reading.
func TestNewCPUFootprint(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	build := func(heap int) (c *CPU, bytes, mallocs uint64) {
		bytes, mallocs = math.MaxUint64, math.MaxUint64
		for range 3 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			c = New(heap)
			runtime.ReadMemStats(&after)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc-uint64(heap))
			mallocs = min(mallocs, after.Mallocs-before.Mallocs)
		}
		return c, bytes, mallocs
	}
	for _, heap := range []int{0, 1 << 20, 8 << 20} {
		c, bytes, mallocs := build(heap)
		if limit := uint64(heap/512 + 32<<10); bytes > limit || mallocs > 6 || c.caches.l3 != nil {
			t.Errorf("vm.New(%d) allocated %d bytes besides the heap in %d mallocs (L3 tags: %v), want at most %d in 6 and no L3 tags", heap, bytes, mallocs, c.caches.l3 != nil, limit)
		} else {
			t.Logf("vm.New(%d): %d bytes besides the heap, %d mallocs", heap, bytes, mallocs)
		}
	}
	const big = 8<<20 + lineBytes
	c, bytes, mallocs := build(big)
	if tags := uint64(l3Sets * l3Ways * 4); c.caches.l3 == nil || bytes < tags || bytes > tags+32<<10 || mallocs > 6 {
		t.Errorf("vm.New(%d) allocated %d bytes besides the heap in %d mallocs, want L3's %d bytes of tags + at most 32 KiB in 6", big, bytes, mallocs, tags)
	} else {
		t.Logf("vm.New(%d): %d bytes besides the heap, %d mallocs", big, bytes, mallocs)
	}
}

// TestHeapLimit: a heap with more lines than a tag can name is refused
// where it would be created.
func TestHeapLimit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a heap beyond the cache model's tag range")
		}
	}()
	New(maxLines << lineShift)
}
