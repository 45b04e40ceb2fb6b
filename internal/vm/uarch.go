package vm

// Microarchitectural models: a three-level set-associative cache hierarchy
// and a table of 2-bit saturating branch-prediction counters. These give the
// simulated CPU the performance phenomena the paper's use cases depend on:
// widespread hash-table accesses miss caches (Fig. 12's memory profiles,
// cache-miss events) and data-dependent branch behaviour separates the two
// query plans of Fig. 10/11.
//
// A CPU's hierarchy is sized for its heap. A level whose sets can each hold
// every heap line that maps to them never evicts, so it holds exactly the
// lines accessed before; one bit per heap line answers for it. A heap of up
// to 8 MiB (131072 lines) answers L3 that way; only a larger heap needs L3's
// tags. TestBoundedHierarchyMatchesReference holds both to the reference.

// Cache memory-level results for a single access.
const (
	HitL1  = 1
	HitL2  = 2
	HitL3  = 3
	HitMem = 4
)

// Cache geometry: 32 KiB/8-way L1, 256 KiB/8-way L2, 8 MiB/16-way L3, all
// with 64-byte lines.
const (
	lineShift = 6

	lineBytes = 1 << lineShift

	l1Ways, l1Sets = 8, (32 << 10) / (8 * lineBytes)
	l2Ways, l2Sets = 8, (256 << 10) / (8 * lineBytes)
	l3Ways, l3Sets = 16, (8 << 20) / (16 * lineBytes)

	// Tags are 32 bits wide (see tagOf), so line numbers stop short of
	// maxLines; New enforces it for the heap.
	maxLines = 1<<32 - 1
)

// Hierarchy models L1/L2/L3 data caches with true LRU replacement. Each set
// is its ways' tags in recency order, most recently used first: a hit moves
// the tag to the front, a miss inserts it there and drops the last. LRU
// fixes the hit/miss sequence of an address stream whatever represents the
// recency order, so this is the model that stamped every way with the time
// of its last use, in a quarter of the memory.
//
// A hierarchy for addresses below L lines answers L3 from seen when L3
// cannot evict (see the file comment): a set receives at most ⌈L/sets⌉ ≤
// ways distinct lines, a line's first access misses every level and inserts
// it into each, and so "in L3" is "accessed before".
type Hierarchy struct {
	// The pointers come first, so the garbage collector stops scanning a
	// CPU before the tag arrays. A CPU keeps L3's tags and the bitmap once
	// built, whichever its next heap needs.
	l3     *[l3Sets][l3Ways]uint32 // L3's tags, in use where l3Tags
	seen   []uint64                // one bit per line, set on its first access; empty where l3Tags
	l3Tags bool                    // the heap is too large for seen to answer L3

	l1 [l1Sets][l1Ways]uint32
	l2 [l2Sets][l2Ways]uint32
}

// NewHierarchy builds the default cache hierarchy, for any address.
func NewHierarchy() *Hierarchy { return newHierarchy(maxLines) }

// newHierarchy builds a hierarchy for addresses below lines<<lineShift.
func newHierarchy(lines uint64) *Hierarchy {
	h := new(Hierarchy)
	h.size(lines, nil, nil)
	return h
}

// size readies h, whose L1 and L2 are empty, for addresses below
// lines<<lineShift. l3 and seen are what an earlier size built (nil if
// nothing): size keeps both, clears the one lines uses, and builds it only
// when they lack it — L3's tags, or a bitmap with more words.
func (h *Hierarchy) size(lines uint64, l3 *[l3Sets][l3Ways]uint32, seen []uint64) {
	h.l3, h.seen = l3, seen[:0]
	if h.l3Tags = lines > l3Sets*l3Ways; h.l3Tags {
		if h.l3 == nil {
			h.l3 = new([l3Sets][l3Ways]uint32)
		} else {
			clear(h.l3[:])
		}
		return
	}
	if words := (lines + 63) / 64; uint64(cap(seen)) < words {
		h.seen = make([]uint64, words)
	} else {
		h.seen = seen[:words]
		clear(h.seen)
	}
}

// Access classifies a memory access and updates cache state, returning the
// level that served it (HitL1..HitMem). addr>>6 must be below the lines h
// was sized for (maxLines for NewHierarchy).
func (h *Hierarchy) Access(addr uint64) int {
	if h.front(addr) {
		return HitL1
	}
	return h.lookup(addr)
}

// front reports whether addr's line is the most recently used of its L1 set
// — as the line the previous access touched always is. Such an access is an
// L1 hit that changes nothing: the line is already in front, and an L1 hit
// does not reach L2 or L3. The run loop asks this inline and calls lookup
// only when the answer is no.
func (h *Hierarchy) front(addr uint64) bool {
	return h.l1[addr>>lineShift%l1Sets][0] == tagOf(addr)
}

// tagOf is what a way holding addr's line stores: the line number plus one,
// 0 being an empty way.
func tagOf(addr uint64) uint32 { return uint32(addr>>lineShift) + 1 }

// lookup is Access without the shortcut.
func (h *Hierarchy) lookup(addr uint64) int {
	line, tag := addr>>lineShift, tagOf(addr)
	if touch(h.l1[line%l1Sets][:], tag) {
		return HitL1
	}
	if touch(h.l2[line%l2Sets][:], tag) {
		return HitL2
	}
	if h.l3Tags {
		if touch(h.l3[line%l3Sets][:], tag) {
			return HitL3
		}
		return HitMem
	}
	w, bit := &h.seen[line/64], uint64(1)<<(line%64)
	seen := *w&bit != 0
	*w |= bit
	if seen {
		return HitL3
	}
	return HitMem
}

// touch looks tag up in one set and makes it the most recently used way,
// shifting the ways before it (all of them on a miss, dropping the least
// recently used) back by one as it scans. It reports whether tag was there.
func touch(set []uint32, tag uint32) bool {
	prev := tag
	for i, t := range set {
		set[i] = prev
		if t == tag {
			return true
		}
		prev = t
	}
	return false
}

// BranchPredictor is a table of 2-bit saturating counters indexed by the
// branch instruction's address.
type BranchPredictor struct {
	counters [4096]uint8
}

// NewBranchPredictor builds a predictor with 4096 entries.
func NewBranchPredictor() *BranchPredictor {
	bp := new(BranchPredictor)
	bp.reset()
	return bp
}

func (bp *BranchPredictor) reset() {
	for i := range bp.counters {
		bp.counters[i] = 1 // weakly not-taken
	}
}

// Predict consumes the branch outcome and reports whether the prediction
// was correct, updating the counter.
func (bp *BranchPredictor) Predict(ip int, taken bool) bool {
	c := &bp.counters[uint(ip)%uint(len(bp.counters))]
	predictedTaken := *c >= 2
	if taken {
		if *c < 3 {
			*c++
		}
	} else {
		if *c > 0 {
			*c--
		}
	}
	return predictedTaken == taken
}
