package engine

// DefaultMorselRows is the morsel size used when Options.MorselRows is 0.
// Umbra uses morsels of a few thousand tuples: large enough to amortize
// scheduling, small enough to balance load across workers.
const DefaultMorselRows = 1024

// Span is one morsel: a half-open [Lo, Hi) range of tuple indices (table
// scans) or arena entry indices (hash-table scans).
type Span struct {
	Lo, Hi int64
}

// Rows returns the number of units the span covers.
func (s Span) Rows() int64 { return s.Hi - s.Lo }

// PartitionMorsels splits the domain [0, total) into consecutive spans of
// at most size units each (size <= 0 selects DefaultMorselRows). The
// partition is a pure function of (total, size): it never depends on the
// worker count, so every worker count sees the same global morsel list —
// the invariant behind deterministic parallel results. The fuzz test
// asserts the spans are non-empty, contiguous, and cover the domain
// exactly once.
func PartitionMorsels(total, size int64) []Span {
	if size <= 0 {
		size = DefaultMorselRows
	}
	if total <= 0 {
		return nil
	}
	return appendMorsels(make([]Span, 0, (total+size-1)/size), 0, total, size)
}

// appendMorsels appends [lo, hi) to spans as consecutive spans of at most
// size (> 0) units each.
func appendMorsels(spans []Span, lo, hi, size int64) []Span {
	for ; lo < hi; lo += size {
		spans = append(spans, Span{Lo: lo, Hi: min(lo+size, hi)})
	}
	return spans
}
