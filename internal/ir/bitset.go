package ir

import "math/bits"

// Bitset is a fixed-capacity set of small non-negative integers — block
// indices, instruction IDs, virtual registers: the lowering stack's dense
// replacement for map[key]bool. A Bitset sliced out of a larger one is a
// row of a bit matrix (dominator sets per block, live sets per block).
type Bitset []uint64

// BitsetWords returns the number of words a set over [0, n) occupies.
func BitsetWords(n int) int { return (n + 63) / 64 }

// NewBitset returns an empty set over [0, n).
func NewBitset(n int) Bitset { return make(Bitset, BitsetWords(n)) }

// Has reports whether i is in the set; anything outside the capacity is not.
func (s Bitset) Has(i int) bool {
	return uint(i) < uint(len(s))*64 && s[i>>6]&(1<<(uint(i)&63)) != 0
}

// Set adds i.
func (s Bitset) Set(i int) { s[i>>6] |= 1 << (uint(i) & 63) }

// Row returns row r of a matrix of w-word rows laid out in s.
func (s Bitset) Row(r, w int) Bitset { return s[r*w : (r+1)*w : (r+1)*w] }

// ForEach calls fn for every member in ascending order.
func (s Bitset) ForEach(fn func(i int)) {
	for wi, w := range s {
		for ; w != 0; w &= w - 1 {
			fn(wi<<6 + bits.TrailingZeros64(w))
		}
	}
}
