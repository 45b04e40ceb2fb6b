package codegen

// Phi-copy coalescing. lowerPhis realizes every phi as copies at the end
// of its predecessors (or of an edge block), and each copy costs a cycle
// per execution: a loop's induction variable pays one per iteration. A
// copy d ← s whose two registers never interfere is deleted by giving d
// and s one vreg.
//
// Interference follows Boissinot et al. (CGO 2009) in its value-aware
// form: two vregs interfere when one is defined while the other is live
// afterwards, unless the definition is the copy between them, which gives
// both the same value. Liveness is solved once per function, before any
// merge; a merged class interferes with whatever any of its members
// interfered with, so the interference rows of the copy-related vregs
// are computed once and a merge ORs one row into another. Copies merge
// hottest first (their block's estimated count), so a conflict between
// two candidates keeps the more frequent copy out of the code.

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/ir"
	"repro/internal/isa"
)

// phiCopy is a coalescing candidate: the copy at fn.blocks[b].ins[i].
type phiCopy struct {
	freq float64
	b, i int32
}

// isCopy reports whether l is a register-to-register copy between two
// vregs (tag-register moves are not).
func (l *lins) isCopy() bool {
	return l.op == isa.MOVRR && l.pseudo == pNone && !l.tagWrite && !l.tagRead && l.dst != 0 && l.a != 0
}

// coalesce merges the registers of every copy in fn whose source and
// destination do not interfere, renames them, and deletes the copies that
// became self-copies. Its tables are the lowerer's, reused across
// functions; it allocates only when one of them must grow.
func (lo *lowerer) coalesce(fn *lfunc) {
	nv := int(fn.nvreg) + 1
	lo.cidx = grow(lo.cidx, nv)
	clear(lo.cidx)
	lo.copies, lo.cands = lo.copies[:0], lo.cands[:0]
	number := func(v vreg) {
		if lo.cidx[v] == 0 {
			lo.cands = append(lo.cands, v)
			lo.cidx[v] = int32(len(lo.cands))
		}
	}
	for bi, b := range fn.blocks {
		for i := range b.ins {
			if l := &b.ins[i]; l.isCopy() {
				number(l.dst)
				number(l.a)
				lo.copies = append(lo.copies, phiCopy{b.freq, int32(bi), int32(i)})
			}
		}
	}
	if len(lo.copies) == 0 {
		return
	}
	k := len(lo.cands)
	kw := ir.BitsetWords(k)
	lo.inter = grow(lo.inter, k*kw)
	clear(lo.inter)
	lo.interfere(fn, kw)

	lo.root = grow(lo.root, k)
	for c := range lo.root {
		lo.root[c] = int32(c)
	}
	slices.SortStableFunc(lo.copies, func(x, y phiCopy) int { return cmp.Compare(y.freq, x.freq) })
	for _, c := range lo.copies {
		l := &fn.blocks[c.b].ins[c.i]
		x, y := lo.find(lo.cidx[l.dst]-1), lo.find(lo.cidx[l.a]-1)
		if x == y || lo.inter.Row(int(x), kw).Has(int(y)) {
			continue
		}
		// y's class joins x's: x now interferes with whatever y did.
		lo.root[y] = x
		rx := lo.inter.Row(int(x), kw)
		for wi, word := range lo.inter.Row(int(y), kw) {
			rx[wi] |= word
			for ; word != 0; word &= word - 1 {
				lo.inter.Row(wi<<6+bits.TrailingZeros64(word), kw).Set(int(x))
			}
		}
	}
	lo.rename(fn)
}

// interfere fills lo.inter (rows of kw words, one per candidate) from one
// backward walk over each block, starting from the block's live-out set.
func (lo *lowerer) interfere(fn *lfunc, kw int) {
	_, liveOut, w := liveness(fn, &lo.live)
	// live is the set after the instruction being walked; it borrows the
	// gen matrix's first row, which liveness no longer needs.
	live := lo.live[:w:w]
	var buf [2]vreg
	for bi, b := range fn.blocks {
		copy(live, liveOut.Row(bi, w))
		for i := len(b.ins) - 1; i >= 0; i-- {
			l := &b.ins[i]
			def, uses := l.operands(&buf)
			if def != 0 {
				if cd := lo.cidx[def]; cd > 0 {
					row := lo.inter.Row(int(cd-1), kw)
					for wi, word := range live {
						for ; word != 0; word &= word - 1 {
							v := vreg(wi<<6 + bits.TrailingZeros64(word))
							cv := lo.cidx[v]
							if cv == 0 || v == def || l.isCopy() && v == l.a {
								continue
							}
							row.Set(int(cv - 1))
							lo.inter.Row(int(cv-1), kw).Set(int(cd - 1))
						}
					}
				}
				live[def>>6] &^= 1 << (uint(def) & 63)
			}
			for _, u := range uses {
				if u != 0 {
					live.Set(int(u))
				}
			}
		}
	}
}

// find returns the root of candidate c's class, halving the path.
func (lo *lowerer) find(c int32) int32 {
	for lo.root[c] != c {
		lo.root[c] = lo.root[lo.root[c]]
		c = lo.root[c]
	}
	return c
}

// rename rewrites every vreg of fn to its class's root and deletes the
// copies whose source and destination are now one vreg.
func (lo *lowerer) rename(fn *lfunc) {
	to := func(v *vreg) {
		if c := lo.cidx[*v]; c > 0 {
			*v = lo.cands[lo.find(c-1)]
		}
	}
	for _, b := range fn.blocks {
		kept := b.ins[:0]
		for _, l := range b.ins {
			to(&l.dst)
			to(&l.a)
			to(&l.b)
			for i := range l.args {
				to(&l.args[i])
			}
			if l.isCopy() && l.dst == l.a {
				continue
			}
			kept = append(kept, l)
		}
		b.ins = kept
	}
}

// grow returns s resliced to n entries, reallocated when its capacity is
// short; the contents are not preserved.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
