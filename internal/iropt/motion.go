package iropt

import "repro/internal/ir"

// Hoist moves code up the dominator tree to where it runs least often —
// Click's "schedule early" (PLDI 1995) steered by the blocks' estimated
// counts (ir.Block.Freq) instead of loop nests. A movable instruction is
// a pure one or a load the pipeline generator marked invariant
// (ir.Instr.Invariant: host-staged memory no generated code writes, so
// the load reads the same value wherever it runs). Its candidates are the
// blocks on the dominator path from the deepest of its operands'
// definitions down to its own block; it moves to the least frequent one,
// and a tie keeps the deeper block, so nothing moves into a loop header
// that runs as often as the body. Constant operands move with the
// instruction. Blocks are visited by dominator depth, so an operand has
// reached its place before its users are placed.
//
// A load never lands at or above the block of a phi its address depends
// on: the index a phi carries is bounded by the test below it, so the
// load stays behind that test and never reads past its region. A compare
// that its block's branch consumes stays beside the branch, where the
// backend fuses the two.
//
// The instruction keeps its ID, so its Tagging Dictionary links stay
// exact (Table 1: code motion). Hoist returns how many instructions moved.
func Hoist(m *ir.Module) int {
	var h hoister
	return h.run(m)
}

// hoister is Hoist's scratch: Optimize keeps one for the whole module and
// every fixpoint round, so dominators are not re-allocated per function.
type hoister struct {
	dom ir.DomSets
	// Per block, by index: depth in the dominator tree (the entry is 1),
	// the immediate dominator (-1 for the entry and unreachable blocks)
	// and the visiting order (ascending depth).
	depth, idom, order []int32
	// phiDep is, by instruction ID, 1 + the index of the deepest block
	// holding a phi the instruction's value depends on; 0 for none.
	phiDep []int32
}

func (h *hoister) run(m *ir.Module) int {
	h.phiDep = resize(h.phiDep, m.MaxID()+1)
	// Size the per-block scratch for the largest function first, so the
	// others reuse it.
	var largest *ir.Func
	for _, f := range m.Funcs {
		if largest == nil || len(f.Blocks) > len(largest.Blocks) {
			largest = f
		}
	}
	if largest == nil {
		return 0
	}
	h.dom.Compute(largest)
	if n := 3 * len(largest.Blocks); cap(h.depth) < n {
		h.depth = make([]int32, n)
	}
	moved := 0
	for _, f := range m.Funcs {
		moved += h.hoistFunc(f)
	}
	return moved
}

// resize returns s with length n and every element zero, reusing its
// backing array when large enough.
func resize(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func (h *hoister) hoistFunc(f *ir.Func) int {
	n := len(f.Blocks)
	h.dom.Compute(f)
	if cap(h.depth) < 3*n {
		h.depth = make([]int32, 3*n)
	}
	h.depth, h.idom, h.order = h.depth[:n], h.depth[n:2*n:2*n], h.depth[2*n:3*n:3*n]
	h.dom.Tree(h.depth, h.idom)
	// Insertion sort by depth: a function has a few dozen blocks.
	for b := range n {
		i := b
		for ; i > 0 && h.depth[h.order[i-1]] > h.depth[b]; i-- {
			h.order[i] = h.order[i-1]
		}
		h.order[i] = int32(b)
	}

	moved := 0
	for _, bi := range h.order {
		b := f.Blocks[bi]
		if bi != 0 && h.idom[bi] < 0 {
			continue // unreachable: nothing to gain
		}
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			h.notePhi(in)
			if to := h.target(f, b, in); to != nil {
				kept = h.move(in, to, kept)
				moved++
				continue
			}
			kept = append(kept, in)
		}
		b.Instrs = kept
	}
	return moved
}

// notePhi records the deepest phi block in's value depends on.
func (h *hoister) notePhi(in *ir.Instr) {
	if in.Op == ir.OpPhi {
		h.phiDep[in.ID] = int32(in.Block.Index) + 1
		return
	}
	var dep int32
	for _, a := range in.Args {
		if p := h.phiDep[a.ID]; p > 0 && (dep == 0 || h.depth[p-1] > h.depth[dep-1]) {
			dep = p
		}
	}
	h.phiDep[in.ID] = dep
}

// target returns the block in moves to, or nil when it stays in b.
func (h *hoister) target(f *ir.Func, b *ir.Block, in *ir.Instr) *ir.Block {
	if in.Op == ir.OpConst || !in.Op.IsPure() && !in.Invariant {
		return nil
	}
	if t := b.Terminator(); t != nil && t.Op == ir.OpCondBr && t.Args[0] == in {
		return nil
	}
	// The earliest legal block: the deepest operand definition (constants
	// move along, so they do not pin).
	lo := int32(0)
	for _, a := range in.Args {
		if a.Op != ir.OpConst && h.depth[a.Block.Index] > h.depth[lo] {
			lo = int32(a.Block.Index)
		}
	}
	floor := int32(0) // candidates lie strictly deeper than this
	if in.Op.IsLoad() {
		if p := h.phiDep[in.Args[0].ID]; p > 0 {
			floor = h.depth[p-1]
		}
	}
	best := int32(b.Index)
	for c := h.idom[best]; c >= 0 && h.depth[c] >= h.depth[lo] && h.depth[c] > floor; c = h.idom[c] {
		if f.Blocks[c].Freq < f.Blocks[best].Freq {
			best = c
		}
	}
	if best == int32(b.Index) {
		return nil
	}
	return f.Blocks[best]
}

// move places in before to's terminator, with each constant operand
// defined below to; kept is the rebuilt prefix of in's own block, which
// such a constant may have to leave, and is returned updated.
func (h *hoister) move(in *ir.Instr, to *ir.Block, kept []*ir.Instr) []*ir.Instr {
	for _, a := range in.Args {
		if a.Op != ir.OpConst || h.depth[a.Block.Index] <= h.depth[to.Index] {
			continue
		}
		if a.Block == in.Block {
			kept = remove(kept, a)
		} else {
			a.Block.Instrs = remove(a.Block.Instrs, a)
		}
		insertBeforeTerminator(to, a)
	}
	insertBeforeTerminator(to, in)
	return kept
}

// remove deletes in from list, in place.
func remove(list []*ir.Instr, in *ir.Instr) []*ir.Instr {
	for i, x := range list {
		if x == in {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

func insertBeforeTerminator(b *ir.Block, in *ir.Instr) {
	t := len(b.Instrs) - 1
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[t+1:], b.Instrs[t:])
	b.Instrs[t] = in
	in.Block = b
}
