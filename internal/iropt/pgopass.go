package iropt

// Profile-guided passes. Tailored Profiling attributes samples bottom-up
// from native instructions to IR instructions to tasks; these passes run
// the same information top-down: a recompilation consults the previous
// run's per-IR-instruction weights and transforms only the loops that
// demonstrably burned cycles. Both passes keep the Tagging Dictionary
// valid — LICM moves instructions without changing their IDs, and
// strength reduction either rewrites in place (ID preserved) or reports
// Derived/Replaced lineage — so a profile taken on the recompiled binary
// still attributes through the dictionary.

import (
	"repro/internal/core"
	"repro/internal/ir"
)

// HotLoopFrac is the share of total profile weight a loop body must have
// attracted for the profile-guided passes to touch it.
const HotLoopFrac = 0.01

// maxHoistPerLoop caps LICM per loop: hoisting extends live ranges across
// the whole loop, and past a point the cost of the spills it forces
// exceeds the cost of the instructions it removes.
const maxHoistPerLoop = 8

// natLoop is a natural loop approximated as the contiguous block range
// [header..latch] closed over a back edge. Pipeline lowering emits loop
// blocks contiguously, so the approximation is exact for generated code;
// where it over-approximates, LICM only becomes more conservative about
// what counts as loop-invariant.
type natLoop struct {
	header *ir.Block
	latch  int // index of the furthest latch block
}

// contains reports whether b is one of the loop's blocks.
func (lp natLoop) contains(b *ir.Block) bool {
	return lp.header.Func.Owns(b) && lp.header.Index <= b.Index && b.Index <= lp.latch
}

// hotLoops finds the natural loops of f whose bodies hold at least
// HotLoopFrac of the profile's total weight. Multiple back edges to one
// header (continue paths) are merged into a single loop spanning the
// furthest latch.
func hotLoops(f *ir.Func, hot Hotness) []natLoop {
	total := hot.TotalWeight()
	if total <= 0 {
		return nil
	}
	latch := make([]int, len(f.Blocks)) // header index → 1 + furthest latch index
	for bi, b := range f.Blocks {
		for _, s := range b.Succs() {
			if f.Owns(s) && s.Index <= bi { // bi only grows: the last write is the furthest
				latch[s.Index] = bi + 1
			}
		}
	}
	var out []natLoop
	for hi, h := range f.Blocks { // deterministic order
		if latch[hi] == 0 {
			continue
		}
		lp := natLoop{header: h, latch: latch[hi] - 1}
		w := 0.0
		for _, blk := range f.Blocks[hi : lp.latch+1] {
			for _, in := range blk.Instrs {
				w += hot.InstrWeight(in.ID)
			}
		}
		if w/total >= HotLoopFrac {
			out = append(out, lp)
		}
	}
	return out
}

// LICM hoists loop-invariant pure instructions out of profile-hot loops
// into the loop preheader. Only side-effect-free instructions move
// (IsPure excludes loads, division and calls), so executing one
// speculatively — the preheader runs even if the loop body never does —
// cannot trap or change observable state. Instruction IDs are preserved
// by motion, so no lineage updates are needed and the Tagging
// Dictionary's Log B stays valid verbatim.
func LICM(m *ir.Module, lin core.Lineage, hot Hotness) int {
	hoisted := 0
	for _, f := range m.Funcs {
		loops := hotLoops(f, hot)
		if len(loops) == 0 {
			continue
		}
		dom := f.Dominators()
		for _, lp := range loops {
			// The preheader is the unique predecessor of the header from
			// outside the loop; bail if the CFG doesn't offer one.
			var pre *ir.Block
			for _, p := range lp.header.Preds {
				if lp.contains(p) {
					continue
				}
				if pre != nil {
					pre = nil
					break
				}
				pre = p
			}
			if pre == nil || pre.Terminator() == nil {
				continue
			}
			moved := 0
			for moved < maxHoistPerLoop {
				in, blk := findHoistable(lp, pre, dom, hot)
				if in == nil {
					break
				}
				removeInstr(blk, in)
				insertBefore(pre, pre.Terminator(), in)
				in.Block = pre
				moved++
			}
			hoisted += moved
		}
	}
	return hoisted
}

// findHoistable returns the first instruction in the loop body whose
// operands are all defined outside the loop in blocks dominating the
// preheader (so they are certainly available there). Previously hoisted
// instructions satisfy the check for their dependents because their Block
// is already the preheader. Only instructions the profile saw executing
// qualify: a zero-weight instruction inside a hot loop either never runs
// (its materialization was folded away by the backend) or costs nothing
// worth a loop-long live range — hoisting it would trade no cycles for
// real register pressure. Neither does a block that, by the plan's
// estimates (ir.Block.Freq), runs no more often than the preheader: the
// contiguous-range loop can include a conditional block beside the loop
// (a second bloom probe), where hoisting runs an instruction more often.
func findHoistable(lp natLoop, pre *ir.Block, dom ir.DomSets, hot Hotness) (*ir.Instr, *ir.Block) {
	// Iterate blocks in function order for determinism.
	for _, b := range lp.header.Func.Blocks[lp.header.Index : lp.latch+1] {
		if b.Freq <= pre.Freq {
			continue // hoisting would not run it less often
		}
		for _, in := range b.Instrs {
			if !in.Op.IsPure() || in.Op.IsTerminator() {
				continue
			}
			if hot.InstrWeight(in.ID) <= 0 {
				continue
			}
			ok := true
			for _, a := range in.Args {
				if lp.contains(a.Block) || !(a.Block == pre || dom.Dominates(a.Block, pre)) {
					ok = false
					break
				}
			}
			if ok {
				return in, b
			}
		}
	}
	return nil, nil
}

func removeInstr(b *ir.Block, in *ir.Instr) {
	for i, x := range b.Instrs {
		if x == in {
			b.Instrs = append(b.Instrs[:i], b.Instrs[i+1:]...)
			return
		}
	}
}

func insertBefore(b *ir.Block, before, in *ir.Instr) {
	for i, x := range b.Instrs {
		if x == before {
			b.Instrs = append(b.Instrs, nil)
			copy(b.Instrs[i+1:], b.Instrs[i:])
			b.Instrs[i] = in
			return
		}
	}
	b.Instrs = append(b.Instrs, in)
}

// StrengthReduce rewrites expensive arithmetic in profile-hot loops into
// cheaper equivalents under the VM's cost model (MUL costs 3, SHL and ADD
// cost 1): multiplication by a power of two becomes a shift, and
// algebraic identities (x*1, x+0, x<<0, x/1, …) collapse. Rewrites happen
// in place where possible so the instruction ID — and its dictionary
// links — survive; a new shift-amount constant is reported as Derived
// from the instruction it serves.
func StrengthReduce(m *ir.Module, lin core.Lineage, hot Hotness) int {
	n := 0
	for _, f := range m.Funcs {
		loops := hotLoops(f, hot)
		if len(loops) == 0 {
			continue
		}
		hotBlocks := ir.NewBitset(len(f.Blocks))
		for _, lp := range loops {
			for bi := lp.header.Index; bi <= lp.latch; bi++ {
				hotBlocks.Set(bi)
			}
		}
		for bi, b := range f.Blocks {
			if !hotBlocks.Has(bi) {
				continue
			}
			for i := 0; i < len(b.Instrs); i++ {
				in := b.Instrs[i]
				if done, grew := reduceInstr(f, b, i, in, lin); done {
					n++
					i += grew
				}
			}
		}
	}
	return n
}

// reduceInstr applies one strength reduction to in if a pattern matches.
// It reports whether a rewrite happened and how many instructions were
// inserted before position i.
func reduceInstr(f *ir.Func, b *ir.Block, i int, in *ir.Instr, lin core.Lineage) (bool, int) {
	if len(in.Args) != 2 {
		return false, 0
	}
	x, c, ok := splitConst(in)
	if !ok {
		return false, 0
	}
	switch in.Op {
	case ir.OpMul:
		switch {
		case c == 0:
			toConst(in, 0)
			return true, 0
		case c == 1:
			replaceWith(f, in, x, lin)
			return true, 0
		case c > 0 && c&(c-1) == 0:
			// x * 2^k  →  x << k. The shift-amount constant is new code
			// derived from the multiply; its lineage says so.
			k := int64(0)
			for v := c; v > 1; v >>= 1 {
				k++
			}
			kc := &ir.Instr{ID: f.Module.NewID(), Op: ir.OpConst, Type: ir.I64, Imm: k, Block: b}
			lin.Derived(kc.ID, in.ID)
			b.Instrs = append(b.Instrs, nil)
			copy(b.Instrs[i+1:], b.Instrs[i:])
			b.Instrs[i] = kc
			in.Op = ir.OpShl
			in.Args = []*ir.Instr{x, kc}
			return true, 1
		}
	case ir.OpAdd, ir.OpOr, ir.OpXor:
		if c == 0 {
			replaceWith(f, in, x, lin)
			return true, 0
		}
	case ir.OpSub, ir.OpShl, ir.OpShr:
		// Non-commutative: the constant must be the second operand.
		if c == 0 && in.Args[1].Op == ir.OpConst {
			replaceWith(f, in, x, lin)
			return true, 0
		}
	case ir.OpSDiv:
		if c == 1 && in.Args[1].Op == ir.OpConst {
			replaceWith(f, in, x, lin)
			return true, 0
		}
	case ir.OpSMod:
		if c == 1 && in.Args[1].Op == ir.OpConst {
			toConst(in, 0)
			return true, 0
		}
	}
	return false, 0
}

// splitConst returns the non-constant operand and the constant's value
// for a binary instruction with exactly one constant operand.
func splitConst(in *ir.Instr) (*ir.Instr, int64, bool) {
	a, b := in.Args[0], in.Args[1]
	if a.Op == ir.OpConst && b.Op != ir.OpConst {
		return b, a.Imm, true
	}
	if b.Op == ir.OpConst && a.Op != ir.OpConst {
		return a, b.Imm, true
	}
	return nil, 0, false
}

// toConst rewrites in into a constant in place, preserving its ID
// exactly like ConstFold does.
func toConst(in *ir.Instr, v int64) {
	in.Op = ir.OpConst
	in.Type = ir.I64
	in.Imm = v
	in.Args = nil
}

// replaceWith rewires every use of in to x and removes in, reporting the
// replacement to the lineage (x inherits in's tasks, like CSE survivors).
func replaceWith(f *ir.Func, in, x *ir.Instr, lin core.Lineage) {
	rewriteUses(f, in, x)
	lin.Replaced(in.ID, x.ID)
	removeInstr(in.Block, in)
}
