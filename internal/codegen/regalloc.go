package codegen

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/ir"
	"repro/internal/isa"
)

// Register allocation: liveness analysis over the LIR, whole-interval
// construction, and Poletto/Sarkar linear scan with spilling.
//
// Two general-purpose registers (r13, r14) are reserved as spill scratch.
// When Register Tagging is enabled the tag register (isa.TagReg, r15) is
// additionally removed from allocation — the paper's "-ffixed" reservation
// (§5.3) — which is what the register-reservation overhead experiment
// measures. Values live across a CALL may not sit in the clobbered
// registers r0..r4.
const (
	scratchA = isa.Reg(13)
	scratchB = isa.Reg(14)
)

// allocatableRegs returns the registers available to the allocator.
func allocatableRegs(registerTagging bool) []isa.Reg {
	regs := []isa.Reg{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	if !registerTagging {
		regs = append(regs, isa.TagReg)
	}
	return regs
}

// operands returns the vreg one LIR instruction defines (0 for none) and
// the vregs it uses. Only a call uses more than two; everything else is
// returned in buf, which the caller owns, so nothing is allocated.
func (l *lins) operands(buf *[2]vreg) (def vreg, uses []vreg) {
	use := func(vs ...vreg) []vreg { return buf[:copy(buf[:], vs)] }
	switch l.pseudo {
	case pParam:
		return l.dst, nil
	case pRetVal:
		return 0, use(l.a)
	case pCall:
		if l.hasRes {
			def = l.dst
		}
		return def, l.args
	}
	switch l.op {
	case isa.MOVRI:
		if l.tagWrite {
			return 0, nil
		}
		return l.dst, nil
	case isa.MOVRR:
		if l.tagWrite {
			return 0, use(l.a)
		}
		if l.tagRead {
			return l.dst, nil
		}
		return l.dst, use(l.a)
	case isa.LOAD8, isa.LOAD16, isa.LOAD32, isa.LOAD64:
		switch {
		case l.a == 0 && !l.scaled: // absolute
			return l.dst, nil
		case !l.scaled:
			return l.dst, use(l.a)
		case l.a == 0: // constant base
			return l.dst, use(l.b)
		}
		return l.dst, use(l.a, l.b)
	case isa.STORE8, isa.STORE32, isa.STORE64:
		switch {
		case l.scaled: // constant base
			return 0, use(l.b, l.dst)
		case l.a == 0: // absolute
			return 0, use(l.dst)
		}
		return 0, use(l.a, l.dst)
	case isa.JMP, isa.RET, isa.HALT, isa.TRAP, isa.NOP, isa.CALL:
		return 0, nil
	case isa.JNZ, isa.JZ:
		return 0, use(l.a)
	case isa.JEQ, isa.JNE, isa.JLT, isa.JGE:
		if l.useImm {
			return 0, use(l.a)
		}
		return 0, use(l.a, l.b)
	default: // binary ALU / compare
		if l.useImm {
			return l.dst, use(l.a)
		}
		return l.dst, use(l.a, l.b)
	}
}

// interval is a live interval over linearized LIR positions.
type interval struct {
	v          vreg
	start, end int
	crossCall  bool
	// crossGenCall marks an interval live across a call to a *generated*
	// function. Runtime routines preserve the callee-saved registers
	// (only r0..r4 are clobbered), but generated functions allocate from
	// the full register file, so values crossing such a call can only
	// live in a spill slot.
	crossGenCall bool
	reg          isa.Reg
	spilled      bool
	slot         int
	// remat marks a constant: its one definition is a MOVRI, so when it
	// loses its register the emitter re-materializes it at each use
	// instead of storing it to a slot and reloading it.
	remat bool
	// weight estimates what spilling would cost: uses and defs, each
	// weighted by its block's estimated execution count, a def by
	// storeCost; the allocator prefers spilling cold intervals. A
	// constant's weight is what a register saves it, scaled by rematCost.
	weight float64
}

// allocation is the result of register allocation for one function:
// where each vreg lives, indexed by vreg. 0 = not allocated, r+1 =
// register r, -(s+1) = global spill slot s, inRemat = a constant
// re-materialized at each use from imm.
type allocation struct {
	loc          []int32
	imm          []int64 // by vreg: a constant's value
	spills       int
	genCallSlots []int // slots of values live across a generated-function call
}

// inRemat is the loc of a constant that lost its register.
const inRemat = math.MinInt32

// location describes where a vreg lives.
func (a *allocation) location(v vreg) (isa.Reg, int, bool) {
	if x := a.loc[v]; x > 0 {
		return isa.Reg(x - 1), 0, true
	} else if x < 0 && x != inRemat {
		return 0, int(-x - 1), false
	}
	return 0, 0, false
}

// remat reports whether v is a constant re-materialized at each use, and
// its value.
func (a *allocation) remat(v vreg) (int64, bool) {
	if a.loc[v] == inRemat {
		return a.imm[v], true
	}
	return 0, false
}

// Spill weights are in L1 reloads: a spilled value pays one per use
// (vm.CostLoadL1) and a spill store per def (vm.CostStore), so a def
// weighs storeCost. rematCost scales a constant's gain the same way:
// re-materializing costs one ALU cycle per use (vm.CostALU).
const (
	storeCost = 0.25
	rematCost = 0.25
)

// liveness solves the backward dataflow equations
//
//	out(b) = ⋃ in(succ)     in(b) = gen(b) ∪ (out(b) ∖ kill(b))
//
// to their least fixpoint over vreg bitsets, and returns the vregs live on
// entry to and on exit from each block as the w-word rows of two bit
// matrices. The four nblocks × nvreg matrices are carved from *scratch,
// which grows when it is too small.
func liveness(fn *lfunc, scratch *ir.Bitset) (liveIn, liveOut ir.Bitset, w int) {
	nb := len(fn.blocks)
	w = ir.BitsetWords(int(fn.nvreg) + 1)
	*scratch = grow(*scratch, 4*nb*w)
	all := *scratch
	clear(all)
	gen, kill := all[:nb*w], all[nb*w:2*nb*w]
	liveIn, liveOut = all[2*nb*w:3*nb*w], all[3*nb*w:]

	var buf [2]vreg
	for bi, b := range fn.blocks {
		g, k := gen.Row(bi, w), kill.Row(bi, w)
		for i := range b.ins {
			def, uses := b.ins[i].operands(&buf)
			for _, u := range uses {
				if u != 0 && !k.Has(int(u)) {
					g.Set(int(u))
				}
			}
			if def != 0 {
				k.Set(int(def))
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for bi := nb - 1; bi >= 0; bi-- {
			out := liveOut.Row(bi, w)
			for _, s := range fn.blocks[bi].succs {
				for k, sw := range liveIn.Row(s, w) {
					out[k] |= sw
				}
			}
			in, g, kl := liveIn.Row(bi, w), gen.Row(bi, w), kill.Row(bi, w)
			for k := range in {
				if v := in[k] | g[k] | out[k]&^kl[k]; v != in[k] {
					in[k] = v
					changed = true
				}
			}
		}
	}
	return liveIn, liveOut, w
}

// allocate runs liveness (into the scratch *live) + linear scan for fn.
// slotBase is the first free global spill-slot index; the returned next
// value continues the counter so functions never share slots (main's
// spilled values survive pipeline calls).
func allocate(fn *lfunc, live *ir.Bitset, registerTagging bool, slotBase int) (*allocation, int, error) {
	// Linearize positions.
	nb := len(fn.blocks)
	bounds := make([]int, 2*nb)
	blockStart, blockEnd := bounds[:nb:nb], bounds[nb:]
	for bi, b := range fn.blocks {
		if bi > 0 {
			blockStart[bi] = blockEnd[bi-1] + 1
		}
		blockEnd[bi] = blockStart[bi] + len(b.ins) - 1
	}

	nv := int(fn.nvreg) + 1
	liveIn, liveOut, lw := liveness(fn, live)

	// Find the constants first: defs counts a vreg's definitions, 1 per
	// MOVRI and 2 per other, so exactly 1 is a constant, whose value imm
	// holds.
	tabs := make([]int32, 3*nv)
	starts, ends, defs := tabs[:nv:nv], tabs[nv:2*nv:2*nv], tabs[2*nv:]
	imm := make([]int64, nv)
	var buf [2]vreg
	for _, b := range fn.blocks {
		for i := range b.ins {
			l := &b.ins[i]
			if def, _ := l.operands(&buf); def != 0 {
				defs[def] += 2
				if l.op == isa.MOVRI && l.pseudo == pNone {
					defs[def]--
					imm[def] = l.imm
				}
			}
		}
	}

	// Build whole intervals.
	for i := range starts {
		starts[i] = -1
	}
	extend := func(v vreg, p int) {
		if v == 0 {
			return
		}
		q := int32(p)
		if starts[v] == -1 {
			starts[v], ends[v] = q, q
			return
		}
		starts[v] = min(starts[v], q)
		ends[v] = max(ends[v], q)
	}
	// A constant's weight is what a register saves it: the MOVRI each use
	// other than a call argument would re-materialize (moving a register
	// into an argument register costs as much), less the MOVRI at its
	// definition.
	weights := make([]float64, nv)
	var callPositions, genCallPositions []int
	for bi, b := range fn.blocks {
		for i := range b.ins {
			l, p := &b.ins[i], blockStart[bi]+i
			w := b.freq
			def, uses := l.operands(&buf)
			if def != 0 {
				extend(def, p)
				if defs[def] == 1 {
					weights[def] -= w
				} else {
					weights[def] += w * storeCost
				}
			}
			for _, u := range uses {
				extend(u, p)
				if defs[u] != 1 || l.pseudo != pCall {
					weights[u] += w
				}
			}
			if l.pseudo == pCall {
				callPositions = append(callPositions, p)
				if !runtimeSym(l.callee) {
					genCallPositions = append(genCallPositions, p)
				}
			}
		}
	}
	for bi := range fn.blocks {
		if len(fn.blocks[bi].ins) == 0 {
			continue
		}
		liveIn.Row(bi, lw).ForEach(func(v int) { extend(vreg(v), blockStart[bi]) })
		liveOut.Row(bi, lw).ForEach(func(v int) { extend(vreg(v), blockEnd[bi]) })
	}

	slab := make([]interval, 0, nv) // ivs and active point into it
	ivs := make([]*interval, 0, nv)
	for v := 1; v < nv; v++ {
		if starts[v] == -1 {
			continue
		}
		slab = append(slab, interval{v: vreg(v), start: int(starts[v]), end: int(ends[v]), weight: weights[v], remat: defs[v] == 1})
		iv := &slab[len(slab)-1]
		if iv.remat {
			iv.weight *= rematCost
		}
		for _, cp := range callPositions {
			if iv.start < cp && cp < iv.end {
				iv.crossCall = true
				break
			}
		}
		for _, cp := range genCallPositions {
			if iv.start < cp && cp < iv.end {
				iv.crossGenCall = true
				break
			}
		}
		ivs = append(ivs, iv)
	}
	slices.SortFunc(ivs, func(a, b *interval) int {
		if a.start != b.start {
			return a.start - b.start
		}
		return int(a.v - b.v)
	})

	// Linear scan.
	regs := allocatableRegs(registerTagging)
	usable := func(iv *interval, r isa.Reg) bool {
		if iv.crossGenCall {
			return false // no register survives a generated-function call
		}
		return !iv.crossCall || r > isa.LastClobbered
	}
	alloc := &allocation{loc: make([]int32, nv), imm: imm}
	nextSlot := slotBase
	var active []*interval
	for _, iv := range ivs {
		if iv.remat && iv.weight <= 0 {
			alloc.loc[iv.v] = inRemat // a register would save nothing
			continue
		}
		// Expire finished intervals.
		kept := active[:0]
		for _, a := range active {
			if a.end >= iv.start {
				kept = append(kept, a)
			}
		}
		active = kept

		inUse := uint32(0) // bit r: register r holds an active interval
		for _, a := range active {
			if !a.spilled {
				inUse |= 1 << a.reg
			}
		}
		assigned := false
		for _, r := range regs {
			if inUse&(1<<r) == 0 && usable(iv, r) {
				iv.reg = r
				assigned = true
				break
			}
		}
		if !assigned {
			// Spill the coldest candidate: the active interval with the
			// lowest estimated access frequency (ties: furthest end)
			// whose register this interval can use. Frequency weighting
			// keeps loop-resident values (morsel bounds, cursors) in
			// registers; the furthest-end-only policy would evict them.
			var victim *interval
			for _, a := range active {
				if a.spilled || !usable(iv, a.reg) {
					continue
				}
				if victim == nil || a.weight < victim.weight ||
					(a.weight == victim.weight && a.end > victim.end) {
					victim = a
				}
			}
			if victim != nil && victim.weight < iv.weight {
				iv.reg = victim.reg
				victim.spilled = true
				alloc.loc[victim.v] = alloc.spill(victim, &nextSlot)
				assigned = true
			} else {
				iv.spilled = true
			}
		}
		if iv.spilled {
			alloc.loc[iv.v] = alloc.spill(iv, &nextSlot)
		} else {
			alloc.loc[iv.v] = int32(iv.reg) + 1
		}
		active = append(active, iv)
	}

	// Sanity: no vreg unmapped.
	for _, iv := range ivs {
		if alloc.loc[iv.v] == 0 {
			return nil, 0, fmt.Errorf("codegen: vreg v%d unallocated in %s", iv.v, fn.name)
		}
	}
	return alloc, nextSlot, nil
}

// spill gives iv, which lost its register, its loc: inRemat for a
// constant, else the next spill slot.
func (a *allocation) spill(iv *interval, nextSlot *int) int32 {
	if iv.remat {
		return inRemat
	}
	iv.slot = *nextSlot
	*nextSlot++
	a.spills++
	if iv.crossGenCall {
		a.genCallSlots = append(a.genCallSlots, iv.slot)
	}
	return -int32(iv.slot) - 1
}
