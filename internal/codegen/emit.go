package codegen

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/isa"
)

// Config controls the backend.
type Config struct {
	// RegisterTagging reserves the tag register (isa.TagReg), removing it
	// from allocation, and is required for the PMU's captured tag values
	// to be meaningful.
	RegisterTagging bool
	// FuseCmpBranch enables compare-and-branch peephole fusion (Table 1
	// "instruction fusing"); on by default via DefaultConfig.
	FuseCmpBranch bool
	// SpillBase is the heap address where spill slots start; SpillCap is
	// the region size in bytes.
	SpillBase int64
	SpillCap  int64
}

// DefaultConfig returns the standard backend configuration for a spill
// region of spillCap bytes at spillBase. The first parameter is unused —
// call arguments travel in registers and need no heap address — and stays
// only so that existing callers keep compiling.
func DefaultConfig(_, spillBase, spillCap int64) Config {
	return Config{
		FuseCmpBranch: true,
		SpillBase:     spillBase,
		SpillCap:      spillCap,
	}
}

// Result is a compiled program plus its debug information.
type Result struct {
	Program *isa.Program
	// NMap is the native→IR debug info (the DWARF analogue).
	NMap *core.NativeMap
	// SpillSlots is the total number of spill slots used.
	SpillSlots int
	// Spills counts spilled live intervals (code-quality metric for the
	// register-reservation experiment).
	Spills int
	// FusedBranches counts fused compare-and-branch instructions.
	FusedBranches int
	// GenCallSlots lists the spill slots of values live across a call to
	// a generated function, which no register survives; every other slot
	// holds a value register pressure evicted.
	GenCallSlots []int

	spillBase int64
}

// SpillAccess reports whether native instruction pos moves a value between
// a register and its spill slot: a reload, or a spill store when store is
// set.
func (r *Result) SpillAccess(pos int) (slot int, store, ok bool) {
	in := &r.Program.Code[pos]
	off := in.Imm - r.spillBase
	if !in.Abs || off < 0 || off >= 8*int64(r.SpillSlots) {
		return 0, false, false
	}
	switch in.Op {
	case isa.LOAD64:
	case isa.STORE64:
		store = true
	default:
		return 0, false, false
	}
	return int(off / 8), store, true
}

// emitter assembles the final program.
type emitter struct {
	cfg   Config
	prog  *isa.Program
	nmap  *core.NativeMap
	res   *Result
	slots int

	callFix []callSite     // CALLs awaiting their callee's entry
	symbols map[string]int // symbol → entry

	// held is the spill slot scratchA and scratchB each hold a copy of
	// (noSlot: none), so a reload of that slot into that register can be
	// left out. Generated code addresses spill slots only through the
	// emitter's own absolute accesses, which push tracks.
	held [2]int32
	blk  []blockEmit // by block of the function being emitted; reused
	fix  []branchFix // branches awaiting their target block's position
}

// noSlot marks a scratch register that holds no spill slot.
const noSlot = -1

var heldNothing = [2]int32{noSlot, noSlot}

// blockEmit is what emitFunc knows about one block: its position, its
// predecessor edges, and the meet of the held slots at the exits of the
// predecessors laid out before it.
type blockEmit struct {
	pos           int
	preds, before int32 // predecessor edges; those from blocks laid out earlier
	met           bool  // held is the meet of at least one exit
	held          [2]int32
}

// branchFix is an emitted branch whose target is patched once every
// block of its function has a position.
type branchFix struct {
	pos, block int
	imm2       bool // the target is Imm2 (Jcc), not Imm
}

// callSite is one emitted CALL; its target is resolved by symbol once
// every function and runtime routine has an entry.
type callSite struct {
	pos    int
	callee string
}

// Compile lowers a module to native code. The function named "main" is
// placed at instruction 0 (the VM entry point); runtime routines are
// appended and calls resolved by symbol.
func Compile(m *ir.Module, cfg Config) (*Result, error) {
	e := &emitter{
		cfg:     cfg,
		prog:    &isa.Program{},
		nmap:    core.NewNativeMap(0),
		symbols: map[string]int{},
	}
	e.res = &Result{Program: e.prog, NMap: e.nmap, spillBase: cfg.SpillBase}

	funcs := make([]*ir.Func, 0, len(m.Funcs))
	for _, f := range m.Funcs {
		if f.Name == "main" {
			funcs = append(funcs, f)
		}
	}
	for _, f := range m.Funcs {
		if f.Name != "main" {
			funcs = append(funcs, f)
		}
	}
	if len(funcs) == 0 || funcs[0].Name != "main" {
		return nil, fmt.Errorf("codegen: module has no main function")
	}
	if err := e.emitFuncs(m, funcs); err != nil {
		return nil, err
	}
	emitRuntime(e)
	return e.resolve()
}

// Extend lowers m, a module of functions generated after base's
// (ir.Module.Extension), and appends them to base's program after its
// runtime routines; their calls resolve against every symbol of both.
// base is left as it is: the result has its own program and debug map, of
// which base's are an exact prefix, so every instruction of base keeps its
// address, spill slot and IR IDs. cfg must be the one base was built with.
func Extend(base *Result, m *ir.Module, cfg Config) (*Result, error) {
	n := len(base.Program.Code) + 2*m.InstrCount() // room for the usual expansion
	bm := base.NMap
	e := &emitter{
		cfg: cfg,
		prog: &isa.Program{
			Code:  append(make([]isa.Instr, 0, n), base.Program.Code...),
			Funcs: slices.Clip(base.Program.Funcs),
		},
		nmap: &core.NativeMap{
			IRs:      append(make([][]int, 0, n), bm.IRs...),
			Region:   append(make([]core.RegionKind, 0, n), bm.Region...),
			Routine:  append(make([]string, 0, n), bm.Routine...),
			Inverted: append(make([]bool, 0, n), bm.Inverted...),
		},
		symbols: make(map[string]int, len(base.Program.Funcs)+len(m.Funcs)),
		slots:   base.SpillSlots,
	}
	e.res = &Result{Program: e.prog, NMap: e.nmap, spillBase: cfg.SpillBase,
		Spills: base.Spills, FusedBranches: base.FusedBranches, GenCallSlots: slices.Clip(base.GenCallSlots)}
	for _, f := range base.Program.Funcs {
		e.symbols[f.Name] = f.Entry
	}
	if err := e.emitFuncs(m, m.Funcs); err != nil {
		return nil, err
	}
	return e.resolve()
}

// emitFuncs lowers, allocates and emits funcs of m in order, their spill
// slots numbered on from e.slots.
func (e *emitter) emitFuncs(m *ir.Module, funcs []*ir.Func) error {
	lo := newLowerer(m, &e.cfg)
	for _, f := range funcs {
		lf, err := lo.lowerFunc(f)
		if err != nil {
			return err
		}
		lo.layoutFunc(lf)
		alloc, next, err := allocate(lf, &lo.live, e.cfg.RegisterTagging, e.slots)
		if err != nil {
			return err
		}
		e.slots = next
		e.res.Spills += alloc.spills
		e.res.GenCallSlots = append(e.res.GenCallSlots, alloc.genCallSlots...)
		if err := e.emitFunc(lf, alloc); err != nil {
			return err
		}
	}
	e.res.SpillSlots = e.slots
	if int64(e.slots*8) > e.cfg.SpillCap {
		return fmt.Errorf("codegen: %d spill slots exceed spill region (%d bytes)", e.slots, e.cfg.SpillCap)
	}
	return nil
}

// resolve patches every emitted call with its callee's entry.
func (e *emitter) resolve() (*Result, error) {
	for _, fix := range e.callFix {
		entry, ok := e.symbols[fix.callee]
		if !ok {
			return nil, fmt.Errorf("codegen: undefined symbol %q", fix.callee)
		}
		e.prog.Code[fix.pos].Imm = int64(entry)
	}
	return e.res, nil
}

func (e *emitter) push(in isa.Instr, irIDs []int, region core.RegionKind, routine string) int {
	e.track(&in)
	pos := len(e.prog.Code)
	e.prog.Code = append(e.prog.Code, in)
	e.nmap.IRs = append(e.nmap.IRs, irIDs)
	e.nmap.Region = append(e.nmap.Region, region)
	e.nmap.Routine = append(e.nmap.Routine, routine)
	e.nmap.Inverted = append(e.nmap.Inverted, false)
	return pos
}

func (e *emitter) spillAddr(slot int) int64 { return e.cfg.SpillBase + int64(slot)*8 }

// track forgets what instruction in, about to be emitted, invalidates: a
// call or return clobbers both scratch registers, a write to one ends what
// it held, and a store to a spill slot ends every copy of the slot.
func (e *emitter) track(in *isa.Instr) {
	switch {
	case in.Op == isa.CALL || in.Op == isa.RET:
		e.held = heldNothing
	case in.Op >= isa.STORE8 && in.Op <= isa.STORE64:
		if off := in.Imm - e.cfg.SpillBase; in.Abs && !in.Scaled && off >= 0 && off < e.cfg.SpillCap {
			for k, s := range e.held {
				if int64(s) == off/8 {
					e.held[k] = noSlot
				}
			}
		}
	case in.Op == isa.MOVRR || in.Op == isa.MOVRI || in.Op >= isa.LOAD8 && in.Op <= isa.LOAD64 ||
		in.Op >= isa.ADD && in.Op <= isa.CMPGE:
		if in.Dst == scratchA || in.Dst == scratchB {
			e.held[in.Dst-scratchA] = noSlot
		}
	}
}

// readInto materializes vreg v into a physical register: either its
// assigned register, a re-materialized constant in scratch, or its spill
// slot in scratch — loaded, unless scratch still holds it or the other
// scratch register does (then copied from there).
func (e *emitter) readInto(a *allocation, v vreg, scratch isa.Reg, irIDs []int) isa.Reg {
	r, slot, inReg := a.location(v)
	if inReg {
		return r
	}
	if imm, ok := a.remat(v); ok {
		e.push(isa.Instr{Op: isa.MOVRI, Dst: scratch, Imm: imm}, irIDs, core.RegionGenerated, "")
		return scratch
	}
	if e.held[scratch-scratchA] != int32(slot) {
		// The other scratch register may hold the slot: copy it instead of
		// reloading.
		if other := scratchA + scratchB - scratch; e.held[other-scratchA] == int32(slot) {
			e.push(isa.Instr{Op: isa.MOVRR, Dst: scratch, Src1: other}, irIDs, core.RegionGenerated, "")
		} else {
			e.push(isa.Instr{Op: isa.LOAD64, Dst: scratch, Abs: true, Imm: e.spillAddr(slot)}, irIDs, core.RegionGenerated, "")
		}
		e.held[scratch-scratchA] = int32(slot)
	}
	return scratch
}

// destReg returns the register an instruction should compute into, plus a
// spill store to run afterwards (or -1 when none).
func (e *emitter) destReg(a *allocation, v vreg) (isa.Reg, int) {
	r, slot, inReg := a.location(v)
	if inReg {
		return r, -1
	}
	return scratchA, slot
}

// flushDest stores a spilled destination computed into from, which then
// holds the slot.
func (e *emitter) flushDest(slot int, from isa.Reg, irIDs []int) {
	if slot < 0 {
		return
	}
	e.push(isa.Instr{Op: isa.STORE64, Dst: from, Abs: true, Imm: e.spillAddr(slot)}, irIDs, core.RegionGenerated, "")
	if from == scratchA || from == scratchB {
		e.held[from-scratchA] = int32(slot)
	}
}

// enterBlocks readies e.blk for fn: it counts each block's predecessor
// edges and those from blocks laid out before it.
func (e *emitter) enterBlocks(fn *lfunc) {
	n := len(fn.blocks)
	if cap(e.blk) < n {
		e.blk = make([]blockEmit, n)
	}
	e.blk = e.blk[:n]
	clear(e.blk)
	for bi, b := range fn.blocks {
		for _, s := range b.succs {
			e.blk[s].preds++
			if bi < s {
				e.blk[s].before++
			}
		}
	}
}

// leaveBlock meets the held slots at block bi's exit into the entry state
// of each successor laid out after it.
func (e *emitter) leaveBlock(bi int, b *lblock) {
	for _, s := range b.succs {
		if s <= bi {
			continue
		}
		next := &e.blk[s]
		if !next.met {
			next.held, next.met = e.held, true
			continue
		}
		for k := range next.held {
			if next.held[k] != e.held[k] {
				next.held[k] = noSlot
			}
		}
	}
}

// emitFunc emits fn in layout order. Reload forwarding is one pass in that
// order: a block starts from the meet of its predecessors' exits when
// every predecessor is laid out before it, and from nothing otherwise (the
// entry, a loop header).
func (e *emitter) emitFunc(fn *lfunc, a *allocation) error {
	entry := len(e.prog.Code)
	e.enterBlocks(fn)
	e.fix = e.fix[:0]

	for bi, b := range fn.blocks {
		fl := &e.blk[bi]
		fl.pos = len(e.prog.Code)
		e.held = heldNothing
		if bi > 0 && fl.preds > 0 && fl.before == fl.preds {
			e.held = fl.held
		}
		for ii := range b.ins {
			l := &b.ins[ii]
			ids := l.irIDs
			switch l.pseudo {
			case pParam:
				if l.imm >= isa.NumArgRegs {
					return fmt.Errorf("codegen: parameter %d out of range", l.imm)
				}
				src := isa.Reg(l.imm)
				if r, slot, inReg := a.location(l.dst); inReg {
					e.push(isa.Instr{Op: isa.MOVRR, Dst: r, Src1: src}, ids, core.RegionGenerated, "")
				} else {
					e.push(isa.Instr{Op: isa.STORE64, Dst: src, Abs: true, Imm: e.spillAddr(slot)}, ids, core.RegionGenerated, "")
				}
				continue
			case pRetVal:
				src := e.readInto(a, l.a, scratchA, ids)
				if src != 0 {
					e.push(isa.Instr{Op: isa.MOVRR, Dst: 0, Src1: src}, ids, core.RegionGenerated, "")
				}
				continue
			case pCall:
				e.emitCall(a, l)
				continue
			}

			switch l.op {
			case isa.MOVRI:
				dst := isa.TagReg
				slot := -1
				if !l.tagWrite {
					if _, ok := a.remat(l.dst); ok {
						continue // materialized at each use instead
					}
					dst, slot = e.destReg(a, l.dst)
				}
				e.push(isa.Instr{Op: isa.MOVRI, Dst: dst, Imm: l.imm}, ids, core.RegionGenerated, "")
				e.flushDest(slot, dst, ids)

			case isa.MOVRR:
				switch {
				case l.tagWrite:
					src := e.readInto(a, l.a, scratchA, ids)
					e.push(isa.Instr{Op: isa.MOVRR, Dst: isa.TagReg, Src1: src}, ids, core.RegionGenerated, "")
				case l.tagRead:
					dst, slot := e.destReg(a, l.dst)
					e.push(isa.Instr{Op: isa.MOVRR, Dst: dst, Src1: isa.TagReg}, ids, core.RegionGenerated, "")
					e.flushDest(slot, dst, ids)
				default:
					src := e.readInto(a, l.a, scratchA, ids)
					dst, slot := e.destReg(a, l.dst)
					if dst != src || slot >= 0 {
						if dst != src {
							e.push(isa.Instr{Op: isa.MOVRR, Dst: dst, Src1: src}, ids, core.RegionGenerated, "")
						}
						e.flushDest(slot, dst, ids)
					}
				}

			case isa.LOAD8, isa.LOAD16, isa.LOAD32, isa.LOAD64:
				in := e.memOperand(a, l, ids)
				dst, slot := e.destReg(a, l.dst)
				in.Dst = dst
				e.push(in, ids, core.RegionGenerated, "")
				e.flushDest(slot, dst, ids)

			case isa.STORE8, isa.STORE32, isa.STORE64:
				in := e.memOperand(a, l, ids)
				val := scratchB
				if l.scaled {
					if !in.Abs {
						bug("scaled store with a base register")
					}
					val = scratchA // the index took scratchB
				}
				in.Dst = e.readInto(a, l.dst, val, ids)
				e.push(in, ids, core.RegionGenerated, "")

			case isa.JMP:
				if l.tgt == bi+1 {
					continue // fallthrough
				}
				pos := e.push(isa.Instr{Op: isa.JMP}, ids, core.RegionGenerated, "")
				e.fix = append(e.fix, branchFix{pos, l.tgt, false})

			case isa.JNZ, isa.JZ:
				cond := e.readInto(a, l.a, scratchA, ids)
				pos := e.push(isa.Instr{Op: l.op, Src1: cond}, ids, core.RegionGenerated, "")
				e.nmap.Inverted[pos] = l.inverted
				e.fix = append(e.fix, branchFix{pos, l.tgt, false})

			case isa.JEQ, isa.JNE, isa.JLT, isa.JGE:
				x := e.readInto(a, l.a, scratchA, ids)
				in := isa.Instr{Op: l.op, Src1: x}
				if l.useImm {
					in.UseImm = true
					in.Imm = l.imm
				} else {
					in.Src2 = e.readInto(a, l.b, scratchB, ids)
				}
				pos := e.push(in, ids, core.RegionGenerated, "")
				e.nmap.Inverted[pos] = l.inverted
				e.fix = append(e.fix, branchFix{pos, l.tgt, true})
				e.res.FusedBranches++

			case isa.RET, isa.HALT, isa.NOP:
				e.push(isa.Instr{Op: l.op}, ids, core.RegionGenerated, "")

			case isa.TRAP:
				e.push(isa.Instr{Op: isa.TRAP, Imm: l.imm}, ids, core.RegionGenerated, "")

			default: // binary ALU / compare
				x := e.readInto(a, l.a, scratchA, ids)
				in := isa.Instr{Op: l.op, Src1: x}
				if l.useImm {
					in.UseImm = true
					in.Imm = l.imm
				} else {
					in.Src2 = e.readInto(a, l.b, scratchB, ids)
				}
				dst, slot := e.destReg(a, l.dst)
				in.Dst = dst
				e.push(in, ids, core.RegionGenerated, "")
				e.flushDest(slot, dst, ids)
			}
		}
		e.leaveBlock(bi, b)
	}

	for _, f := range e.fix {
		target := int64(e.blk[f.block].pos)
		if f.imm2 {
			e.prog.Code[f.pos].Imm2 = target
		} else {
			e.prog.Code[f.pos].Imm = target
		}
	}
	e.symbols[fn.name] = entry
	e.prog.Funcs = append(e.prog.Funcs, isa.FuncSym{Name: fn.name, Entry: entry, End: len(e.prog.Code)})
	return nil
}

// memOperand reads a load's or store's address operands into registers:
// [base + imm], [base + imm + idx*width], [imm + idx*width] for a
// constant base, or the absolute [imm].
func (e *emitter) memOperand(a *allocation, l *lins, ids []int) isa.Instr {
	in := isa.Instr{Op: l.op, Imm: l.imm, Scaled: l.scaled, Abs: l.a == 0}
	if !in.Abs {
		in.Src1 = e.readInto(a, l.a, scratchA, ids)
	}
	if l.scaled {
		in.Src2 = e.readInto(a, l.b, scratchB, ids)
	}
	return in
}

// emitCall expands a call: move the arguments into r0..r3, call, and
// store the result. Arguments in registers move first, as one parallel
// move — no source is overwritten before it is read, and a cycle is broken
// through scratchA — and spilled arguments then load straight from their
// slots, which no move writes, and re-materialized constants are set.
func (e *emitter) emitCall(a *allocation, l *lins) {
	ids := l.irIDs
	if len(l.args) > isa.NumArgRegs {
		bug("too many call arguments")
	}
	var src [isa.NumArgRegs]isa.Reg
	pending := 0 // bit i: argument i still has to move into ri
	for i, arg := range l.args {
		if r, _, inReg := a.location(arg); inReg && r != isa.Reg(i) {
			src[i] = r
			pending |= 1 << i
		}
	}
	for pending != 0 {
		moved := false
		for i := range l.args {
			if pending&(1<<i) == 0 || isSource(src[:], pending, isa.Reg(i)) {
				continue
			}
			e.push(isa.Instr{Op: isa.MOVRR, Dst: isa.Reg(i), Src1: src[i]}, ids, core.RegionGenerated, "")
			pending &^= 1 << i
			moved = true
		}
		if !moved {
			// Every pending destination is another move's source: a
			// cycle. Save the lowest one in scratchA and read it there.
			r := isa.Reg(bits.TrailingZeros(uint(pending)))
			e.push(isa.Instr{Op: isa.MOVRR, Dst: scratchA, Src1: r}, ids, core.RegionGenerated, "")
			for j := range l.args {
				if pending&(1<<j) != 0 && src[j] == r {
					src[j] = scratchA
				}
			}
		}
	}
	for i, arg := range l.args {
		_, slot, inReg := a.location(arg)
		imm, remat := a.remat(arg)
		switch {
		case inReg:
		case remat:
			e.push(isa.Instr{Op: isa.MOVRI, Dst: isa.Reg(i), Imm: imm}, ids, core.RegionGenerated, "")
		case e.held[0] == int32(slot):
			e.push(isa.Instr{Op: isa.MOVRR, Dst: isa.Reg(i), Src1: scratchA}, ids, core.RegionGenerated, "")
		case e.held[1] == int32(slot):
			e.push(isa.Instr{Op: isa.MOVRR, Dst: isa.Reg(i), Src1: scratchB}, ids, core.RegionGenerated, "")
		default:
			e.push(isa.Instr{Op: isa.LOAD64, Dst: isa.Reg(i), Abs: true, Imm: e.spillAddr(slot)}, ids, core.RegionGenerated, "")
		}
	}
	pos := e.push(isa.Instr{Op: isa.CALL}, ids, core.RegionGenerated, "")
	e.callFix = append(e.callFix, callSite{pos, l.callee})
	if l.hasRes {
		if r, slot, inReg := a.location(l.dst); inReg {
			if r != 0 {
				e.push(isa.Instr{Op: isa.MOVRR, Dst: r, Src1: 0}, ids, core.RegionGenerated, "")
			}
		} else {
			e.push(isa.Instr{Op: isa.STORE64, Dst: 0, Abs: true, Imm: e.spillAddr(slot)}, ids, core.RegionGenerated, "")
		}
	}
}

// isSource reports whether r is the source of a pending move.
func isSource(src []isa.Reg, pending int, r isa.Reg) bool {
	for j, s := range src {
		if pending&(1<<j) != 0 && s == r {
			return true
		}
	}
	return false
}
