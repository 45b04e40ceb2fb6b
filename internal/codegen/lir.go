// Package codegen is the backend: lowering step 3 of the paper's stack
// (Fig. 8d). It translates the IR of internal/ir into the native
// instruction set of internal/isa — via a low-level IR (LIR) over virtual
// registers, liveness analysis, linear-scan register allocation with
// spilling, and peephole instruction fusing — and produces the per-native-
// instruction debug information (core.NativeMap) that stands in for DWARF:
// every emitted instruction records which IR instruction(s) it descends
// from, so the profiler can map samples back up the stack.
//
// When Register Tagging is enabled the allocator excludes the reserved tag
// register from allocation (the paper's -ffixed flag / LLVM change, §5.3),
// which is the source of the measured code-quality overhead.
package codegen

import (
	"fmt"
	"math"

	"repro/internal/ir"
	"repro/internal/isa"
)

// vreg is a virtual register; 0 is invalid.
type vreg int32

// lins is one LIR instruction: an isa-shaped operation over virtual
// registers with symbolic branch targets and attached debug info.
type lins struct {
	op     isa.Op
	pseudo pseudo

	// A load or store with a == 0 and !scaled is absolute: address imm.
	dst, a, b vreg
	useImm    bool
	imm, imm2 int64

	tgt, tgt2 int // successor lblock indices for branches

	// scaled marks a memory operation using scaled addressing at a
	// constant base: imm holds the base, b the index register (address =
	// imm + b*width), and a is 0.
	scaled bool
	// inverted marks a conditional branch taken towards its IR branch's
	// else successor — the layout or bottomTest flipped it; recorded in the
	// native map (NativeMap.Inverted).
	inverted bool
	// keep marks a loop's bottom test: taken back into the loop, which the
	// layout must not invert away.
	keep bool

	callee string
	args   []vreg
	hasRes bool

	// tagWrite/tagRead route MOVRR/MOVRI through the reserved tag
	// register instead of dst/a.
	tagWrite bool
	tagRead  bool

	irIDs []int // debug info: owning IR instruction IDs
}

type pseudo uint8

const (
	pNone pseudo = iota
	pCall
	pRetVal
	pParam // dst ← argument register #imm
)

// lblock is a basic block of LIR.
type lblock struct {
	name    string
	ins     []lins
	succs   []int
	succBuf [2]int  // backs succs: a block has at most two successors
	freq    float64 // estimated execution count (ir.Block.Freq)
}

// lfunc is a function being lowered.
type lfunc struct {
	name   string
	blocks []*lblock
	nvreg  vreg
}

func (f *lfunc) newVreg() vreg {
	f.nvreg++
	return f.nvreg
}

// lowerer translates the functions of one module into lfuncs. Its tables
// are indexed by IR instruction ID — module-unique and dense, so one set
// sized by Module.MaxID serves every function — and blocks are addressed
// by Block.Index.
type lowerer struct {
	cfg    *Config
	f      *ir.Func
	out    *lfunc
	regOf  []vreg       // by ID; 0 = no vreg yet
	uses   []int32      // by ID: operand slots naming the instruction
	scaled []int32      // by access ID: 1 + index into plans
	bypass []int32      // by Add ID: scaled accesses that bypass it
	folds  []int32      // by Add ID: accesses that fold it into their displacement
	elided []int32      // by Mul/Shl ID: elided Adds over it
	fused  ir.Bitset    // by ID: folded into a consumer, not lowered on its own
	plans  []scaledAddr // the current function's scaled-addressing fusions, in program order
	ids    []int        // slab the irIDs debug lists are carved from
	seq    []lins       // schedule's output buffer
	lay    []int32      // layoutFunc's and the CFG rewrites' scratch, four entries per block
	live   ir.Bitset    // liveness matrices, for coalesce and allocate
	copies []phiCopy    // coalesce's candidates
	cands  []vreg       // coalesce's copy-related vregs, by compact index
	cidx   []int32      // by vreg: 1 + compact index among cands, 0 for none
	root   []int32      // by compact index: union-find parent
	inter  ir.Bitset    // coalesce's interference matrix over cands
}

// scaledAddr is a planned scaled-addressing fusion of a load or store: the
// access bypasses its address Add — and the Mul/Shl computing the index —
// using c+index*width addressing directly, with the constant base c as the
// immediate. Once the address instructions' other consumers bypass them
// too they are elided, removing up to 4 cycles per execution.
type scaledAddr struct {
	add, idxe *ir.Instr // the address Add and its Mul/Shl
	idx       *ir.Instr
	c         int64  // the constant base
	ids       [2]int // IR IDs of the elided address instructions: ids[:n]
	n         int
}

func newLowerer(m *ir.Module, cfg *Config) *lowerer {
	n := m.MaxID() + 1
	nb, nv, nc := moduleBounds(m)
	tabs := make([]int32, 5*n+4*nb+nv+2*nc)
	lo := &lowerer{cfg: cfg, regOf: make([]vreg, n), fused: ir.NewBitset(n),
		uses: tabs[:n:n], scaled: tabs[n : 2*n : 2*n], bypass: tabs[2*n : 3*n : 3*n], elided: tabs[3*n : 4*n : 4*n],
		folds: tabs[4*n : 5*n : 5*n]}
	tabs = tabs[5*n:]
	lo.lay, lo.cidx, lo.root = tabs[:4*nb:4*nb], tabs[4*nb:4*nb+nv:4*nb+nv], tabs[4*nb+nv:]
	if nc > 0 {
		lo.copies, lo.cands = make([]phiCopy, 0, nc), make([]vreg, 0, 2*nc)
	}
	return lo
}

// moduleBounds sizes the lowerer's per-function tables for m's largest
// function: its LIR blocks — each IR block, plus at most one phi edge
// block per incoming edge of a block with phis — its vregs, at most one
// per IR instruction plus a cycle-breaking temporary per phi move, and
// its phi moves, each naming at most two vregs. A table a function
// outgrows is reallocated.
func moduleBounds(m *ir.Module) (blocks, vregs, copies int) {
	for _, f := range m.Funcs {
		nb, ni, nc := len(f.Blocks), 0, 0
		for _, b := range f.Blocks {
			ni += len(b.Instrs)
			if len(b.Instrs) > 0 && b.Instrs[0].Op == ir.OpPhi {
				nb += len(b.Preds)
			}
			for _, in := range b.Instrs {
				if in.Op == ir.OpPhi {
					nc += len(in.Args)
				}
			}
		}
		blocks, vregs, copies = max(blocks, nb), max(vregs, ni+nc+1), max(copies, nc)
	}
	return blocks, vregs, copies
}

// carve returns an n-entry debug-info list carved from a slab: the lists
// live on in the native map, a few words each.
func (lo *lowerer) carve(n int) []int {
	if len(lo.ids) < n {
		lo.ids = make([]int, 256)
	}
	s := lo.ids[:n:n]
	lo.ids = lo.ids[n:]
	return s
}

// irIDs returns a debug-info list holding ids.
func (lo *lowerer) irIDs(ids ...int) []int {
	s := lo.carve(len(ids))
	copy(s, ids)
	return s
}

func (lo *lowerer) lowerFunc(f *ir.Func) (*lfunc, error) {
	lo.f = f
	lo.out = &lfunc{name: f.Name, blocks: make([]*lblock, len(f.Blocks))}
	lblocks := make([]lblock, len(f.Blocks))
	n := len(f.Blocks)
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	slab := make([]lins, n) // most IR instructions lower to one LIR instruction
	for i, b := range f.Blocks {
		k := len(b.Instrs) + 1
		lblocks[i] = lblock{name: b.Name, ins: slab[:0:k], freq: b.Freq}
		lo.out.blocks[i], slab = &lblocks[i], slab[k:]
	}
	lo.countUses()
	lo.planFusion()
	lo.planScaledFusion()
	lo.planDisplacements()
	for i, b := range f.Blocks {
		if err := lo.lowerBlock(i, b); err != nil {
			return nil, err
		}
	}
	if err := lo.lowerPhis(); err != nil {
		return nil, err
	}
	lo.sweepDeadDefs()
	lo.coalesce(lo.out)
	lo.threadJumps(lo.out)
	lo.bottomTest(lo.out)
	return lo.out, nil
}

func (lo *lowerer) countUses() {
	for _, b := range lo.f.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				lo.uses[a.ID]++
			}
		}
	}
}

// vregFor returns the virtual register holding an IR value.
func (lo *lowerer) vregFor(in *ir.Instr) vreg {
	if lo.regOf[in.ID] == 0 {
		lo.regOf[in.ID] = lo.out.newVreg()
	}
	return lo.regOf[in.ID]
}

func (lo *lowerer) emit(bi int, in lins) {
	lo.out.blocks[bi].ins = append(lo.out.blocks[bi].ins, in)
}

// opnd resolves an IR operand to a vreg; constants were materialized at
// their definition site (SSA dominance makes that always correct).
func (lo *lowerer) opnd(a *ir.Instr) vreg { return lo.vregFor(a) }

// nativeOp maps the IR opcodes that lower one-to-one (binary ALU and
// compares, loads, stores) to their native opcode.
var nativeOp = [ir.OpStore64 + 1]isa.Op{
	ir.OpAdd: isa.ADD, ir.OpSub: isa.SUB, ir.OpMul: isa.MUL,
	ir.OpSDiv: isa.DIV, ir.OpSMod: isa.MOD,
	ir.OpAnd: isa.AND, ir.OpOr: isa.OR, ir.OpXor: isa.XOR,
	ir.OpShl: isa.SHL, ir.OpShr: isa.SHR, ir.OpRotr: isa.ROTR,
	ir.OpCrc32: isa.CRC32,
	ir.OpCmpEq: isa.CMPEQ, ir.OpCmpNe: isa.CMPNE,
	ir.OpCmpLt: isa.CMPLT, ir.OpCmpLe: isa.CMPLE,
	ir.OpCmpGt: isa.CMPGT, ir.OpCmpGe: isa.CMPGE,
	ir.OpLoad8: isa.LOAD8, ir.OpLoad16: isa.LOAD16, ir.OpLoad32: isa.LOAD32, ir.OpLoad64: isa.LOAD64,
	ir.OpStore8: isa.STORE8, ir.OpStore32: isa.STORE32, ir.OpStore64: isa.STORE64,
}

var commutative = [len(nativeOp)]bool{
	ir.OpAdd: true, ir.OpMul: true, ir.OpAnd: true, ir.OpOr: true,
	ir.OpXor: true, ir.OpCrc32: true, ir.OpCmpEq: true, ir.OpCmpNe: true,
}

func (lo *lowerer) lowerBlock(bi int, b *ir.Block) error {
	lb := lo.out.blocks[bi]
	for _, in := range b.Instrs {
		switch in.Op {
		case ir.OpConst:
			lo.emit(bi, lins{op: isa.MOVRI, dst: lo.vregFor(in), imm: in.Imm, irIDs: lo.irIDs(in.ID)})

		case ir.OpParam:
			lo.emit(bi, lins{pseudo: pParam, dst: lo.vregFor(in), imm: in.Imm, irIDs: lo.irIDs(in.ID)})

		case ir.OpPhi:
			lo.vregFor(in) // reserve; moves are inserted by lowerPhis

		case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpSDiv, ir.OpSMod,
			ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr, ir.OpRotr,
			ir.OpCrc32, ir.OpCmpEq, ir.OpCmpNe, ir.OpCmpLt, ir.OpCmpLe,
			ir.OpCmpGt, ir.OpCmpGe:
			lo.lowerBin(bi, in)

		case ir.OpLoad8, ir.OpLoad16, ir.OpLoad32, ir.OpLoad64:
			if lo.scaled[in.ID] != 0 {
				l := lo.scaledIns(in)
				l.dst = lo.vregFor(in)
				lo.emit(bi, l)
				continue
			}
			base, off, ids := lo.addr(in)
			lo.emit(bi, lins{op: nativeOp[in.Op], dst: lo.vregFor(in), a: base, imm: off, irIDs: ids})

		case ir.OpStore8, ir.OpStore32, ir.OpStore64:
			if lo.scaled[in.ID] != 0 {
				l := lo.scaledIns(in)
				l.dst = lo.opnd(in.Args[1])
				lo.emit(bi, l)
				continue
			}
			base, off, ids := lo.addr(in)
			val := lo.opnd(in.Args[1])
			lo.emit(bi, lins{op: nativeOp[in.Op], dst: val, a: base, imm: off, irIDs: ids})

		case ir.OpBr:
			t := in.Targets[0].Index
			lb.succs = append(lb.succBuf[:0], t)
			lo.emit(bi, lins{op: isa.JMP, tgt: t, irIDs: lo.irIDs(in.ID)})

		case ir.OpCondBr:
			lo.lowerCondBr(bi, in)

		case ir.OpRet:
			if len(in.Args) > 0 {
				lo.emit(bi, lins{pseudo: pRetVal, a: lo.opnd(in.Args[0]), irIDs: lo.irIDs(in.ID)})
			}
			lo.emit(bi, lins{op: isa.RET, irIDs: lo.irIDs(in.ID)})

		case ir.OpCall:
			args := make([]vreg, len(in.Args))
			for i, a := range in.Args {
				args[i] = lo.opnd(a)
			}
			l := lins{pseudo: pCall, callee: in.Callee, args: args, irIDs: lo.irIDs(in.ID)}
			if in.Type != ir.Void {
				l.hasRes = true
				l.dst = lo.vregFor(in)
			}
			lo.emit(bi, l)

		case ir.OpSetTag:
			arg := in.Args[0]
			if arg.Op == ir.OpConst {
				lo.emit(bi, lins{op: isa.MOVRI, tagWrite: true, imm: arg.Imm, irIDs: lo.irIDs(in.ID)})
			} else {
				lo.emit(bi, lins{op: isa.MOVRR, tagWrite: true, a: lo.opnd(arg), irIDs: lo.irIDs(in.ID)})
			}

		case ir.OpGetTag:
			lo.emit(bi, lins{op: isa.MOVRR, tagRead: true, dst: lo.vregFor(in), irIDs: lo.irIDs(in.ID)})

		case ir.OpHalt:
			lo.emit(bi, lins{op: isa.HALT, irIDs: lo.irIDs(in.ID)})

		case ir.OpTrap:
			lo.emit(bi, lins{op: isa.TRAP, imm: in.Imm, irIDs: lo.irIDs(in.ID)})

		default:
			return fmt.Errorf("codegen: cannot lower %s", in.Op)
		}
	}
	return nil
}

func (lo *lowerer) lowerBin(bi int, in *ir.Instr) {
	if lo.fused.Has(in.ID) {
		return // folded into a branch
	}
	op := nativeOp[in.Op]
	x, y := in.Args[0], in.Args[1]
	// Fold a constant second operand into the immediate form; exploit
	// commutativity to fold a constant first operand too.
	if x.Op == ir.OpConst && y.Op != ir.OpConst && commutative[in.Op] {
		x, y = y, x
	}
	l := lins{op: op, dst: lo.vregFor(in), a: lo.opnd(x), irIDs: lo.irIDs(in.ID)}
	if y.Op == ir.OpConst {
		l.useImm = true
		l.imm = y.Imm
	} else {
		l.b = lo.opnd(y)
	}
	lo.emit(bi, l)
}

// addr decomposes the address operand of memory access mem into base +
// constant displacement, and returns the access's debug info. A constant
// address is absolute (base 0: no register), and Add(x, c) folds into
// every access it addresses, whatever its use count; its IR ID joins the
// access's debug info, first, when every use folds it and it is elided
// (planDisplacements).
func (lo *lowerer) addr(mem *ir.Instr) (base vreg, off int64, irIDs []int) {
	a := mem.Args[0]
	if a.Op == ir.OpConst {
		return 0, a.Imm, lo.irIDs(mem.ID)
	}
	if x, c, ok := displacement(a); ok {
		if lo.fused.Has(a.ID) {
			return lo.opnd(x), c, lo.irIDs(a.ID, mem.ID)
		}
		return lo.opnd(x), c, lo.irIDs(mem.ID)
	}
	return lo.opnd(a), 0, lo.irIDs(mem.ID)
}

// displacement reports whether address a is Add(x, c) — either operand
// order, x not a constant — and returns x and c.
func displacement(a *ir.Instr) (x *ir.Instr, c int64, ok bool) {
	if a.Op != ir.OpAdd {
		return nil, 0, false
	}
	x, y := a.Args[0], a.Args[1]
	if x.Op == ir.OpConst {
		x, y = y, x
	}
	if y.Op != ir.OpConst || x.Op == ir.OpConst {
		return nil, 0, false
	}
	return x, y.Imm, true
}

// planDisplacements elides an address Add(x, c) every use of which is a
// load or store that folds it into its displacement (lo.addr): CSE shares
// one Add across an aggregate's read-modify-write, and each access then
// runs [x + c] without it. Like the other plans this runs before lowering,
// which reaches the Add first.
func (lo *lowerer) planDisplacements() {
	for _, b := range lo.f.Blocks {
		for _, in := range b.Instrs {
			if memShift(in.Op) < 0 || lo.scaled[in.ID] != 0 {
				continue
			}
			if a := in.Args[0]; !lo.fused.Has(a.ID) {
				if _, _, ok := displacement(a); ok {
					lo.folds[a.ID]++
				}
			}
		}
	}
	for _, b := range lo.f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpAdd && lo.folds[in.ID] > 0 && lo.folds[in.ID] == lo.uses[in.ID] {
				lo.fused.Set(in.ID)
			}
		}
	}
}

// planFusion pre-marks comparisons that will fold into their (single)
// consuming conditional branch, so lowerBin skips them even though they
// appear earlier in the block than the branch.
func (lo *lowerer) planFusion() {
	if !lo.cfg.FuseCmpBranch {
		return
	}
	for _, b := range lo.f.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpCondBr {
				continue
			}
			cond := in.Args[0]
			if cond.Block != in.Block || lo.uses[cond.ID] != 1 {
				continue
			}
			if fop, _, _, _ := fuseKind(cond); fop != isa.NOP {
				lo.fused.Set(cond.ID)
			}
		}
	}
}

// planScaledFusion pre-marks the memory accesses at a constant base that
// fit the machine's scaled addressing mode, which scales the index by the
// access width:
//
//	Load64( Add(c, Mul(idx, 8)) )   →  LOAD64 dst, [c + idx*8]
//	Load64( Add(c, Shl(idx, 3)) )   →  (same)
//	Load32( Add(c, Mul(idx, 4)) )   →  LOAD32 dst, [c + idx*4]
//	Load16( Add(c, Shl(idx, 1)) )   →  LOAD16 dst, [c + idx*2]
//	Store64( Add(c, Mul(idx, 8)), v )  →  STORE64 [c + idx*8], v
//
// The constant base c — a column region or a hash directory, both layout
// constants — is the immediate, so the access needs no base register. A
// 1-byte access needs no multiply, and lo.addr already folds its
// constant. A register base is never fused: no plan's cycles moved when
// it was.
//
// Like planFusion this must run before lowering: the Add and Mul/Shl
// appear earlier in the block than the access, so by the time the access
// is lowered they would already have been emitted. Each matching access
// independently bypasses the address computation (the scaled operand is
// the raw index); the Add itself — CSE typically shares one Add across
// several lazy column loads — is elided once *every* consumer bypasses
// it, and likewise the Mul/Shl once every consumer Add is elided. Elided instructions credit their IR IDs
// to the fused accesses' debug info.
func (lo *lowerer) planScaledFusion() {
	lo.plans = lo.plans[:0]
	for _, b := range lo.f.Blocks {
		for _, in := range b.Instrs {
			shift := memShift(in.Op)
			if shift <= 0 {
				continue
			}
			add := in.Args[0]
			if add.Op != ir.OpAdd || lo.fused.Has(add.ID) {
				continue
			}
			base, idxe := add.Args[0], add.Args[1]
			if scaleIndex(idxe, shift) == nil {
				base, idxe = idxe, base
			}
			idx := scaleIndex(idxe, shift)
			if idx == nil || base.Op != ir.OpConst {
				continue
			}
			lo.plans = append(lo.plans, scaledAddr{add: add, idxe: idxe, idx: idx, c: base.Imm})
			lo.scaled[in.ID] = int32(len(lo.plans))
			lo.bypass[add.ID]++
		}
	}
	// Elide an Add when every one of its uses is a bypassing access.
	for i := range lo.plans {
		p := &lo.plans[i]
		if lo.bypass[p.add.ID] != lo.uses[p.add.ID] {
			continue
		}
		// Each elided Add contributes one use of its Mul/Shl; count it
		// once, not per access (one Add can feed several).
		if !lo.fused.Has(p.add.ID) {
			lo.fused.Set(p.add.ID)
			lo.elided[p.idxe.ID]++
		}
		p.ids[p.n], p.n = p.add.ID, p.n+1
	}
	// Elide a Mul/Shl when every one of its uses is an elided Add.
	for i := range lo.plans {
		p := &lo.plans[i]
		if lo.fused.Has(p.add.ID) && lo.elided[p.idxe.ID] == lo.uses[p.idxe.ID] {
			lo.fused.Set(p.idxe.ID)
			p.ids[p.n], p.n = p.idxe.ID, p.n+1
		}
	}
}

// scaledIns returns the scaled access planned for the load or store mem,
// less the register it loads into or stores: [c + idx*width]. Its debug
// info lists the elided address instructions, then mem.
func (lo *lowerer) scaledIns(mem *ir.Instr) lins {
	p := &lo.plans[lo.scaled[mem.ID]-1]
	l := lins{op: nativeOp[mem.Op], b: lo.opnd(p.idx), imm: p.c, scaled: true, irIDs: lo.carve(p.n + 1)}
	copy(l.irIDs, p.ids[:p.n])
	l.irIDs[p.n] = mem.ID
	return l
}

// memShift returns a load's or store's log2 access width — the scaled
// addressing mode multiplies the index by the width — and -1 for every
// other instruction.
func memShift(op ir.Op) int64 {
	switch op {
	case ir.OpLoad8, ir.OpStore8:
		return 0
	case ir.OpLoad16:
		return 1
	case ir.OpLoad32, ir.OpStore32:
		return 2
	case ir.OpLoad64, ir.OpStore64:
		return 3
	}
	return -1
}

// scaleIndex recognizes an index expression scaled by an access width of
// 1<<shift bytes — Mul(i, 1<<shift) (either operand order) or Shl(i,
// shift) — and returns the unscaled index value, or nil.
func scaleIndex(e *ir.Instr, shift int64) *ir.Instr {
	if len(e.Args) != 2 {
		return nil
	}
	x, y := e.Args[0], e.Args[1]
	switch e.Op {
	case ir.OpMul:
		if y.Op == ir.OpConst && y.Imm == 1<<shift && x.Op != ir.OpConst {
			return x
		}
		if x.Op == ir.OpConst && x.Imm == 1<<shift && y.Op != ir.OpConst {
			return y
		}
	case ir.OpShl:
		if y.Op == ir.OpConst && y.Imm == shift && x.Op != ir.OpConst {
			return x
		}
	}
	return nil
}

// lowerCondBr emits a fused compare-and-branch when planFusion marked the
// condition (Table 1 "instruction fusing": the fused native instruction's
// debug info lists both the compare's and the branch's IR IDs).
func (lo *lowerer) lowerCondBr(bi int, in *ir.Instr) {
	lb := lo.out.blocks[bi]
	then := in.Targets[0].Index
	els := in.Targets[1].Index
	lb.succs = append(lb.succBuf[:0], then, els)

	cond := in.Args[0]
	if lo.fused.Has(cond.ID) {
		if fop, srcA, srcB, swap := fuseKind(cond); fop != isa.NOP {
			l := lins{op: fop, tgt: then, tgt2: els, irIDs: lo.irIDs(cond.ID, in.ID)}
			x, y := srcA, srcB
			if swap {
				x, y = y, x
			}
			k, imm := y.Imm, y.Op == ir.OpConst
			if x.Op == ir.OpConst && !imm {
				// A constant left operand would need a register: c == y and
				// c != y commute, c < y is y >= c+1 and c >= y is y < c+1
				// (at c = MaxInt64 the register form stays).
				switch {
				case fop == isa.JEQ || fop == isa.JNE:
					x, y, k, imm = y, x, x.Imm, true
				case x.Imm < math.MaxInt64:
					l.op = invertedOp[fop]
					x, y, k, imm = y, x, x.Imm+1, true
				}
			}
			l.a = lo.opnd(x)
			if imm {
				l.useImm, l.imm = true, k
			} else {
				l.b = lo.opnd(y)
			}
			lo.emit(bi, l)
			lo.emit(bi, lins{op: isa.JMP, tgt: els, irIDs: lo.irIDs(in.ID)})
			return
		}
	}
	lo.emit(bi, lins{op: isa.JNZ, a: lo.opnd(cond), tgt: then, tgt2: els, irIDs: lo.irIDs(in.ID)})
	lo.emit(bi, lins{op: isa.JMP, tgt: els, irIDs: lo.irIDs(in.ID)})
}

// fuseKind maps a comparison to a fused branch opcode. swap indicates the
// operands must be exchanged (a<=b  ≡  b>=a).
func fuseKind(cmp *ir.Instr) (op isa.Op, a, b *ir.Instr, swap bool) {
	x, y := cmp.Args[0], cmp.Args[1]
	switch cmp.Op {
	case ir.OpCmpEq:
		return isa.JEQ, x, y, false
	case ir.OpCmpNe:
		return isa.JNE, x, y, false
	case ir.OpCmpLt:
		return isa.JLT, x, y, false
	case ir.OpCmpGe:
		return isa.JGE, x, y, false
	case ir.OpCmpLe:
		return isa.JGE, x, y, true
	case ir.OpCmpGt:
		return isa.JLT, x, y, true
	}
	return isa.NOP, nil, nil, false
}

// lowerPhis inserts the parallel copies that realize phi nodes. Copies are
// placed at the end of each predecessor; when the predecessor has several
// successors (a critical edge) a fresh edge block is spliced in so the
// copies execute on the right path only.
func (lo *lowerer) lowerPhis() error {
	var phis []*ir.Instr // reused across blocks
	var moves []phimove  // reused across edges
	for bIdx, b := range lo.f.Blocks {
		phis = phis[:0]
		for _, in := range b.Instrs {
			if in.Op == ir.OpPhi {
				phis = append(phis, in)
			}
		}
		if len(phis) == 0 {
			continue
		}
		for pi, pred := range b.Preds {
			moves = moves[:0]
			for _, phi := range phis {
				arg := phi.Args[pi]
				m := phimove{dst: lo.vregFor(phi), irID: phi.ID}
				if arg.Op == ir.OpConst {
					m.srcConst = arg
				} else {
					m.src = lo.vregFor(arg)
				}
				moves = append(moves, m)
			}
			predIx := pred.Index
			target := predIx
			if len(lo.out.blocks[predIx].succs) > 1 {
				// Critical edge: splice in an edge block, which runs at
				// most as often as either of its ends.
				eb := &lblock{name: pred.Name + ".to." + b.Name, freq: min(pred.Freq, b.Freq)}
				eb.succs = append(eb.succBuf[:0], bIdx)
				lo.out.blocks = append(lo.out.blocks, eb)
				ebIx := len(lo.out.blocks) - 1
				retargetBranch(lo.out.blocks[predIx], bIdx, ebIx)
				eb.ins = append(eb.ins, lins{op: isa.JMP, tgt: bIdx})
				target = ebIx
			}
			// Order the parallel copies so no source is clobbered before
			// it is read; break cycles through a temporary.
			seq, err := lo.schedule(moves)
			if err != nil {
				return fmt.Errorf("codegen: %s: %v", lo.f.Name, err)
			}
			insertBeforeTerminator(lo.out.blocks[target], seq)
		}
	}
	return nil
}

// phimove is one pending parallel copy for a phi edge.
type phimove struct {
	dst, src vreg
	srcConst *ir.Instr // non-nil when the incoming value is a constant
	irID     int
}

// schedule orders parallel moves; cycles are broken with a fresh temp vreg.
// The result is only valid until the next call (one buffer serves every
// edge; insertBeforeTerminator copies it into the block).
func (lo *lowerer) schedule(moves []phimove) ([]lins, error) {
	out := lo.seq[:0]
	pending := moves
	for len(pending) > 0 {
		progressed := false
		for i := 0; i < len(pending); i++ {
			m := pending[i]
			// A move is safe when its destination is not a source of any
			// other pending move.
			safe := true
			for j, o := range pending {
				if j != i && o.srcConst == nil && o.src == m.dst {
					safe = false
					break
				}
			}
			if !safe {
				continue
			}
			if m.srcConst != nil {
				out = append(out, lins{op: isa.MOVRI, dst: m.dst, imm: m.srcConst.Imm, irIDs: lo.irIDs(m.irID)})
			} else {
				out = append(out, lins{op: isa.MOVRR, dst: m.dst, a: m.src, irIDs: lo.irIDs(m.irID)})
			}
			pending = append(pending[:i], pending[i+1:]...)
			i--
			progressed = true
		}
		if !progressed {
			// Cycle: save one endangered source into a temp and retarget.
			m := pending[0]
			if m.srcConst != nil {
				return nil, fmt.Errorf("phi move cycle through constant")
			}
			tmp := lo.out.newVreg()
			out = append(out, lins{op: isa.MOVRR, dst: tmp, a: m.src, irIDs: lo.irIDs(m.irID)})
			for i := range pending {
				if pending[i].srcConst == nil && pending[i].src == m.src {
					pending[i].src = tmp
				}
			}
		}
	}
	lo.seq = out // keep whatever it grew to
	return out, nil
}

// insertBeforeTerminator places code before the block's trailing branch
// sequence (a fused Jcc + JMP pair counts as the terminator).
func insertBeforeTerminator(b *lblock, seq []lins) {
	cut := len(b.ins)
	for cut > 0 && isTerminatorIns(&b.ins[cut-1]) {
		cut--
	}
	// Safety check: the terminator must not read any copied-to register.
	for i := cut; i < len(b.ins); i++ {
		t := &b.ins[i]
		for _, m := range seq {
			if m.dst != 0 && (t.a == m.dst || (!t.useImm && t.b == m.dst)) {
				bug("phi copy clobbers terminator operand in " + b.name)
			}
		}
	}
	b.ins = append(b.ins, seq...) // grow by len(seq); the tail moves up, seq lands in the gap
	copy(b.ins[cut+len(seq):], b.ins[cut:])
	copy(b.ins[cut:], seq)
}

func isTerminatorIns(l *lins) bool {
	switch l.op {
	case isa.JMP, isa.JNZ, isa.JZ, isa.JEQ, isa.JNE, isa.JLT, isa.JGE,
		isa.RET, isa.HALT, isa.TRAP:
		return l.pseudo == pNone
	}
	return false
}

// retargetBranch rewrites branch targets old→new in b's terminators.
func retargetBranch(b *lblock, old, new int) {
	for i := range b.ins {
		l := &b.ins[i]
		if l.tgt == old && isTerminatorIns(l) {
			l.tgt = new
		}
		if l.tgt2 == old && isTerminatorIns(l) {
			l.tgt2 = new
		}
	}
	for i, s := range b.succs {
		if s == old {
			b.succs[i] = new
		}
	}
}

// sweepDeadDefs removes pure definitions — constant materializations and
// ALU results, never tag writes or trapping divisions — whose value
// nothing reads: constants folded into immediates and absolute addresses.
// A removed def may orphan its operands' defs, so the sweep repeats until
// nothing is removed.
func (lo *lowerer) sweepDeadDefs() {
	reads := make([]int32, lo.out.nvreg+1)
	var buf [2]vreg
	for _, b := range lo.out.blocks {
		for i := range b.ins {
			_, uses := b.ins[i].operands(&buf)
			for _, u := range uses {
				reads[u]++
			}
		}
	}
	for swept := true; swept; {
		swept = false
		for _, b := range lo.out.blocks {
			kept := b.ins[:0]
			for _, l := range b.ins {
				if l.pure() && reads[l.dst] == 0 {
					_, uses := l.operands(&buf)
					for _, u := range uses {
						reads[u]--
					}
					swept = true
					continue
				}
				kept = append(kept, l)
			}
			b.ins = kept
		}
	}
}

// pure reports whether l only defines its destination register.
func (l *lins) pure() bool {
	if l.pseudo != pNone || l.tagWrite {
		return false
	}
	return l.op == isa.MOVRI || l.op >= isa.ADD && l.op <= isa.CMPGE && l.op != isa.DIV && l.op != isa.MOD
}
