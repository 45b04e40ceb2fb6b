package ir

// Builder constructs IR with a current-insertion-point API, the way the
// dataflow system's code generator emits instructions during the
// produce/consume traversal.
//
// OnCreate, when set, is invoked for every created instruction; the
// pipeline lowering uses it to register each instruction with the active
// task in the Tagging Dictionary (the paper's "single code location"
// through which all instruction generation is funnelled, §5.2).
type Builder struct {
	Func     *Func
	Cur      *Block
	OnCreate func(*Instr)
}

// NewBuilder returns a builder positioned at f's entry block.
func NewBuilder(f *Func) *Builder {
	return &Builder{Func: f, Cur: f.Entry()}
}

// NewBlock appends a new block to the function (does not move the
// insertion point). It inherits the current block's Freq.
func (b *Builder) NewBlock(name string) *Block {
	blk := b.Func.newBlock(name)
	blk.Freq = b.Cur.Freq
	return blk
}

// SetBlock moves the insertion point to blk.
func (b *Builder) SetBlock(blk *Block) { b.Cur = blk }

// instr carves a new instruction and its operand list from the module's
// slabs; the caller sets whatever else the opcode carries and emits it.
func (b *Builder) instr(op Op, t Type, args ...*Instr) *Instr {
	m := b.Func.Module
	in := m.newInstr()
	in.ID, in.Op, in.Type = m.NewID(), op, t
	in.Args = carve(&m.args, args)
	return in
}

func (b *Builder) emit(in *Instr) *Instr {
	if t := b.Cur.Terminator(); t != nil {
		bugf("emitting %s into terminated block %s", in.Op, b.Cur.Name)
	}
	in.Block = b.Cur
	b.Cur.Instrs = append(b.Cur.Instrs, in)
	if b.OnCreate != nil {
		b.OnCreate(in)
	}
	return in
}

// Const materializes an integer constant.
func (b *Builder) Const(v int64) *Instr {
	in := b.instr(OpConst, I64)
	in.Imm = v
	return b.emit(in)
}

// Param references function parameter i.
func (b *Builder) Param(i int) *Instr {
	if i >= b.Func.NumParams {
		bug("parameter index out of range")
	}
	in := b.instr(OpParam, I64)
	in.Imm = int64(i)
	return b.emit(in)
}

// Bin emits a binary arithmetic/logic instruction.
func (b *Builder) Bin(op Op, x, y *Instr) *Instr {
	t := I64
	switch op {
	case OpCmpEq, OpCmpNe, OpCmpLt, OpCmpLe, OpCmpGt, OpCmpGe:
		t = I1
	}
	return b.emit(b.instr(op, t, x, y))
}

func (b *Builder) Add(x, y *Instr) *Instr  { return b.Bin(OpAdd, x, y) }
func (b *Builder) Sub(x, y *Instr) *Instr  { return b.Bin(OpSub, x, y) }
func (b *Builder) Mul(x, y *Instr) *Instr  { return b.Bin(OpMul, x, y) }
func (b *Builder) SDiv(x, y *Instr) *Instr { return b.Bin(OpSDiv, x, y) }
func (b *Builder) And(x, y *Instr) *Instr  { return b.Bin(OpAnd, x, y) }
func (b *Builder) Xor(x, y *Instr) *Instr  { return b.Bin(OpXor, x, y) }
func (b *Builder) Shl(x, y *Instr) *Instr  { return b.Bin(OpShl, x, y) }
func (b *Builder) Shr(x, y *Instr) *Instr  { return b.Bin(OpShr, x, y) }
func (b *Builder) Rotr(x, y *Instr) *Instr { return b.Bin(OpRotr, x, y) }

// Crc32 emits one hash mixing step combining a constant with a value, as in
// the paper's generated hash pipelines (Listing 1 lines %7, %8).
func (b *Builder) Crc32(c *Instr, v *Instr) *Instr { return b.Bin(OpCrc32, c, v) }

// Load emits a load of the given width (8, 16, 32 or 64 bits) from addr.
func (b *Builder) Load(width int, addr *Instr) *Instr {
	var op Op
	switch width {
	case 8:
		op = OpLoad8
	case 16:
		op = OpLoad16
	case 32:
		op = OpLoad32
	case 64:
		op = OpLoad64
	default:
		bug("bad load width")
	}
	return b.emit(b.instr(op, I64, addr))
}

// InvariantLoad emits a load the caller vouches reads host-staged memory
// no generated code writes (Instr.Invariant).
func (b *Builder) InvariantLoad(width int, addr *Instr) *Instr {
	in := b.Load(width, addr)
	in.Invariant = true
	return in
}

// Store emits a store of the given width to addr.
func (b *Builder) Store(width int, addr, val *Instr) *Instr {
	var op Op
	switch width {
	case 8:
		op = OpStore8
	case 32:
		op = OpStore32
	case 64:
		op = OpStore64
	default:
		bug("bad store width")
	}
	return b.emit(b.instr(op, Void, addr, val))
}

// Phi emits a phi node; the caller appends incoming values with AddIncoming
// as predecessor edges are created.
func (b *Builder) Phi() *Instr {
	return b.emit(b.instr(OpPhi, I64))
}

// AddIncoming appends an incoming value to a phi, parallel to the owning
// block's Preds list.
func AddIncoming(phi *Instr, v *Instr) {
	if phi.Op != OpPhi {
		bug("AddIncoming on non-phi")
	}
	phi.Args = append(phi.Args, v)
}

// Br terminates the current block with an unconditional branch.
func (b *Builder) Br(target *Block) *Instr {
	in := b.instr(OpBr, Void)
	in.Targets = carve(&b.Func.Module.targets, []*Block{target})
	b.emit(in)
	target.Preds = append(target.Preds, b.Cur)
	return in
}

// CondBr terminates the current block with a conditional branch.
func (b *Builder) CondBr(cond *Instr, then, els *Block) *Instr {
	in := b.instr(OpCondBr, Void, cond)
	in.Targets = carve(&b.Func.Module.targets, []*Block{then, els})
	b.emit(in)
	then.Preds = append(then.Preds, b.Cur)
	els.Preds = append(els.Preds, b.Cur)
	return in
}

// Ret terminates the current block with a return; v may be nil.
func (b *Builder) Ret(v *Instr) *Instr {
	if v == nil {
		return b.emit(b.instr(OpRet, Void))
	}
	return b.emit(b.instr(OpRet, Void, v))
}

// Call emits a call to the named function. hasResult selects whether the
// call produces a value (runtime allocation routines return pointers).
func (b *Builder) Call(callee string, hasResult bool, args ...*Instr) *Instr {
	t := Void
	if hasResult {
		t = I64
	}
	in := b.instr(OpCall, t, args...)
	in.Callee = callee
	return b.emit(in)
}

// SetTag writes v into the reserved tag register (Register Tagging).
func (b *Builder) SetTag(v *Instr) *Instr {
	return b.emit(b.instr(OpSetTag, Void, v))
}

// GetTag reads the reserved tag register.
func (b *Builder) GetTag() *Instr {
	return b.emit(b.instr(OpGetTag, I64))
}

// Halt terminates the program (only valid in the driver main).
func (b *Builder) Halt() *Instr {
	return b.emit(b.instr(OpHalt, Void))
}

// Trap emits a runtime error with the given code.
func (b *Builder) Trap(code int64) *Instr {
	in := b.instr(OpTrap, Void)
	in.Imm = code
	return b.emit(in)
}
