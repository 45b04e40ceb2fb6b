// Package ir defines the intermediate representation the dataflow system
// lowers pipelines into — the analogue of LLVM IR in the paper (Fig. 8c,
// Listing 1). It is a conventional SSA IR: functions of basic blocks,
// instructions producing at most one value, phi nodes at block heads,
// explicit terminators.
//
// Every instruction carries a process-unique ID. Those IDs are the keys of
// the Tagging Dictionary's Log B (IR instruction → task): the lowering code
// in internal/pipeline registers each created instruction with the active
// task, and the optimizer in internal/iropt reports every transformation
// through a lineage callback so links stay correct (Table 1 of the paper).
package ir

import "fmt"

// Type is an IR value type. The engine computes exclusively on 64-bit
// integers (strings are dictionary-encoded, dates are day numbers), so the
// type system stays minimal.
type Type uint8

const (
	Void Type = iota
	I1        // comparison results
	I64       // integers and pointers
)

func (t Type) String() string {
	switch t {
	case Void:
		return "void"
	case I1:
		return "i1"
	case I64:
		return "i64"
	}
	return "?"
}

// Op is an IR opcode.
type Op uint8

const (
	OpConst Op = iota // Imm
	OpParam           // function parameter #Imm

	OpAdd
	OpSub
	OpMul
	OpSDiv
	OpSMod
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpRotr
	OpCrc32 // hash mixing step, Imm holds the constant when Args has 1 element

	OpCmpEq
	OpCmpNe
	OpCmpLt
	OpCmpLe
	OpCmpGt
	OpCmpGe

	OpLoad8
	OpLoad16 // zero-extends, as OpLoad8 does; OpLoad32 sign-extends
	OpLoad32
	OpLoad64
	OpStore8 // Args[0]=addr, Args[1]=value
	OpStore32
	OpStore64

	OpPhi    // Args parallel to Block.Preds
	OpBr     // unconditional; Targets[0]
	OpCondBr // Args[0]=cond; Targets[0]=then, Targets[1]=else
	OpRet    // optional Args[0]
	OpCall   // Callee symbol, Args = arguments

	OpSetTag // Args[0]=value to write into the tag register
	OpGetTag // reads the tag register

	OpHalt
	OpTrap // Imm = trap code
)

var opNames = [...]string{
	OpConst: "const", OpParam: "param",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpSDiv: "sdiv", OpSMod: "smod",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpRotr: "rotr", OpCrc32: "crc32",
	OpCmpEq: "cmpeq", OpCmpNe: "cmpne", OpCmpLt: "cmplt", OpCmpLe: "cmple",
	OpCmpGt: "cmpgt", OpCmpGe: "cmpge",
	OpLoad8: "load8", OpLoad16: "load16", OpLoad32: "load32", OpLoad64: "load64",
	OpStore8: "store8", OpStore32: "store32", OpStore64: "store64",
	OpPhi: "phi", OpBr: "br", OpCondBr: "condbr", OpRet: "ret", OpCall: "call",
	OpSetTag: "settag", OpGetTag: "gettag",
	OpHalt: "halt", OpTrap: "trap",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsTerminator reports whether the op must end a basic block.
func (o Op) IsTerminator() bool {
	switch o {
	case OpBr, OpCondBr, OpRet, OpHalt, OpTrap:
		return true
	}
	return false
}

// IsPure reports whether the instruction has no side effects and its result
// depends only on its operands (candidates for CSE/DCE/constant folding).
func (o Op) IsPure() bool {
	switch o {
	case OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpShl, OpShr, OpRotr,
		OpCrc32, OpCmpEq, OpCmpNe, OpCmpLt, OpCmpLe, OpCmpGt, OpCmpGe,
		OpConst:
		return true
		// Division is pure except for the divide-by-zero trap; the optimizer
		// treats it as CSE-able but not dead-code-removable unless the divisor
		// is a non-zero constant. IsPure stays conservative here.
	}
	return false
}

// IsLoad reports whether the op reads memory.
func (o Op) IsLoad() bool { return o >= OpLoad8 && o <= OpLoad64 }

// Instr is one IR instruction. Instructions are identified by ID; the
// ID namespace is per Module and never reused, so the Tagging Dictionary
// can key links by ID across optimization passes.
type Instr struct {
	ID   int
	Op   Op
	Type Type
	// Invariant marks a load of host-staged memory that no generated code
	// writes (a column, a row-count slot, a query parameter): every
	// execution of the function reads the same value at the same address.
	// The pipeline generator sets it where it emits the load; code motion
	// may move only such loads, and the translation validator names them
	// by address alone.
	Invariant bool
	Args      []*Instr
	Imm       int64
	Callee    string   // for OpCall: runtime routine or function symbol
	Targets   []*Block // for terminators
	Block     *Block

	// Comment carries a human-readable note rendered by the printer
	// (e.g. "directory lookup"), purely cosmetic.
	Comment string
}

// NumValue reports whether the instruction produces an SSA value.
func (in *Instr) NumValue() bool { return in.Type != Void }

func (in *Instr) String() string {
	return fmt.Sprintf("%%%d = %s", in.ID, in.Op)
}

// Block is a basic block. Index is its position in Func.Blocks, fixed at
// creation (no pass inserts, removes or reorders blocks); the verifier
// checks it, and every per-block table of the lowering stack is a slice
// or bitset indexed by it.
type Block struct {
	Name   string
	Index  int
	Instrs []*Instr
	Preds  []*Block
	Func   *Func

	// Freq estimates how often the block runs relative to its function's
	// entry, which counts 1. The register allocator weights spills by it. The pipeline generator stamps it from the
	// plan's row estimates; a block nobody stamps counts as often as the
	// block the Builder stood in when it was created.
	Freq float64
}

// Terminator returns the block's final instruction, or nil if the block is
// still under construction.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	t := b.Instrs[len(b.Instrs)-1]
	if !t.Op.IsTerminator() {
		return nil
	}
	return t
}

// Succs returns the block's successor blocks.
func (b *Block) Succs() []*Block {
	t := b.Terminator()
	if t == nil {
		return nil
	}
	return t.Targets
}

// Func is an IR function.
type Func struct {
	Name      string
	NumParams int
	Blocks    []*Block
	Module    *Module
}

// Entry returns the function's entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// newBlock appends a block to f.
func (f *Func) newBlock(name string) *Block {
	b := &Block{Name: name, Index: len(f.Blocks), Func: f, Freq: 1}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Owns reports whether b is one of f's blocks, without trusting b: a
// foreign (or nil) block whose Index happens to be in range is not owned.
func (f *Func) Owns(b *Block) bool {
	return b != nil && uint(b.Index) < uint(len(f.Blocks)) && f.Blocks[b.Index] == b
}

// Module is a compilation unit: all pipeline functions of one query plus
// the driver main.
type Module struct {
	Funcs  []*Func
	nextID int

	// TagEverything asks for §6.3's validation mode: the tag register
	// follows the owning task through all generated code, not only
	// through shared calls. The pipeline generator sets it;
	// iropt.Optimize places the tag writes after its last pass.
	TagEverything bool

	// Slabs the Builder carves instructions and their operand and target
	// lists from: a statement's few hundred instructions cost a handful
	// of allocations, not three each. A chunk stays alive while any
	// instruction in it does; nothing is ever handed out twice.
	instrs  []Instr
	args    []*Instr
	targets []*Block
}

// Slab chunk sizes: small enough that the unused tail of the last chunk
// (the only over-reservation) stays well under a statement's own IR.
const instrChunk, listChunk = 64, 128

// newInstr returns a zeroed instruction from the module's slab.
func (m *Module) newInstr() *Instr {
	if len(m.instrs) == 0 {
		m.instrs = make([]Instr, instrChunk)
	}
	in := &m.instrs[0]
	m.instrs = m.instrs[1:]
	return in
}

// carve returns a list holding xs cut from *slab (nil for none), its
// capacity clipped so a later append (AddIncoming) copies out instead of
// overwriting a neighbour.
func carve[T any](slab *[]T, xs []T) []T {
	if len(xs) == 0 {
		return nil
	}
	if len(*slab) < len(xs) {
		*slab = make([]T, max(listChunk, len(xs)))
	}
	s := (*slab)[:len(xs):len(xs)]
	*slab = (*slab)[len(xs):]
	copy(s, xs)
	return s
}

// NewModule returns an empty module.
func NewModule() *Module { return &Module{} }

// Extension returns an empty module for functions generated after m is
// finished. Its instruction IDs continue after m's, so the two never
// collide, and m itself is left as it is.
func (m *Module) Extension() *Module {
	return &Module{nextID: m.nextID, TagEverything: m.TagEverything}
}

// Joined returns the module holding m's functions and then ext's, whose
// IDs run up to ext's highest: the whole program, for readers such as the
// verifier and the printer. The functions are shared, not copied.
func (m *Module) Joined(ext *Module) *Module {
	funcs := make([]*Func, 0, len(m.Funcs)+len(ext.Funcs))
	funcs = append(append(funcs, m.Funcs...), ext.Funcs...)
	return &Module{Funcs: funcs, nextID: ext.nextID, TagEverything: m.TagEverything}
}

// NewFunc appends a new function with a single entry block.
func (m *Module) NewFunc(name string, numParams int) *Func {
	f := &Func{Name: name, NumParams: numParams, Module: m}
	f.newBlock("entry")
	m.Funcs = append(m.Funcs, f)
	return f
}

// NewID allocates a fresh instruction ID.
func (m *Module) NewID() int {
	m.nextID++
	return m.nextID
}

// MaxID returns the highest allocated instruction ID.
func (m *Module) MaxID() int { return m.nextID }

// FuncByName finds a function by symbol name, or nil.
func (m *Module) FuncByName(name string) *Func {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// InstrCount returns the total number of instructions in the module.
func (m *Module) InstrCount() int {
	n := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
	}
	return n
}

// ForEachInstr visits every instruction in deterministic order.
func (m *Module) ForEachInstr(fn func(*Func, *Block, *Instr)) {
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				fn(f, b, in)
			}
		}
	}
}
