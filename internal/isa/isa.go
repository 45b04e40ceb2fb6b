// Package isa defines the simulated native instruction set that the code
// generator targets and the vm executes.
//
// The ISA plays the role of x86 machine code in the paper: it is the lowest
// abstraction level, the one the PMU samples point into. It is a simple
// register machine:
//
//   - 16 general-purpose 64-bit registers r0..r15 (like x86-64),
//   - a stack pointer sp (unused by generated code; spill slots live in a
//     dedicated heap region).
//
// Calling convention: arguments in r0..r3, result in r0; a call clobbers
// r0..r4 and preserves r5..r15 (hand-written runtime routines restrict
// themselves to r0..r4). There is deliberately no architectural tag
// register: Register Tagging reserves one of the *general-purpose*
// registers (r15 by convention), exactly as the paper reserves an x86 GPR —
// that reservation is what causes the ≈2.8% code-quality overhead measured
// in §6.2, and the PMU simply captures the whole register file.
package isa

import "fmt"

// NumGPR is the number of general-purpose registers.
const NumGPR = 16

// Reg identifies a machine register.
type Reg uint8

// Special registers beyond the general-purpose file.
const (
	SP Reg = 16 // stack pointer

	// NumRegs is the total register file size recorded in PMU samples.
	NumRegs = 17
)

// TagReg is the general-purpose register reserved for Register Tagging by
// convention (the code generator removes it from allocation when tagging
// is enabled, §4.2.5 / §5.3 of the paper).
const TagReg Reg = 15

// Calling convention.
const (
	// NumArgRegs arguments are passed in r0..r3; results return in r0.
	NumArgRegs = 4
	// LastClobbered: a CALL clobbers r0..r4; r5..r15 are preserved.
	LastClobbered Reg = 4
)

func (r Reg) String() string {
	if r == SP {
		return "sp"
	}
	return fmt.Sprintf("r%d", uint8(r))
}

// Op is a native opcode.
type Op uint8

// The instruction set. Loads and stores address memory as base register +
// signed immediate displacement, optionally plus an index register scaled
// by the access width (Scaled flag). Loads read 1, 2, 4 or 8 bytes (LOAD8
// and LOAD16 zero-extend, LOAD32 sign-extends); stores write 1, 4 or 8:
// generated code never writes a 2-byte column, so there is no STORE16.
const (
	NOP Op = iota

	// Data movement.
	MOVRR // Dst = Src1
	MOVRI // Dst = Imm

	// Memory. Address = R(Src1) + Imm [+ R(Src2)*width if Scaled].
	LOAD8
	LOAD16
	LOAD32
	LOAD64
	STORE8 // mem[addr] = R(Src2value) — see Instr docs
	STORE32
	STORE64

	// Arithmetic / logic: Dst = Src1 op Src2 (or Imm when UseImm).
	ADD
	SUB
	MUL
	DIV // signed; division by zero traps the VM
	MOD
	AND
	OR
	XOR
	SHL
	SHR
	ROTR
	CRC32 // Dst = crc32 mixing step of (Src1, Src2/Imm)

	// Comparisons: Dst = 1 if compare holds else 0.
	CMPEQ
	CMPNE
	CMPLT // signed <
	CMPLE
	CMPGT
	CMPGE

	// Control flow. Branch targets are absolute instruction indices (Imm).
	JMP
	JNZ // jump if R(Src1) != 0
	JZ  // jump if R(Src1) == 0
	// Fused compare-and-branch forms produced by peephole instruction
	// fusing in the backend (Table 1 "Instruction fusing").
	JEQ // jump if R(Src1) == R(Src2)
	JNE
	JLT
	JGE

	CALL // call function at absolute instruction index Imm
	RET

	HALT // end of program
	TRAP // runtime error (bounds, div-by-zero guard); stops the VM
)

var opNames = [...]string{
	NOP: "nop", MOVRR: "mov", MOVRI: "movi",
	LOAD8: "load8", LOAD16: "load16", LOAD32: "load32", LOAD64: "load64",
	STORE8: "store8", STORE32: "store32", STORE64: "store64",
	ADD: "add", SUB: "sub", MUL: "mul", DIV: "div", MOD: "mod",
	AND: "and", OR: "or", XOR: "xor", SHL: "shl", SHR: "shr", ROTR: "rotr",
	CRC32: "crc32",
	CMPEQ: "cmpeq", CMPNE: "cmpne", CMPLT: "cmplt", CMPLE: "cmple",
	CMPGT: "cmpgt", CMPGE: "cmpge",
	JMP: "jmp", JNZ: "jnz", JZ: "jz",
	JEQ: "jeq", JNE: "jne", JLT: "jlt", JGE: "jge",
	CALL: "call", RET: "ret",
	HALT: "halt", TRAP: "trap",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Instr is one native instruction. The operand meaning depends on Op:
//
//   - MOVRR:   Dst ← Src1
//   - MOVRI:   Dst ← Imm
//   - LOADx:   Dst ← mem[R(Src1)+Imm (+R(Src2)*width if Scaled)]
//   - STOREx:  mem[R(Src1)+Imm (+R(Src2)*width if Scaled)] ← R(Dst)
//     (the stored value lives in Dst so that all three operand slots
//     can participate in addressing; the VM and allocator know this)
//   - binary:  Dst ← R(Src1) op (UseImm ? Imm : R(Src2))
//   - JMP/CALL: target = Imm
//   - JNZ/JZ:  condition register Src1, target Imm
//   - Jcc:     compare R(Src1) with (UseImm ? Imm : R(Src2)), target in Imm2
type Instr struct {
	Op     Op
	Dst    Reg
	Src1   Reg
	Src2   Reg
	Imm    int64
	Imm2   int64 // secondary immediate: branch target for fused Jcc
	UseImm bool  // second operand is Imm rather than Src2
	Scaled bool  // memory operand adds R(Src2)*width
	Abs    bool  // memory operand is the absolute address Imm (no base register)
}

// IsLoad reports whether the instruction reads memory.
func (in *Instr) IsLoad() bool {
	return in.Op >= LOAD8 && in.Op <= LOAD64
}

// IsStore reports whether the instruction writes memory.
func (in *Instr) IsStore() bool {
	return in.Op == STORE8 || in.Op == STORE32 || in.Op == STORE64
}

// IsBranch reports whether the instruction may transfer control (excluding
// CALL/RET/HALT).
func (in *Instr) IsBranch() bool {
	switch in.Op {
	case JMP, JNZ, JZ, JEQ, JNE, JLT, JGE:
		return true
	}
	return false
}

// Width returns the access width in bytes for memory instructions, 0 otherwise.
func (in *Instr) Width() int64 {
	switch in.Op {
	case LOAD8, STORE8:
		return 1
	case LOAD16:
		return 2
	case LOAD32, STORE32:
		return 4
	case LOAD64, STORE64:
		return 8
	}
	return 0
}

// String renders the instruction in a compact assembly-like syntax.
func (in *Instr) String() string {
	switch in.Op {
	case NOP, RET, HALT, TRAP:
		return in.Op.String()
	case MOVRR:
		return fmt.Sprintf("mov %s, %s", in.Dst, in.Src1)
	case MOVRI:
		return fmt.Sprintf("movi %s, %d", in.Dst, in.Imm)
	case LOAD8, LOAD16, LOAD32, LOAD64:
		return fmt.Sprintf("%s %s, [%s]", in.Op, in.Dst, in.memOperand())
	case STORE8, STORE32, STORE64:
		return fmt.Sprintf("%s [%s], %s", in.Op, in.memOperand(), in.Dst)
	case JMP:
		return fmt.Sprintf("jmp %d", in.Imm)
	case JNZ, JZ:
		return fmt.Sprintf("%s %s, %d", in.Op, in.Src1, in.Imm)
	case JEQ, JNE, JLT, JGE:
		if in.UseImm {
			return fmt.Sprintf("%s %s, %d, %d", in.Op, in.Src1, in.Imm, in.Imm2)
		}
		return fmt.Sprintf("%s %s, %s, %d", in.Op, in.Src1, in.Src2, in.Imm2)
	case CALL:
		return fmt.Sprintf("call %d", in.Imm)
	default:
		if in.UseImm {
			return fmt.Sprintf("%s %s, %s, %d", in.Op, in.Dst, in.Src1, in.Imm)
		}
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Dst, in.Src1, in.Src2)
	}
}

func (in *Instr) memOperand() string {
	s := ""
	if in.Abs {
		s = fmt.Sprintf("%d", in.Imm)
	} else {
		s = fmt.Sprintf("%s%+d", in.Src1, in.Imm)
	}
	if in.Scaled {
		s += fmt.Sprintf("+%s*%d", in.Src2, in.Width())
	}
	return s
}

// Program is an executable sequence of native instructions plus symbol
// information for functions (used by the disassembler and by call-stack
// resolution in the profiler).
type Program struct {
	Code  []Instr
	Funcs []FuncSym
}

// FuncSym describes one function's extent inside Program.Code.
type FuncSym struct {
	Name  string
	Entry int // first instruction index
	End   int // one past the last instruction index
}

// FuncAt returns the symbol covering instruction index ip, or nil.
func (p *Program) FuncAt(ip int) *FuncSym {
	for i := range p.Funcs {
		f := &p.Funcs[i]
		if ip >= f.Entry && ip < f.End {
			return f
		}
	}
	return nil
}

// Disasm renders the whole program with function headers.
func (p *Program) Disasm() string {
	out := ""
	for i := range p.Code {
		for j := range p.Funcs {
			if p.Funcs[j].Entry == i {
				out += fmt.Sprintf("%s:\n", p.Funcs[j].Name)
			}
		}
		out += fmt.Sprintf("  %4d  %s\n", i, p.Code[i].String())
	}
	return out
}
