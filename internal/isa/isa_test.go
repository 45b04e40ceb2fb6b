package isa

import (
	"strings"
	"testing"
)

func TestRegString(t *testing.T) {
	cases := map[Reg]string{0: "r0", 11: "r11", 15: "r15", SP: "sp"}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("Reg(%d).String() = %q, want %q", r, got, want)
		}
	}
}

func TestWidths(t *testing.T) {
	cases := []struct {
		op   Op
		want int64
	}{
		{LOAD8, 1}, {LOAD16, 2}, {LOAD32, 4}, {LOAD64, 8},
		{STORE8, 1}, {STORE32, 4}, {STORE64, 8},
		{ADD, 0}, {JMP, 0},
	}
	for _, c := range cases {
		in := Instr{Op: c.op}
		if got := in.Width(); got != c.want {
			t.Errorf("%v.Width() = %d, want %d", c.op, got, c.want)
		}
	}
}

func TestClassifiers(t *testing.T) {
	if !(&Instr{Op: LOAD64}).IsLoad() || !(&Instr{Op: LOAD16}).IsLoad() || (&Instr{Op: STORE64}).IsLoad() {
		t.Error("IsLoad misclassifies")
	}
	if !(&Instr{Op: STORE8}).IsStore() || (&Instr{Op: LOAD8}).IsStore() {
		t.Error("IsStore misclassifies")
	}
	for _, op := range []Op{JMP, JNZ, JZ, JEQ, JNE, JLT, JGE} {
		if !(&Instr{Op: op}).IsBranch() {
			t.Errorf("%v should be a branch", op)
		}
	}
	for _, op := range []Op{CALL, RET, HALT, ADD} {
		if (&Instr{Op: op}).IsBranch() {
			t.Errorf("%v should not be a branch", op)
		}
	}
}

func TestInstrString(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: MOVRI, Dst: 3, Imm: 42}, "movi r3, 42"},
		{Instr{Op: MOVRR, Dst: 1, Src1: 2}, "mov r1, r2"},
		{Instr{Op: LOAD64, Dst: 0, Src1: 1, Imm: 16}, "load64 r0, [r1+16]"},
		{Instr{Op: LOAD64, Dst: 0, Abs: true, Imm: 512}, "load64 r0, [512]"},
		{Instr{Op: LOAD16, Dst: 5, Src2: 2, Abs: true, Scaled: true, Imm: 640}, "load16 r5, [640+r2*2]"},
		{Instr{Op: STORE64, Dst: 3, Src1: 4, Src2: 2, Scaled: true}, "store64 [r4+0+r2*8], r3"},
		{Instr{Op: ADD, Dst: 0, Src1: 1, UseImm: true, Imm: 8}, "add r0, r1, 8"},
		{Instr{Op: ADD, Dst: 0, Src1: 1, Src2: 2}, "add r0, r1, r2"},
		{Instr{Op: JGE, Src1: 4, Src2: 2, Imm2: 5}, "jge r4, r2, 5"},
		{Instr{Op: JEQ, Src1: 1, UseImm: true, Imm: 7, Imm2: 12}, "jeq r1, 7, 12"},
		{Instr{Op: CALL, Imm: 99}, "call 99"},
		{Instr{Op: RET}, "ret"},
		{Instr{Op: JNZ, Src1: 2, Imm: 10}, "jnz r2, 10"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestProgramFuncAt(t *testing.T) {
	p := &Program{
		Code: make([]Instr, 10),
		Funcs: []FuncSym{
			{Name: "main", Entry: 0, End: 4},
			{Name: "helper", Entry: 4, End: 10},
		},
	}
	if f := p.FuncAt(0); f == nil || f.Name != "main" {
		t.Fatalf("FuncAt(0) = %v", f)
	}
	if f := p.FuncAt(4); f == nil || f.Name != "helper" {
		t.Fatalf("FuncAt(4) = %v", f)
	}
	if f := p.FuncAt(10); f != nil {
		t.Fatalf("FuncAt(10) = %v, want nil", f)
	}
}

func TestDisasmContainsSymbols(t *testing.T) {
	p := &Program{
		Code: []Instr{{Op: MOVRI, Dst: 0, Imm: 1}, {Op: HALT}},
		Funcs: []FuncSym{
			{Name: "main", Entry: 0, End: 2},
		},
	}
	d := p.Disasm()
	if !strings.Contains(d, "main:") || !strings.Contains(d, "movi r0, 1") {
		t.Fatalf("Disasm output:\n%s", d)
	}
}

func TestOpStringTotal(t *testing.T) {
	for op := NOP; op <= TRAP; op++ {
		if s := op.String(); s == "" || strings.HasPrefix(s, "op(") {
			t.Errorf("op %d has no name", op)
		}
	}
}
