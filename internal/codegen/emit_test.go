package codegen

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/vm"
)

// Hand-written LIR with a hand-made allocation: the emitter's reload
// forwarding and call-argument moves, each case driven directly.

// inReg and inSlot are allocation.loc entries.
func inReg(r isa.Reg) int32 { return int32(r) + 1 }
func inSlot(s int) int32    { return -int32(s) - 1 }

func newTestEmitter() *emitter {
	cfg := DefaultConfig(0, testSpill, testSpillSz)
	e := &emitter{cfg: cfg, prog: &isa.Program{}, nmap: core.NewNativeMap(0), symbols: map[string]int{}}
	e.res = &Result{Program: e.prog, NMap: e.nmap, spillBase: cfg.SpillBase}
	return e
}

// handFunc builds an lfunc from blocks of instructions and their
// successor lists, with vregs 1..len(loc)-1 placed as loc says.
func handFunc(loc []int32, succs [][]int, blocks ...[]lins) (*lfunc, *allocation) {
	fn := &lfunc{name: "main", nvreg: vreg(len(loc) - 1)}
	for i, ins := range blocks {
		fn.blocks = append(fn.blocks, &lblock{name: "b", ins: ins, succs: succs[i]})
	}
	return fn, &allocation{loc: loc}
}

// use reads v as a first operand (into scratchA if spilled), useB as a
// second (into scratchB); both write r5.
func use(v vreg) lins  { return lins{op: isa.ADD, dst: 5, a: v, useImm: true, imm: 1} }
func useB(v vreg) lins { return lins{op: isa.ADD, dst: 5, a: 5, b: v} }

// reloads counts the loads of spill slot slot in e's program.
func reloads(e *emitter, slot int) int {
	n := 0
	for _, in := range e.prog.Code {
		if in.Op == isa.LOAD64 && in.Abs && in.Imm == e.spillAddr(slot) {
			n++
		}
	}
	return n
}

// TestReloadForwarding: a reload is left out while the scratch register
// still holds the slot, and made again after a call, after the register is
// redefined, after a parameter is stored into the slot, at a join whose
// predecessors disagree and at a loop header.
func TestReloadForwarding(t *testing.T) {
	// v1, v2 in slots 0 and 1; v3 in slot 2; v5 in r5.
	loc := []int32{0, inSlot(0), inSlot(1), inSlot(2), 0, inReg(5)}
	ret := lins{op: isa.RET}
	one := [][]int{nil}
	for _, tc := range []struct {
		name   string
		succs  [][]int
		blocks [][]lins
		want   int // loads of slot 0
	}{
		{"forwarded", one, [][]lins{{use(1), use(1), ret}}, 1},
		{"call", one, [][]lins{{use(1), {pseudo: pCall, callee: "f"}, use(1), ret}}, 2},
		{"scratch computes another slot", one, [][]lins{{use(1), {op: isa.ADD, dst: 3, a: 5, useImm: true, imm: 1}, use(1), ret}}, 2},
		{"scratch copies another slot", one, [][]lins{{use(1), {op: isa.MOVRR, dst: 3, a: 5}, use(1), ret}}, 2},
		// v1 is read into scratchB, redefined through scratchA, read into
		// scratchB again: the old copy is stale, and scratchA's new one is
		// copied (TestSpilledValueCopiedAcrossScratch).
		{"redefined", one, [][]lins{{useB(1), {op: isa.ADD, dst: 1, a: 5, useImm: true, imm: 1}, useB(1), ret}}, 1},
		{"held by the other scratch", one, [][]lins{{useB(1), use(1), ret}}, 1},
		{"stored over by a parameter", one, [][]lins{{use(1), {pseudo: pParam, dst: 1}, use(1), ret}}, 2},
		{"spill store forwards", one, [][]lins{{{op: isa.MOVRI, dst: 1, imm: 9}, use(1), ret}}, 0},
		{"join, predecessors agree", [][]int{{1, 2}, {3}, {3}, nil}, [][]lins{
			{use(1), {op: isa.JNZ, a: 5, tgt: 1, tgt2: 2}, {op: isa.JMP, tgt: 2}},
			{{op: isa.JMP, tgt: 3}},
			{{op: isa.JMP, tgt: 3}},
			{use(1), ret},
		}, 1},
		{"join, predecessors disagree", [][]int{{1, 2}, {3}, {3}, nil}, [][]lins{
			{use(1), {op: isa.JNZ, a: 5, tgt: 1, tgt2: 2}, {op: isa.JMP, tgt: 2}},
			{{op: isa.JMP, tgt: 3}},
			{use(2), {op: isa.JMP, tgt: 3}},
			{use(1), ret},
		}, 2},
		{"loop header", [][]int{{1}, {2, 3}, {1}, nil}, [][]lins{
			{use(1), {op: isa.JMP, tgt: 1}},
			{use(1), {op: isa.JNZ, a: 5, tgt: 2, tgt2: 3}, {op: isa.JMP, tgt: 3}},
			{{op: isa.JMP, tgt: 1}},
			{ret},
		}, 2},
	} {
		fn, a := handFunc(loc, tc.succs, tc.blocks...)
		e := newTestEmitter()
		if err := e.emitFunc(fn, a); err != nil {
			t.Fatal(err)
		}
		if got := reloads(e, 0); got != tc.want {
			t.Errorf("%s: %d reloads of slot 0, want %d:\n%s", tc.name, got, tc.want, e.prog.Disasm())
		}
	}
}

// TestSpilledValueCopiedAcrossScratch: a spilled value read through one
// scratch register and then through the other is copied between them
// (MOVRR), not loaded twice; after a redefinition the copy comes from the
// register holding the new value, never from the stale one.
func TestSpilledValueCopiedAcrossScratch(t *testing.T) {
	loc := []int32{0, inSlot(0), 0, 0, 0, inReg(5)}
	for _, tc := range []struct {
		name   string
		ins    []lins
		from   isa.Reg // the register the second read copies from
		loaded int     // loads of slot 0
	}{
		{"B then A", []lins{useB(1), use(1), {op: isa.RET}}, scratchB, 1},
		{"A then B", []lins{use(1), useB(1), {op: isa.RET}}, scratchA, 1},
		{"redefined", []lins{useB(1), {op: isa.ADD, dst: 1, a: 5, useImm: true, imm: 1}, useB(1), {op: isa.RET}}, scratchA, 1},
	} {
		fn, a := handFunc(loc, [][]int{nil}, tc.ins)
		e := newTestEmitter()
		if err := e.emitFunc(fn, a); err != nil {
			t.Fatal(err)
		}
		moves := 0
		for _, in := range e.prog.Code {
			if in.Op == isa.MOVRR && (in.Dst == scratchA || in.Dst == scratchB) {
				moves++
				if in.Src1 != tc.from || in.Dst == tc.from {
					t.Errorf("%s: copied %s from %s, want from %s:\n%s", tc.name, in.Dst, in.Src1, tc.from, e.prog.Disasm())
				}
			}
		}
		if got := reloads(e, 0); got != tc.loaded || moves != 1 {
			t.Errorf("%s: %d loads of slot 0 and %d scratch copies, want %d and 1:\n%s", tc.name, got, moves, tc.loaded, e.prog.Disasm())
		}
	}
}

// TestCallArgumentMoves: call arguments reach r0..r3 as one parallel move
// — a swap of r0 and r1, a 3- and a 4-cycle, each broken once through
// scratchA — and spilled arguments straight from their slots (or from the
// scratch register still holding one), with no memory staging; the VM
// runs the callee on what arrived.
func TestCallArgumentMoves(t *testing.T) {
	for _, tc := range []struct {
		name  string
		vals  []int64 // the arguments, in order
		loc   []int32 // where each argument's vreg lives
		moves int     // register moves and loads before the call
	}{
		{"swap r0 r1", []int64{7, 3}, []int32{inReg(1), inReg(0)}, 3},
		{"3-cycle", []int64{1, 2, 3}, []int32{inReg(1), inReg(2), inReg(0)}, 4},
		{"4-cycle", []int64{4, 3, 2, 1}, []int32{inReg(3), inReg(0), inReg(1), inReg(2)}, 5},
		{"spilled beside a register", []int64{7, 3}, []int32{inSlot(0), inReg(0)}, 2},
		{"spilled, scratch reused", []int64{5, 6, 7}, []int32{inSlot(0), inReg(0), inSlot(1)}, 3},
		{"in place", []int64{8, 9}, []int32{inReg(0), inReg(1)}, 0},
	} {
		// main: materialize the arguments, call, store the result.
		n := len(tc.vals)
		res, addr := vreg(n+1), vreg(n+2)
		loc := append([]int32{0}, tc.loc...)
		loc = append(loc, inReg(5), inReg(6))
		var ins []lins
		args := make([]vreg, n)
		for i, v := range tc.vals {
			args[i] = vreg(i + 1)
			ins = append(ins, lins{op: isa.MOVRI, dst: args[i], imm: v})
		}
		ins = append(ins,
			lins{pseudo: pCall, callee: "combine", args: args, hasRes: true, dst: res},
			lins{op: isa.MOVRI, dst: addr, imm: testData},
			lins{op: isa.STORE64, dst: res, a: addr},
			lins{op: isa.HALT})
		fn, a := handFunc(loc, [][]int{nil}, ins)
		e := newTestEmitter()
		if err := e.emitFunc(fn, a); err != nil {
			t.Fatal(err)
		}
		moves := 0
		for _, in := range e.prog.Code {
			if in.Op == isa.CALL {
				break
			}
			if in.Op == isa.MOVRR || in.Op == isa.LOAD64 {
				moves++
			}
		}
		if moves != tc.moves {
			t.Errorf("%s: %d moves and loads before the call, want %d:\n%s", tc.name, moves, tc.moves, e.prog.Disasm())
		}

		// combine(a0, …) = Σ a_i·10^(n-1-i), compiled from IR; it reads
		// every parameter before it computes.
		m := ir.NewModule()
		b := ir.NewBuilder(m.NewFunc("combine", n))
		params := make([]*ir.Instr, n)
		for i := range params {
			params[i] = b.Param(i)
		}
		acc := params[0]
		for _, p := range params[1:] {
			acc = b.Add(b.Mul(acc, b.Const(10)), p)
		}
		b.Ret(acc)
		cfg := e.cfg
		lo := newLowerer(m, &cfg)
		lf, err := lo.lowerFunc(m.Funcs[0])
		if err != nil {
			t.Fatal(err)
		}
		ca, _, err := allocate(lf, &lo.live, false, 8)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.emitFunc(lf, ca); err != nil {
			t.Fatal(err)
		}
		for _, fix := range e.callFix {
			e.prog.Code[fix.pos].Imm = int64(e.symbols[fix.callee])
		}

		var want int64
		for _, v := range tc.vals {
			want = want*10 + v
		}
		c := vm.New(testHeap)
		c.Load(e.prog)
		if _, err := c.Run(10_000); err != nil {
			t.Fatalf("%s: run: %v\n%s", tc.name, err, e.prog.Disasm())
		}
		if got := c.ReadI64(testData); got != want {
			t.Errorf("%s: combine(%v) = %d, want %d:\n%s", tc.name, tc.vals, got, want, e.prog.Disasm())
		}
	}
}
