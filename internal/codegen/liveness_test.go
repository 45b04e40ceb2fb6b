package codegen

import (
	"fmt"
	"testing"

	"repro/internal/isa"
	"repro/internal/xrand"
)

// lirFromBytes builds one LIR function whose shape the input picks: up to
// 8 blocks over up to 40 vregs (0, "no register", included), every
// operand form operands() distinguishes, and arbitrary successor edges —
// loops, self-loops, blocks nothing reaches, uses no block defines.
func lirFromBytes(data []byte) *lfunc {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		v := int(data[0])
		data = data[1:]
		return v
	}
	nb := 1 + next()%8
	nv := 1 + next()%40
	fn := &lfunc{name: "f", nvreg: vreg(nv)}
	v := func() vreg { return vreg(next() % (nv + 1)) }
	for bi := 0; bi < nb; bi++ {
		lb := &lblock{name: fmt.Sprintf("b%d", bi)}
		for k := next() % 6; k > 0; k-- {
			var l lins
			switch next() % 9 {
			case 0:
				l = lins{op: isa.MOVRI, dst: v(), tagWrite: next()%4 == 0}
			case 1:
				l = lins{op: isa.MOVRR, dst: v(), a: v(), tagWrite: next()%5 == 0, tagRead: next()%5 == 0}
			case 2:
				l = lins{op: isa.ADD, dst: v(), a: v(), b: v(), useImm: next()%2 == 0}
			case 3:
				l = lins{op: isa.LOAD64, dst: v(), a: v(), b: v(), scaled: next()%2 == 0}
			case 4:
				l = lins{op: isa.STORE32, dst: v(), a: v()}
			case 5:
				l = lins{pseudo: pCall, callee: SymMemset64, dst: v(), hasRes: next()%2 == 0}
				for n := next() % 5; n > 0; n-- {
					l.args = append(l.args, v())
				}
			case 6:
				l = lins{pseudo: pParam, dst: v()}
			case 7:
				l = lins{pseudo: pRetVal, a: v()}
			case 8:
				l = lins{op: isa.CMPLT, dst: v(), a: v(), b: v()}
			}
			lb.ins = append(lb.ins, l)
		}
		switch next() % 4 {
		case 0:
			lb.ins = append(lb.ins, lins{op: isa.HALT})
		case 1:
			t := next() % nb
			lb.succs = []int{t}
			lb.ins = append(lb.ins, lins{op: isa.JMP, tgt: t})
		case 2:
			t, e := next()%nb, next()%nb
			lb.succs = []int{t, e}
			lb.ins = append(lb.ins, lins{op: isa.JNZ, a: v(), tgt: t, tgt2: e}, lins{op: isa.JMP, tgt: e})
		case 3:
			t, e := next()%nb, next()%nb
			lb.succs = []int{t, e}
			lb.ins = append(lb.ins, lins{op: isa.JEQ, a: v(), b: v(), useImm: next()%2 == 0, tgt: t, tgt2: e},
				lins{op: isa.JMP, tgt: e})
		}
		fn.blocks = append(fn.blocks, lb)
	}
	return fn
}

// FuzzLiveness: on random LIR the bit-matrix liveness fixpoint and the
// non-allocating operands() agree with the map-based oracle in
// reference_test.go, and so does every copy coalescing merges.
func FuzzLiveness(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 3, 2, 2, 1, 2, 0, 1, 0})                         // one block looping on itself
	f.Add([]byte{3, 9, 1, 0, 1, 0, 2, 1, 2, 2, 1, 3, 0, 3, 2, 1, 0}) // a use reaching over a back edge
	f.Add([]byte{4, 39, 5, 5, 3, 1, 4, 9, 9, 9, 9, 3, 1, 2, 0, 3, 2, 1, 7, 5, 0, 0, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := diffLiveness(lirFromBytes(data)); err != nil {
			t.Fatal(err)
		}
		if err := diffCoalesce(lirFromBytes(data)); err != nil {
			t.Fatal(err)
		}
	})
}

// TestLivenessMatchesReference walks a deterministic spread of generated
// LIR (the fuzz target's generator, driven by a counter), and coalesces
// each one against the oracle too.
func TestLivenessMatchesReference(t *testing.T) {
	r := xrand.New(19)
	merged := 0
	for i := 0; i < 3000; i++ {
		data := make([]byte, 160)
		for k := range data {
			data[k] = byte(r.Intn(256))
		}
		if err := diffLiveness(lirFromBytes(data)); err != nil {
			t.Fatalf("lir %d: %v", i, err)
		}
		fn := lirFromBytes(data)
		before := countCopies(fn)
		if err := diffCoalesce(fn); err != nil {
			t.Fatalf("lir %d: %v", i, err)
		}
		merged += before - countCopies(fn)
	}
	if merged == 0 {
		t.Fatal("coalescing deleted no copy of the generated LIR")
	}
	t.Logf("%d copies deleted", merged)
}

// countCopies counts fn's register copies.
func countCopies(fn *lfunc) int {
	n := 0
	for _, b := range fn.blocks {
		for i := range b.ins {
			if b.ins[i].isCopy() {
				n++
			}
		}
	}
	return n
}

// TestOperandsDoesNotAllocate pins what the rewrite was for.
func TestOperandsDoesNotAllocate(t *testing.T) {
	fn := lirFromBytes([]byte{4, 39, 5, 5, 3, 1, 4, 9, 9, 9, 9, 3, 1, 2, 0, 3, 2, 1, 7, 5, 0, 0, 1, 2})
	var buf [2]vreg
	n := testing.AllocsPerRun(100, func() {
		for _, b := range fn.blocks {
			for i := range b.ins {
				b.ins[i].operands(&buf)
			}
		}
	})
	if n != 0 {
		t.Fatalf("operands allocates: %v allocations per sweep", n)
	}
}
