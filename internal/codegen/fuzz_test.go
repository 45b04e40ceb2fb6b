package codegen

import (
	"math"
	"testing"

	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/vm"
	"repro/internal/xrand"
)

// exprNode is a host-side mirror of a randomly generated expression.
type exprNode struct {
	op   ir.Op
	l, r *exprNode
	leaf int   // input index when l == nil and isConst == false
	k    int64 // constant value when isConst
	isK  bool
}

// eval computes the expression host-side with the VM's semantics.
func (e *exprNode) eval(inputs []int64) int64 {
	if e.l == nil {
		if e.isK {
			return e.k
		}
		return inputs[e.leaf]
	}
	a, b := e.l.eval(inputs), e.r.eval(inputs)
	switch e.op {
	case ir.OpAdd:
		return a + b
	case ir.OpSub:
		return a - b
	case ir.OpMul:
		return a * b
	case ir.OpAnd:
		return a & b
	case ir.OpOr:
		return a | b
	case ir.OpXor:
		return a ^ b
	case ir.OpShr:
		return int64(uint64(a) >> (uint64(b) & 63))
	case ir.OpSDiv:
		return a / b // generator guarantees b is a non-zero constant
	case ir.OpCmpLt:
		if a < b {
			return 1
		}
		return 0
	case ir.OpCmpEq:
		if a == b {
			return 1
		}
		return 0
	}
	panic("unreachable")
}

// genExpr builds a random expression of bounded depth over nIn inputs.
func genExpr(r *xrand.Rand, depth, nIn int) *exprNode {
	if depth == 0 || r.Intn(4) == 0 {
		if r.Intn(3) == 0 {
			return &exprNode{isK: true, k: r.Int64Range(-1000, 1000)}
		}
		return &exprNode{leaf: r.Intn(nIn)}
	}
	ops := []ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor,
		ir.OpShr, ir.OpSDiv, ir.OpCmpLt, ir.OpCmpEq}
	op := ops[r.Intn(len(ops))]
	n := &exprNode{op: op, l: genExpr(r, depth-1, nIn)}
	if op == ir.OpSDiv {
		// Keep division safe: non-zero constant divisor.
		d := r.Int64Range(1, 50)
		if r.Intn(2) == 0 {
			d = -d
		}
		n.r = &exprNode{isK: true, k: d}
	} else if op == ir.OpShr {
		n.r = &exprNode{isK: true, k: r.Int64Range(0, 63)}
	} else {
		n.r = genExpr(r, depth-1, nIn)
	}
	return n
}

// lower emits the expression as IR.
func lower(b *ir.Builder, e *exprNode, inputs []*ir.Instr) *ir.Instr {
	if e.l == nil {
		if e.isK {
			return b.Const(e.k)
		}
		return inputs[e.leaf]
	}
	l := lower(b, e.l, inputs)
	r := lower(b, e.r, inputs)
	return b.Bin(e.op, l, r)
}

// TestRandomExpressionsCompileCorrectly is the backend's end-to-end fuzz:
// random expression trees are compiled through LIR, register allocation
// and emission, executed on the VM, and compared against host evaluation.
// High depth forces spilling; the branchy ISA paths (fused compares) are
// exercised through CmpLt/CmpEq appearing as interior nodes.
func TestRandomExpressionsCompileCorrectly(t *testing.T) {
	r := xrand.New(0xfade)
	const (
		nIn   = 6
		inAt  = int64(4096)
		outAt = int64(8192)
	)
	for trial := 0; trial < 300; trial++ {
		depth := 2 + r.Intn(5)
		e := genExpr(r, depth, nIn)

		m := ir.NewModule()
		f := m.NewFunc("main", 0)
		b := ir.NewBuilder(f)
		inputs := make([]*ir.Instr, nIn)
		vals := make([]int64, nIn)
		for i := range inputs {
			inputs[i] = b.Load(64, b.Const(inAt+int64(i)*8))
			vals[i] = r.Int64Range(-1_000_000, 1_000_000)
		}
		res := lower(b, e, inputs)
		b.Store(64, b.Const(outAt), res)
		b.Halt()
		if err := m.Verify(); err != nil {
			t.Fatalf("trial %d: verify: %v", trial, err)
		}

		for _, tagging := range []bool{false, true} {
			cfg := DefaultConfig(0, testSpill, testSpillSz)
			cfg.RegisterTagging = tagging
			out, err := Compile(m, cfg)
			if err != nil {
				t.Fatalf("trial %d: compile: %v", trial, err)
			}
			c := vm.New(1 << 16)
			for i, v := range vals {
				c.WriteI64(inAt+int64(i)*8, v)
			}
			c.Load(out.Program)
			if _, err := c.Run(1_000_000); err != nil {
				t.Fatalf("trial %d: run: %v", trial, err)
			}
			want := e.eval(vals)
			if got := c.ReadI64(outAt); got != want {
				t.Fatalf("trial %d (tagging=%v): got %d, want %d", trial, tagging, got, want)
			}
		}
	}
}

// TestRandomBranchTrees compiles random comparison trees used as branch
// conditions (exercising the fused compare-and-branch paths both taken
// and not taken).
func TestRandomBranchTrees(t *testing.T) {
	r := xrand.New(0xbeef)
	const (
		inAt  = int64(4096)
		outAt = int64(8192)
	)
	for trial := 0; trial < 200; trial++ {
		a := r.Int64Range(-100, 100)
		bv := r.Int64Range(-100, 100)
		ops := []ir.Op{ir.OpCmpEq, ir.OpCmpNe, ir.OpCmpLt, ir.OpCmpLe, ir.OpCmpGt, ir.OpCmpGe}
		op := ops[r.Intn(len(ops))]

		m := ir.NewModule()
		f := m.NewFunc("main", 0)
		b := ir.NewBuilder(f)
		then := b.NewBlock("then")
		els := b.NewBlock("els")
		x := b.Load(64, b.Const(inAt))
		y := b.Load(64, b.Const(inAt+8))
		cond := b.Bin(op, x, y)
		b.CondBr(cond, then, els)
		b.SetBlock(then)
		b.Store(64, b.Const(outAt), b.Const(1))
		b.Halt()
		b.SetBlock(els)
		b.Store(64, b.Const(outAt), b.Const(2))
		b.Halt()

		out, err := Compile(m, DefaultConfig(0, testSpill, testSpillSz))
		if err != nil {
			t.Fatal(err)
		}
		c := vm.New(1 << 16)
		c.WriteI64(inAt, a)
		c.WriteI64(inAt+8, bv)
		c.Load(out.Program)
		if _, err := c.Run(1000); err != nil {
			t.Fatal(err)
		}
		var truth bool
		switch op {
		case ir.OpCmpEq:
			truth = a == bv
		case ir.OpCmpNe:
			truth = a != bv
		case ir.OpCmpLt:
			truth = a < bv
		case ir.OpCmpLe:
			truth = a <= bv
		case ir.OpCmpGt:
			truth = a > bv
		case ir.OpCmpGe:
			truth = a >= bv
		}
		want := int64(2)
		if truth {
			want = 1
		}
		if got := c.ReadI64(outAt); got != want {
			t.Fatalf("trial %d: %v(%d,%d) took branch %d, want %d", trial, op, a, bv, got, want)
		}
	}
}

// TestConstantOperandBranches: a fused compare-and-branch with a constant
// on either side takes the branch exactly when the comparison holds — at
// the constant, next to it and at both ends of int64 — and the constant
// is an immediate, never a register, except where the branch compares c
// < x or c >= x (x > c and x <= c too) at c = MaxInt64: there is no c+1,
// and the register form stays.
func TestConstantOperandBranches(t *testing.T) {
	const inAt, outAt = int64(4096), int64(8192)
	ops := []ir.Op{ir.OpCmpEq, ir.OpCmpNe, ir.OpCmpLt, ir.OpCmpLe, ir.OpCmpGt, ir.OpCmpGe}
	holds := func(op ir.Op, a, b int64) bool {
		switch op {
		case ir.OpCmpEq:
			return a == b
		case ir.OpCmpNe:
			return a != b
		case ir.OpCmpLt:
			return a < b
		case ir.OpCmpLe:
			return a <= b
		case ir.OpCmpGt:
			return a > b
		}
		return a >= b
	}
	for _, op := range ops {
		for _, c := range []int64{math.MinInt64, -7, 0, 41, math.MaxInt64} {
			for _, constLeft := range []bool{false, true} {
				m := ir.NewModule()
				b := ir.NewBuilder(m.NewFunc("main", 0))
				then, els := b.NewBlock("then"), b.NewBlock("els")
				x := b.Load(64, b.Const(inAt))
				k := b.Const(c)
				cond := b.Bin(op, x, k)
				if constLeft {
					cond = b.Bin(op, k, x)
				}
				b.CondBr(cond, then, els)
				b.SetBlock(then)
				b.Store(64, b.Const(outAt), b.Const(1))
				b.Halt()
				b.SetBlock(els)
				b.Store(64, b.Const(outAt), b.Const(2))
				b.Halt()
				res, err := Compile(m, DefaultConfig(0, testSpill, testSpillSz))
				if err != nil {
					t.Fatal(err)
				}
				// x <= c and x > c branch as c >= x and c < x.
				lessOrAtLeast := op == ir.OpCmpLt || op == ir.OpCmpGe
				register := c == math.MaxInt64 && lessOrAtLeast == constLeft && op != ir.OpCmpEq && op != ir.OpCmpNe
				for _, in := range res.Program.Code {
					if in.Op == isa.MOVRI && in.Imm == c && !register {
						t.Errorf("%v(const first %v) at c=%d materializes the constant:\n%s", op, constLeft, c, res.Program.Disasm())
					}
				}
				for _, v := range []int64{math.MinInt64, c - 1, c, c + 1, math.MaxInt64} {
					vm := vm.New(1 << 16)
					vm.WriteI64(inAt, v)
					vm.Load(res.Program)
					if _, err := vm.Run(1000); err != nil {
						t.Fatal(err)
					}
					a, bv := v, c
					if constLeft {
						a, bv = c, v
					}
					want := int64(2)
					if holds(op, a, bv) {
						want = 1
					}
					if got := vm.ReadI64(outAt); got != want {
						t.Errorf("%v(%d, %d) took branch %d, want %d:\n%s", op, a, bv, got, want, res.Program.Disasm())
					}
				}
			}
		}
	}
}
