package codegen

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/vm"
)

// TestPhiSwapCycle builds a loop whose phis exchange values every
// iteration — the classic parallel-move cycle that requires a temporary
// (the "swap problem"). Correct codegen must not let one move clobber the
// other's source.
func TestPhiSwapCycle(t *testing.T) {
	for _, iters := range []int64{0, 1, 2, 5, 6} {
		m := ir.NewModule()
		f := m.NewFunc("main", 0)
		b := ir.NewBuilder(f)
		head := b.NewBlock("head")
		body := b.NewBlock("body")
		done := b.NewBlock("done")

		one := b.Const(1)
		two := b.Const(2)
		zero := b.Const(0)
		n := b.Const(iters)
		b.Br(head)

		b.SetBlock(head)
		a := b.Phi()
		bb := b.Phi()
		i := b.Phi()
		ir.AddIncoming(a, one)
		ir.AddIncoming(bb, two)
		ir.AddIncoming(i, zero)
		cond := b.Bin(ir.OpCmpLt, i, n)
		b.CondBr(cond, body, done)

		b.SetBlock(body)
		i2 := b.Add(i, b.Const(1))
		// Swap: next a = current b, next b = current a.
		ir.AddIncoming(a, bb)
		ir.AddIncoming(bb, a)
		ir.AddIncoming(i, i2)
		b.Br(head)

		b.SetBlock(done)
		b.Store(64, b.Const(testData), a)
		b.Store(64, b.Const(testData+8), bb)
		b.Halt()

		c := compileAndRun(t, m, nil)
		wantA, wantB := int64(1), int64(2)
		if iters%2 == 1 {
			wantA, wantB = 2, 1
		}
		if got := c.ReadI64(testData); got != wantA {
			t.Fatalf("iters=%d: a = %d, want %d", iters, got, wantA)
		}
		if got := c.ReadI64(testData + 8); got != wantB {
			t.Fatalf("iters=%d: b = %d, want %d", iters, got, wantB)
		}
	}
}

// TestPhiThreeCycle rotates three values through phis (a→b→c→a), a longer
// parallel-move cycle.
func TestPhiThreeCycle(t *testing.T) {
	m := ir.NewModule()
	f := m.NewFunc("main", 0)
	b := ir.NewBuilder(f)
	head := b.NewBlock("head")
	body := b.NewBlock("body")
	done := b.NewBlock("done")

	c1, c2, c3 := b.Const(10), b.Const(20), b.Const(30)
	zero, n := b.Const(0), b.Const(4)
	b.Br(head)

	b.SetBlock(head)
	a := b.Phi()
	bb := b.Phi()
	cc := b.Phi()
	i := b.Phi()
	ir.AddIncoming(a, c1)
	ir.AddIncoming(bb, c2)
	ir.AddIncoming(cc, c3)
	ir.AddIncoming(i, zero)
	cond := b.Bin(ir.OpCmpLt, i, n)
	b.CondBr(cond, body, done)

	b.SetBlock(body)
	i2 := b.Add(i, b.Const(1))
	// Rotate: a←b, b←c, c←a.
	ir.AddIncoming(a, bb)
	ir.AddIncoming(bb, cc)
	ir.AddIncoming(cc, a)
	ir.AddIncoming(i, i2)
	b.Br(head)

	b.SetBlock(done)
	b.Store(64, b.Const(testData), a)
	b.Store(64, b.Const(testData+8), bb)
	b.Store(64, b.Const(testData+16), cc)
	b.Halt()

	c := compileAndRun(t, m, nil)
	// After 4 rotations of period 3: shifted by 4 % 3 = 1.
	if got := c.ReadI64(testData); got != 20 {
		t.Fatalf("a = %d, want 20", got)
	}
	if got := c.ReadI64(testData + 8); got != 30 {
		t.Fatalf("b = %d, want 30", got)
	}
	if got := c.ReadI64(testData + 16); got != 10 {
		t.Fatalf("c = %d, want 10", got)
	}
}

// TestCriticalEdgeSplitting: a conditional branch targets a phi block, so
// the phi copies must execute on that edge only — the other path's value
// must stay intact.
func TestCriticalEdgeSplitting(t *testing.T) {
	for _, takeLoop := range []bool{false, true} {
		m := ir.NewModule()
		f := m.NewFunc("main", 0)
		b := ir.NewBuilder(f)
		head := b.NewBlock("head")
		out := b.NewBlock("out")

		c := b.Load(64, b.Const(testData)) // iteration count
		h0 := b.Const(100)
		b.Br(head)

		b.SetBlock(head)
		// head has preds {entry, head}: the self-loop edge comes from a
		// conditional branch (2 successors) → critical edge.
		acc := b.Phi()
		i := b.Phi()
		ir.AddIncoming(acc, h0)
		ir.AddIncoming(i, b.Const(0)) // materialized in entry? No: Const emits in head... see below.
		_ = i
		// Rebuild properly: constants created in head would break
		// dominance for entry-incoming values, so use h0-style entry
		// constants only. Overwrite the bad incoming:
		i.Args[0] = c // borrow the load (entry block) as initial i... then count down to 0
		acc2 := b.Add(acc, acc)
		i2 := b.Sub(i, b.Const(1))
		cond := b.Bin(ir.OpCmpGt, i2, b.Const(0))
		ir.AddIncoming(acc, acc2)
		ir.AddIncoming(i, i2)
		b.CondBr(cond, head, out)

		b.SetBlock(out)
		b.Store(64, b.Const(testData+8), acc2)
		b.Halt()

		n := int64(1)
		if takeLoop {
			n = 4
		}
		cpu := compileAndRun(t, m, func(cpu *vm.CPU) {
			cpu.WriteI64(testData, n)
		})
		want := int64(100)
		for k := int64(0); k < n; k++ {
			want *= 2
		}
		if got := cpu.ReadI64(testData + 8); got != want {
			t.Fatalf("takeLoop=%v: acc = %d, want %d", takeLoop, got, want)
		}
	}
}

// TestCallClobberedRegisters: a value live across a runtime call must
// survive (the callee clobbers r0..r4).
func TestCallClobberedRegisters(t *testing.T) {
	m := ir.NewModule()
	f := m.NewFunc("main", 0)
	b := ir.NewBuilder(f)
	// allocator descriptor for bumpalloc
	const desc = int64(testData + 512)
	live := b.Load(64, b.Const(testData)) // value that must survive the call
	p1 := b.Call(SymBumpAlloc, true, b.Const(desc), b.Const(16))
	p2 := b.Call(SymBumpAlloc, true, b.Const(desc), b.Const(16))
	diff := b.Sub(p2, p1)
	sum := b.Add(live, diff)
	b.Store(64, b.Const(testData+8), sum)
	b.Halt()

	c := compileAndRun(t, m, func(c *vm.CPU) {
		c.WriteI64(testData, 1000)
		c.WriteI64(desc+AllocDescCursor, testData+1024)
		c.WriteI64(desc+AllocDescEnd, testData+4096)
	})
	if got := c.ReadI64(testData + 8); got != 1016 {
		t.Fatalf("live value corrupted across calls: %d, want 1016", got)
	}
}

// TestSpillCapEnforced: exceeding the spill region must be a compile
// error, not silent corruption.
func TestSpillCapEnforced(t *testing.T) {
	m := ir.NewModule()
	f := m.NewFunc("main", 0)
	b := ir.NewBuilder(f)
	var vals []*ir.Instr
	for i := 0; i < 64; i++ {
		vals = append(vals, b.Load(64, b.Const(testData+int64(i)*8)))
	}
	acc := vals[0]
	for _, v := range vals[1:] {
		acc = b.Add(acc, v)
	}
	b.Store(64, b.Const(testData), acc)
	b.Halt()
	cfg := DefaultConfig(0, testSpill, 64) // 8 slots only
	if _, err := Compile(m, cfg); err == nil {
		t.Fatal("expected spill-cap error")
	}
}

// TestMissingMainRejected and undefined symbols.
func TestCompileErrors(t *testing.T) {
	m := ir.NewModule()
	f := m.NewFunc("notmain", 0)
	b := ir.NewBuilder(f)
	b.Ret(nil)
	if _, err := Compile(m, DefaultConfig(0, testSpill, testSpillSz)); err == nil {
		t.Fatal("missing main accepted")
	}

	m2 := ir.NewModule()
	f2 := m2.NewFunc("main", 0)
	b2 := ir.NewBuilder(f2)
	b2.Call("no_such_symbol", false)
	b2.Halt()
	if _, err := Compile(m2, DefaultConfig(0, testSpill, testSpillSz)); err == nil {
		t.Fatal("undefined symbol accepted")
	}
}

// TestMemset64Routine drives the kernel runtime routine directly.
func TestMemset64Routine(t *testing.T) {
	m := ir.NewModule()
	f := m.NewFunc("main", 0)
	b := ir.NewBuilder(f)
	b.Call(SymMemset64, false, b.Const(testData), b.Const(7), b.Const(64))
	b.Halt()
	c := compileAndRun(t, m, func(c *vm.CPU) {
		for i := int64(0); i < 10; i++ {
			c.WriteI64(testData+i*8, -1)
		}
	})
	for i := int64(0); i < 8; i++ {
		if got := c.ReadI64(testData + i*8); got != 7 {
			t.Fatalf("word %d = %d, want 7", i, got)
		}
	}
	// One past the cleared region must be untouched.
	if got := c.ReadI64(testData + 64); got != -1 {
		t.Fatalf("memset overran: %d", got)
	}
}

// TestBumpAllocExhaustionTraps: the allocator must trap when full.
func TestBumpAllocExhaustionTraps(t *testing.T) {
	m := ir.NewModule()
	f := m.NewFunc("main", 0)
	b := ir.NewBuilder(f)
	const desc = int64(testData)
	b.Call(SymBumpAlloc, true, b.Const(desc), b.Const(64))
	b.Call(SymBumpAlloc, true, b.Const(desc), b.Const(64))
	b.Halt()
	res, err := Compile(m, DefaultConfig(0, testSpill, testSpillSz))
	if err != nil {
		t.Fatal(err)
	}
	c := vm.New(testHeap)
	c.WriteI64(desc+AllocDescCursor, testData+64)
	c.WriteI64(desc+AllocDescEnd, testData+64+96) // room for one 64-byte block only
	c.Load(res.Program)
	if _, err := c.Run(1000); err == nil {
		t.Fatal("expected arena-full trap")
	}
}
