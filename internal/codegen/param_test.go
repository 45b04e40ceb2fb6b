package codegen

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/vm"
)

// TestFunctionParameters exercises the OpParam lowering: main passes
// arguments in r0..r3 to a callee that combines them.
func TestFunctionParameters(t *testing.T) {
	m := ir.NewModule()

	callee := m.NewFunc("combine", 2)
	cb := ir.NewBuilder(callee)
	a := cb.Param(0)
	b := cb.Param(1)
	cb.Ret(cb.Add(cb.Mul(a, cb.Const(10)), b))

	mainFn := m.NewFunc("main", 0)
	mb := ir.NewBuilder(mainFn)
	res := mb.Call("combine", true, mb.Const(7), mb.Const(3))
	mb.Store(64, mb.Const(testData), res)
	mb.Halt()

	c := compileAndRun(t, m, nil)
	if got := c.ReadI64(testData); got != 73 {
		t.Fatalf("combine(7,3) = %d, want 73", got)
	}
}

// TestParamOutOfRangeRejected: parameters beyond the argument registers
// must fail at compile time.
func TestParamOutOfRangeRejected(t *testing.T) {
	m := ir.NewModule()
	f := m.NewFunc("main", 5)
	b := ir.NewBuilder(f)
	p := b.Param(4) // only r0..r3 carry arguments
	b.Store(64, b.Const(testData), p)
	b.Halt()
	if _, err := Compile(m, DefaultConfig(0, testSpill, testSpillSz)); err == nil {
		t.Fatal("expected error for parameter 4")
	}
}

// TestLoadCostLevels: the cycle charge of a load reflects the serving
// cache level.
func TestLoadCostLevels(t *testing.T) {
	// Two loads of the same address: first from DRAM, second from L1.
	m := ir.NewModule()
	f := m.NewFunc("main", 0)
	b := ir.NewBuilder(f)
	addr := b.Const(testData)
	b.Load(64, addr)
	b.Load(64, addr)
	b.Halt()
	res, err := Compile(m, DefaultConfig(0, testSpill, testSpillSz))
	if err != nil {
		t.Fatal(err)
	}
	c := vm.New(testHeap)
	c.Load(res.Program)
	if _, err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	if c.Stats.MemAccesses != 1 || c.Stats.L1Hits != 1 {
		t.Fatalf("cache classification: %+v", c.Stats)
	}
	// load(DRAM 180) + load(L1 4) + halt: a constant address is absolute.
	want := uint64(vm.CostLoadMem + vm.CostLoadL1 + 1)
	if c.Stats.Cycles != want {
		t.Fatalf("cycles = %d, want %d", c.Stats.Cycles, want)
	}
}
