package codegen

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/vm"
)

// buildPressureLoop creates a loop with `hot` values used every iteration
// plus `cold` values defined before the loop and used only after it — the
// shape where spill-choice quality matters.
func buildPressureLoop(hot, cold int) *ir.Module {
	m := ir.NewModule()
	f := m.NewFunc("main", 0)
	b := ir.NewBuilder(f)
	head := b.NewBlock("head")
	body := b.NewBlock("body")
	done := b.NewBlock("done")
	head.Freq, body.Freq = 1000, 1000 // the trip count, as a plan would estimate it

	var colds []*ir.Instr
	for i := 0; i < cold; i++ {
		colds = append(colds, b.Load(64, b.Const(int64(4096+i*8))))
	}
	var hots []*ir.Instr
	for i := 0; i < hot; i++ {
		hots = append(hots, b.Load(64, b.Const(int64(6144+i*8))))
	}
	zero := b.Const(0)
	n := b.Const(1000)
	b.Br(head)

	b.SetBlock(head)
	iv := b.Phi()
	acc := b.Phi()
	ir.AddIncoming(iv, zero)
	ir.AddIncoming(acc, zero)
	cond := b.Bin(ir.OpCmpLt, iv, n)
	b.CondBr(cond, body, done)

	b.SetBlock(body)
	sum := acc
	for _, h := range hots {
		sum = b.Add(sum, h)
	}
	i2 := b.Add(iv, b.Const(1))
	ir.AddIncoming(iv, i2)
	ir.AddIncoming(acc, sum)
	b.Br(head)

	b.SetBlock(done)
	out := sum
	for _, c := range colds {
		out = b.Add(out, c)
	}
	b.Store(64, b.Const(8192), out)
	b.Halt()
	return m
}

// TestSpillChoicePrefersColdValues: with more live values than registers,
// the allocator must spill the loop-cold values, keeping the per-iteration
// cost near the no-pressure baseline.
func TestSpillChoicePrefersColdValues(t *testing.T) {
	run := func(hot, cold int) uint64 {
		m := buildPressureLoop(hot, cold)
		res, err := Compile(m, DefaultConfig(0, testSpill, testSpillSz))
		if err != nil {
			t.Fatal(err)
		}
		c := vm.New(1 << 16)
		c.Load(res.Program)
		if _, err := c.Run(0); err != nil {
			t.Fatal(err)
		}
		return c.Stats.Cycles
	}
	base := run(6, 0)       // fits comfortably
	pressured := run(6, 10) // 10 extra cold values force spills
	// The cold values are touched once; a loop-blind allocator would
	// instead spill hot loop values and pay per iteration.
	overhead := float64(pressured)/float64(base) - 1
	if overhead > 0.15 {
		t.Fatalf("cold pressure cost %.1f%% per run; spill choice is evicting hot values", 100*overhead)
	}
}

// TestPressureLoopCorrectness verifies results under heavy pressure with
// and without the reserved tag register.
func TestPressureLoopCorrectness(t *testing.T) {
	for _, tagging := range []bool{false, true} {
		m := buildPressureLoop(8, 12)
		cfg := DefaultConfig(0, testSpill, testSpillSz)
		cfg.RegisterTagging = tagging
		res, err := Compile(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := vm.New(1 << 16)
		for i := 0; i < 12; i++ {
			c.WriteI64(int64(4096+i*8), 1) // cold values
		}
		for i := 0; i < 8; i++ {
			c.WriteI64(int64(6144+i*8), 2) // hot values
		}
		c.Load(res.Program)
		if _, err := c.Run(0); err != nil {
			t.Fatal(err)
		}
		want := int64(1000*8*2 + 12)
		if got := c.ReadI64(8192); got != want {
			t.Fatalf("tagging=%v: result = %d, want %d", tagging, got, want)
		}
	}
}

// TestReservedRegisterIncreasesSpills: the §6.2 mechanism at allocator
// granularity.
func TestReservedRegisterIncreasesSpills(t *testing.T) {
	m := buildPressureLoop(12, 4)
	free, err := Compile(m, DefaultConfig(0, testSpill, testSpillSz))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(0, testSpill, testSpillSz)
	cfg.RegisterTagging = true
	reserved, err := Compile(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reserved.Spills < free.Spills {
		t.Fatalf("reserving a register reduced spills (%d -> %d)?", free.Spills, reserved.Spills)
	}
}

// TestAllocatableRegisters checks the register sets.
func TestAllocatableRegisters(t *testing.T) {
	free := allocatableRegs(false)
	tagged := allocatableRegs(true)
	if len(free) != len(tagged)+1 {
		t.Fatalf("reservation should remove exactly one register: %d vs %d", len(free), len(tagged))
	}
	for _, r := range tagged {
		if r == isa.TagReg {
			t.Fatal("tag register allocatable despite reservation")
		}
		if r == scratchA || r == scratchB {
			t.Fatal("scratch register allocatable")
		}
	}
}
