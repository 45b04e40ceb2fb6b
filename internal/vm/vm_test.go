package vm

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

// run executes code on a fresh CPU and returns it.
func run(t *testing.T, code []isa.Instr, setup func(*CPU)) *CPU {
	t.Helper()
	c := New(1 << 16)
	if setup != nil {
		setup(c)
	}
	c.Load(&isa.Program{Code: code})
	if _, err := c.Run(1_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	return c
}

// TestALUSemantics cross-checks every binary operator against native Go
// semantics with random operands.
func TestALUSemantics(t *testing.T) {
	type golden func(a, b int64) int64
	cases := []struct {
		op   isa.Op
		want golden
		skip func(a, b int64) bool
	}{
		{isa.ADD, func(a, b int64) int64 { return a + b }, nil},
		{isa.SUB, func(a, b int64) int64 { return a - b }, nil},
		{isa.MUL, func(a, b int64) int64 { return a * b }, nil},
		{isa.DIV, func(a, b int64) int64 { return a / b }, func(a, b int64) bool { return b == 0 }},
		{isa.MOD, func(a, b int64) int64 { return a % b }, func(a, b int64) bool { return b == 0 }},
		{isa.AND, func(a, b int64) int64 { return a & b }, nil},
		{isa.OR, func(a, b int64) int64 { return a | b }, nil},
		{isa.XOR, func(a, b int64) int64 { return a ^ b }, nil},
		{isa.SHL, func(a, b int64) int64 { return a << (uint64(b) & 63) }, nil},
		{isa.SHR, func(a, b int64) int64 { return int64(uint64(a) >> (uint64(b) & 63)) }, nil},
		{isa.CMPEQ, func(a, b int64) int64 { return b2i(a == b) }, nil},
		{isa.CMPNE, func(a, b int64) int64 { return b2i(a != b) }, nil},
		{isa.CMPLT, func(a, b int64) int64 { return b2i(a < b) }, nil},
		{isa.CMPLE, func(a, b int64) int64 { return b2i(a <= b) }, nil},
		{isa.CMPGT, func(a, b int64) int64 { return b2i(a > b) }, nil},
		{isa.CMPGE, func(a, b int64) int64 { return b2i(a >= b) }, nil},
	}
	for _, c := range cases {
		c := c
		f := func(a, b int64) bool {
			if c.skip != nil && c.skip(a, b) {
				return true
			}
			cpu2 := New(1 << 12)
			cpu2.Load(&isa.Program{Code: []isa.Instr{
				{Op: c.op, Dst: 2, Src1: 0, Src2: 1},
				{Op: isa.HALT},
			}})
			cpu2.Regs[0], cpu2.Regs[1] = a, b
			if _, err := cpu2.Run(10); err != nil {
				return false
			}
			return cpu2.Regs[2] == c.want(a, b)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%v: %v", c.op, err)
		}
	}
}

// TestRotr checks the rotate's wraparound identity.
func TestRotr(t *testing.T) {
	if err := quick.Check(func(a int64, s uint8) bool {
		cpu := New(1 << 12)
		cpu.Load(&isa.Program{Code: []isa.Instr{
			{Op: isa.ROTR, Dst: 2, Src1: 0, Src2: 1},
			{Op: isa.HALT},
		}})
		cpu.Regs[0], cpu.Regs[1] = a, int64(s)
		if _, err := cpu.Run(10); err != nil {
			return false
		}
		sh := uint64(s) & 63
		want := int64(uint64(a)>>sh | uint64(a)<<(64-sh))
		return cpu.Regs[2] == want
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDivByZeroTraps(t *testing.T) {
	c := New(1 << 12)
	c.Load(&isa.Program{Code: []isa.Instr{
		{Op: isa.DIV, Dst: 0, Src1: 0, Src2: 1},
		{Op: isa.HALT},
	}})
	_, err := c.Run(10)
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("err = %v", err)
	}
}

func TestMemoryBoundsTrap(t *testing.T) {
	for _, in := range []isa.Instr{
		{Op: isa.LOAD64, Dst: 0, Abs: true, Imm: 1 << 30},
		{Op: isa.STORE64, Dst: 0, Abs: true, Imm: -8},
		{Op: isa.LOAD8, Dst: 0, Abs: true, Imm: int64(1<<12) - 0},  // one past end
		{Op: isa.LOAD16, Dst: 0, Abs: true, Imm: int64(1<<12) - 1}, // straddles the end
	} {
		c := New(1 << 12)
		c.Load(&isa.Program{Code: []isa.Instr{in, {Op: isa.HALT}}})
		if _, err := c.Run(10); err == nil {
			t.Errorf("%s: expected bounds trap", in.String())
		}
	}
}

func TestLoadStoreWidths(t *testing.T) {
	c := run(t, []isa.Instr{
		{Op: isa.MOVRI, Dst: 0, Imm: -2}, // 0xfffe... pattern
		{Op: isa.STORE64, Dst: 0, Abs: true, Imm: 256},
		{Op: isa.LOAD8, Dst: 1, Abs: true, Imm: 256},  // 0xfe = 254 unsigned
		{Op: isa.LOAD32, Dst: 2, Abs: true, Imm: 256}, // sign-extended
		{Op: isa.LOAD64, Dst: 3, Abs: true, Imm: 256},
		{Op: isa.LOAD16, Dst: 4, Abs: true, Imm: 256}, // 0xfffe = 65534 unsigned
		{Op: isa.HALT},
	}, nil)
	if c.Regs[1] != 254 {
		t.Errorf("LOAD8 = %d, want 254 (zero-extended)", c.Regs[1])
	}
	if c.Regs[2] != -2 {
		t.Errorf("LOAD32 = %d, want -2 (sign-extended)", c.Regs[2])
	}
	if c.Regs[3] != -2 {
		t.Errorf("LOAD64 = %d, want -2", c.Regs[3])
	}
	if c.Regs[4] != 65534 {
		t.Errorf("LOAD16 = %d, want 65534 (zero-extended)", c.Regs[4])
	}
}

func TestScaledAddressing(t *testing.T) {
	c := run(t, []isa.Instr{
		{Op: isa.MOVRI, Dst: 1, Imm: 256}, // base
		{Op: isa.MOVRI, Dst: 2, Imm: 3},   // index
		{Op: isa.MOVRI, Dst: 0, Imm: 77},
		{Op: isa.STORE64, Dst: 0, Src1: 1, Src2: 2, Scaled: true},
		{Op: isa.LOAD64, Dst: 3, Abs: true, Imm: 256 + 24},
		{Op: isa.HALT},
	}, nil)
	if c.Regs[3] != 77 {
		t.Fatalf("scaled store landed wrong: %d", c.Regs[3])
	}
}

func TestCallRet(t *testing.T) {
	c := run(t, []isa.Instr{
		{Op: isa.CALL, Imm: 3},          // 0
		{Op: isa.HALT},                  // 1
		{Op: isa.NOP},                   // 2 (never)
		{Op: isa.MOVRI, Dst: 5, Imm: 9}, // 3
		{Op: isa.RET},                   // 4
	}, nil)
	if c.Regs[5] != 9 {
		t.Fatal("call target did not execute")
	}
	if c.Stats.Calls != 1 {
		t.Fatalf("calls = %d", c.Stats.Calls)
	}
}

func TestRetWithEmptyStackTraps(t *testing.T) {
	c := New(1 << 12)
	c.Load(&isa.Program{Code: []isa.Instr{{Op: isa.RET}}})
	if _, err := c.Run(10); err == nil {
		t.Fatal("expected trap")
	}
}

func TestConditionalBranches(t *testing.T) {
	// Loop: sum 1..5 via JLT.
	c := run(t, []isa.Instr{
		{Op: isa.MOVRI, Dst: 0, Imm: 0},                       // i
		{Op: isa.MOVRI, Dst: 1, Imm: 0},                       // sum
		{Op: isa.JGE, Src1: 0, UseImm: true, Imm: 5, Imm2: 6}, // 2: while i < 5
		{Op: isa.ADD, Dst: 1, Src1: 1, Src2: 0},               // 3
		{Op: isa.ADD, Dst: 0, Src1: 0, UseImm: true, Imm: 1},  // 4
		{Op: isa.JMP, Imm: 2},                                 // 5
		{Op: isa.HALT},                                        // 6
	}, nil)
	if c.Regs[1] != 0+1+2+3+4 {
		t.Fatalf("sum = %d", c.Regs[1])
	}
	if c.Stats.Branches == 0 {
		t.Fatal("branch stats not counted")
	}
}

func TestInstructionBudget(t *testing.T) {
	c := New(1 << 12)
	c.Load(&isa.Program{Code: []isa.Instr{{Op: isa.JMP, Imm: 0}}})
	if _, err := c.Run(100); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("err = %v", err)
	}
}

func TestTSCAdvances(t *testing.T) {
	c := run(t, []isa.Instr{
		{Op: isa.MOVRI, Dst: 0, Imm: 1},
		{Op: isa.MUL, Dst: 0, Src1: 0, Src2: 0},
		{Op: isa.HALT},
	}, nil)
	// movi(1) + mul(3) + halt(1)
	if c.TSC() != 1+CostMul+1 {
		t.Fatalf("TSC = %d", c.TSC())
	}
	if c.Stats.Cycles != c.TSC() {
		t.Fatalf("cycles (%d) != tsc (%d) without sampling", c.Stats.Cycles, c.TSC())
	}
}

func TestHeapHelpers(t *testing.T) {
	c := New(1 << 12)
	c.WriteI64(128, -12345)
	if got := c.ReadI64(128); got != -12345 {
		t.Fatalf("ReadI64 = %d", got)
	}
}

// hookFunc adapts a function to SampleHook.
type hookFunc func(c *CPU, ev Event, addr int64) uint64

func (f hookFunc) Sample(c *CPU, ev Event, addr int64) uint64 { return f(c, ev, addr) }

func TestSamplingPeriodExact(t *testing.T) {
	code := []isa.Instr{}
	for i := 0; i < 99; i++ {
		code = append(code, isa.Instr{Op: isa.NOP})
	}
	code = append(code, isa.Instr{Op: isa.HALT})
	c := New(1 << 12)
	c.Load(&isa.Program{Code: code})
	var n int
	c.Arm(hookFunc(func(cpu *CPU, ev Event, addr int64) uint64 { n++; return 0 }), EvInstRetired, 10, 0)
	if _, err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("samples = %d, want 10 (100 instrs / period 10)", n)
	}
}

func TestSamplingOverheadCharged(t *testing.T) {
	code := make([]isa.Instr, 0, 101)
	for i := 0; i < 100; i++ {
		code = append(code, isa.Instr{Op: isa.NOP})
	}
	code = append(code, isa.Instr{Op: isa.HALT})
	c := New(1 << 12)
	c.Load(&isa.Program{Code: code})
	c.Arm(hookFunc(func(cpu *CPU, ev Event, addr int64) uint64 { return 1000 }), EvInstRetired, 50, 0)
	if _, err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	if c.Stats.SampleCycles != 2000 {
		t.Fatalf("SampleCycles = %d, want 2000", c.Stats.SampleCycles)
	}
	if c.TSC() != c.Stats.Cycles+2000 {
		t.Fatalf("TSC %d != work %d + overhead 2000", c.TSC(), c.Stats.Cycles)
	}
}

func TestSamplingJitterVariesIntervals(t *testing.T) {
	code := make([]isa.Instr, 0, 2001)
	for i := 0; i < 2000; i++ {
		code = append(code, isa.Instr{Op: isa.NOP})
	}
	code = append(code, isa.Instr{Op: isa.HALT})
	c := New(1 << 12)
	c.Load(&isa.Program{Code: code})
	var ips []int
	c.Arm(hookFunc(func(cpu *CPU, ev Event, addr int64) uint64 {
		ips = append(ips, cpu.IP())
		return 0
	}), EvInstRetired, 100, 16)
	if _, err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(ips) < 10 {
		t.Fatalf("too few samples: %d", len(ips))
	}
	deltas := map[int]bool{}
	for i := 1; i < len(ips); i++ {
		deltas[ips[i]-ips[i-1]] = true
	}
	if len(deltas) < 2 {
		t.Fatalf("jitter produced uniform intervals: %v", deltas)
	}
}

func TestEventFiltering(t *testing.T) {
	// Arm loads; NOPs must not fire samples.
	code := []isa.Instr{
		{Op: isa.NOP},
		{Op: isa.LOAD64, Dst: 0, Abs: true, Imm: 256},
		{Op: isa.LOAD64, Dst: 0, Abs: true, Imm: 264},
		{Op: isa.HALT},
	}
	c := New(1 << 12)
	c.Load(&isa.Program{Code: code})
	var addrs []int64
	c.Arm(hookFunc(func(cpu *CPU, ev Event, addr int64) uint64 {
		addrs = append(addrs, addr)
		return 0
	}), EvMemLoads, 1, 0)
	if _, err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 2 || addrs[0] != 256 || addrs[1] != 264 {
		t.Fatalf("load samples = %v", addrs)
	}
}

func TestBranchMissEvent(t *testing.T) {
	// An alternating branch defeats the 2-bit predictor reliably.
	code := []isa.Instr{
		{Op: isa.MOVRI, Dst: 0, Imm: 0},                         // 0: i
		{Op: isa.AND, Dst: 1, Src1: 0, UseImm: true, Imm: 1},    // 1: parity
		{Op: isa.JNZ, Src1: 1, Imm: 3},                          // 2: alternates
		{Op: isa.ADD, Dst: 0, Src1: 0, UseImm: true, Imm: 1},    // 3
		{Op: isa.JLT, Src1: 0, UseImm: true, Imm: 200, Imm2: 1}, // 4: loop
		{Op: isa.HALT},
	}
	c := New(1 << 12)
	c.Load(&isa.Program{Code: code})
	misses := 0
	c.Arm(hookFunc(func(cpu *CPU, ev Event, addr int64) uint64 {
		if ev == EvBranchMiss {
			misses++
		}
		return 0
	}), EvBranchMiss, 1, 0)
	if _, err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	if misses == 0 || c.Stats.BranchMisses == 0 {
		t.Fatal("alternating branch produced no mispredictions")
	}
	if uint64(misses) != c.Stats.BranchMisses {
		t.Fatalf("event count %d != stats %d", misses, c.Stats.BranchMisses)
	}
}

// TestLongestIntervalBoundsEveryDraw: no interval a re-armed CPU draws
// exceeds LongestInterval, and some draw reaches it — code that counts
// that many events after a ReArm is sampled, and no shorter bound says so.
func TestLongestIntervalBoundsEveryDraw(t *testing.T) {
	for _, tc := range []struct{ period, jitter int64 }{{97, 12}, {97, 0}, {5000, 625}, {2, 2}} {
		c := New(64)
		c.Arm(nil, EvInstRetired, tc.period, tc.jitter)
		c.sampling = true // ReArm draws only for an armed CPU
		longest, reached := LongestInterval(tc.period, tc.jitter), false
		for seed := uint64(0); seed < 4096; seed++ {
			c.ReArm(seed)
			if c.countdown > longest {
				t.Fatalf("period %d jitter %d: drew %d, longest %d", tc.period, tc.jitter, c.countdown, longest)
			}
			reached = reached || c.countdown == longest
		}
		if !reached {
			t.Errorf("period %d jitter %d: no draw reached %d", tc.period, tc.jitter, longest)
		}
	}
}
