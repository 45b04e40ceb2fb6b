package pmu

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/vm"
)

// nopProgram returns n NOPs followed by HALT.
func nopProgram(n int) *isa.Program {
	code := make([]isa.Instr, 0, n+1)
	for i := 0; i < n; i++ {
		code = append(code, isa.Instr{Op: isa.NOP})
	}
	code = append(code, isa.Instr{Op: isa.HALT})
	return &isa.Program{Code: code}
}

func runWith(t *testing.T, cfg Config, n int) (*PMU, *vm.CPU) {
	t.Helper()
	c := vm.New(1 << 12)
	c.Load(nopProgram(n))
	p := New(cfg)
	p.Attach(c)
	if _, err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	return p, c
}

func TestRecordBytesMatchPaper(t *testing.T) {
	if got := RecordBytes(FormatIPTimeRegs); got != 54 {
		t.Fatalf("IP+time+regs record = %d B, want 54 (paper §6.2)", got)
	}
	if got := RecordBytes(FormatCallStack); got != 265 {
		t.Fatalf("call-stack record = %d B, want 265 (paper §6.2)", got)
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{Event: vm.EvInstRetired, Period: 100}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Event: vm.EvInstRetired},                                 // zero period
		{Event: vm.EvInstRetired, Period: -5},                     // negative period
		{Event: vm.EvInstRetired, Period: 100, BufferSamples: -1}, // negative buffer
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestSampleCollection(t *testing.T) {
	p, _ := runWith(t, Config{Event: vm.EvInstRetired, Period: 100, Format: FormatIPTime, NoJitter: true}, 1000)
	if got := len(p.Samples()); got != 10 {
		t.Fatalf("samples = %d, want 10", got)
	}
	for _, s := range p.Samples() {
		if s.HasRegs || s.HasStack {
			t.Fatal("IP+time format captured registers or stack")
		}
	}
	if p.StorageBytes() != 10*RecordBytes(FormatIPTime) {
		t.Fatalf("storage = %d", p.StorageBytes())
	}
}

func TestRegisterCapture(t *testing.T) {
	c := vm.New(1 << 12)
	code := []isa.Instr{
		{Op: isa.MOVRI, Dst: isa.TagReg, Imm: 77},
		{Op: isa.NOP},
		{Op: isa.HALT},
	}
	c.Load(&isa.Program{Code: code})
	p := New(Config{Event: vm.EvInstRetired, Period: 2, Format: FormatIPTimeRegs, NoJitter: true})
	p.Attach(c)
	if _, err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	ss := p.Samples()
	if len(ss) == 0 {
		t.Fatal("no samples")
	}
	if !ss[0].HasRegs || ss[0].Tag != 77 {
		t.Fatalf("tag register not captured: %+v", ss[0])
	}
}

func TestCallStackCapture(t *testing.T) {
	c := vm.New(1 << 12)
	code := []isa.Instr{
		{Op: isa.CALL, Imm: 2}, // 0
		{Op: isa.HALT},         // 1
		{Op: isa.NOP},          // 2
		{Op: isa.NOP},          // 3
		{Op: isa.RET},          // 4
	}
	c.Load(&isa.Program{Code: code})
	p := New(Config{Event: vm.EvInstRetired, Period: 1, Format: FormatCallStack, NoJitter: true})
	p.Attach(c)
	if _, err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	foundStack := false
	for _, s := range p.Samples() {
		if s.HasStack && len(s.Stack) == 1 && s.Stack[0] == 1 {
			foundStack = true
		}
	}
	if !foundStack {
		t.Fatal("no sample captured the call stack [1]")
	}
}

func TestBufferFlushes(t *testing.T) {
	p, _ := runWith(t, Config{
		Event: vm.EvInstRetired, Period: 10,
		Format: FormatIPTime, BufferSamples: 16, NoJitter: true,
	}, 10*16*3)
	if p.Flushes != 3 {
		t.Fatalf("flushes = %d, want 3", p.Flushes)
	}
}

func TestCallStackCostsMoreThanPEBS(t *testing.T) {
	_, cheap := runWith(t, Config{Event: vm.EvInstRetired, Period: 50, Format: FormatIPTime, NoJitter: true}, 5000)
	_, costly := runWith(t, Config{Event: vm.EvInstRetired, Period: 50, Format: FormatCallStack, NoJitter: true}, 5000)
	if costly.Stats.SampleCycles <= cheap.Stats.SampleCycles*5 {
		t.Fatalf("call-stack sampling cost (%d) not ≫ PEBS cost (%d)",
			costly.Stats.SampleCycles, cheap.Stats.SampleCycles)
	}
}

func TestRegistersCostSlightlyMore(t *testing.T) {
	_, plain := runWith(t, Config{Event: vm.EvInstRetired, Period: 50, Format: FormatIPTime, NoJitter: true}, 5000)
	_, regs := runWith(t, Config{Event: vm.EvInstRetired, Period: 50, Format: FormatIPTimeRegs, NoJitter: true}, 5000)
	if regs.Stats.SampleCycles <= plain.Stats.SampleCycles {
		t.Fatal("register capture should add cost")
	}
	ratio := float64(regs.Stats.SampleCycles) / float64(plain.Stats.SampleCycles)
	if ratio > 1.2 {
		t.Fatalf("register capture overhead ratio %.2f too large", ratio)
	}
}

func TestTimestampsMonotonic(t *testing.T) {
	p, _ := runWith(t, Config{Event: vm.EvInstRetired, Period: 7, Format: FormatIPTime}, 2000)
	ss := p.Samples()
	for i := 1; i < len(ss); i++ {
		if ss[i].TSC <= ss[i-1].TSC {
			t.Fatalf("TSC not monotonic at %d: %d then %d", i, ss[i-1].TSC, ss[i].TSC)
		}
	}
}
