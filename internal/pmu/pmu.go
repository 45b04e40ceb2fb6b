// Package pmu models the processor's performance monitoring unit in
// Processor Event-Based Sampling mode (PEBS, §2.2 of the paper): every N
// occurrences of an armed hardware event the processor records a sample
// into an in-memory buffer; the kernel is involved only when the buffer
// overflows. Sampling perturbs execution — each record and each buffer
// flush costs cycles that the CPU adds to its TSC — which is exactly what
// the paper's overhead experiment (Fig. 13) measures.
//
// Three record formats mirror the paper's configurations:
//
//	IP+call-stack   — the classic interrupt-based call-stack sampling,
//	                  expensive (529% at 0.7 MHz in the paper);
//	IP+time         — plain PEBS with TSC (35%);
//	IP+time+regs    — PEBS capturing the register file, as Register
//	                  Tagging requires (38%).
package pmu

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/vm"
)

// Format selects what each sample record contains.
type Format struct {
	Timestamp bool
	Registers bool
	CallStack bool
}

// Standard formats used throughout the experiments.
var (
	FormatIPTime     = Format{Timestamp: true}
	FormatIPTimeRegs = Format{Timestamp: true, Registers: true}
	FormatCallStack  = Format{Timestamp: true, CallStack: true}
)

// RecordBytes returns the storage footprint of one sample record, matching
// the paper's accounting (§6.2): 54 bytes for IP+timestamp+registers,
// 265 bytes when call-stack information is added.
func RecordBytes(f Format) int {
	n := 8 // instruction pointer
	if f.Timestamp {
		n += 8
	}
	if f.Registers {
		n += 38 // register file snapshot (paper: 54 B total)
	}
	if f.CallStack {
		n += 249 // call-stack frames (paper: 265 B total)
	}
	return n
}

// Config arms the PMU.
type Config struct {
	Event  vm.Event
	Period int64
	Format Format

	// BufferSamples is the PEBS buffer capacity; a flush (kernel
	// involvement) happens when it fills. Zero selects the default.
	BufferSamples int

	// NoJitter disables period randomization. The default randomizes
	// each interval by ±period/16, as perf does, to defeat aliasing
	// between the sampling period and loop bodies (§4.1 of the paper).
	NoJitter bool

	// Worker stamps every sample with the recording core's ID, the way
	// per-hardware-thread PEBS buffers are distinguishable after the
	// bottom-up merge. 0 for single-CPU runs; morsel workers use ≥1.
	Worker int
}

// DefaultBufferSamples is the PEBS buffer capacity used unless overridden.
const DefaultBufferSamples = 1024

// Validate statically checks a sampling configuration before it arms a
// PMU. Misconfigurations otherwise surface as silent weirdness at run
// time (a zero period never samples), so the engine rejects them up front.
func (c Config) Validate() error {
	if c.Period <= 0 {
		return fmt.Errorf("pmu: sampling period must be positive, got %d", c.Period)
	}
	if c.BufferSamples < 0 {
		return fmt.Errorf("pmu: negative PEBS buffer capacity %d", c.BufferSamples)
	}
	return nil
}

// PMU implements vm.SampleHook, collecting samples and charging costs.
type PMU struct {
	cfg      Config
	samples  []core.Sample
	buffered int
	shard    int

	// Flushes counts PEBS buffer drains (kernel involvement).
	Flushes int
}

// New returns a PMU for the given configuration.
func New(cfg Config) *PMU {
	if cfg.BufferSamples <= 0 {
		cfg.BufferSamples = DefaultBufferSamples
	}
	return &PMU{cfg: cfg}
}

// jitter is the randomization Attach arms a CPU with.
func (c Config) jitter() int64 {
	if c.NoJitter {
		return 0
	}
	return c.Period / 8
}

// LongestInterval is the most events an attached CPU counts between a
// (re-)arm or a sample and the next sample (vm.LongestInterval).
func (c Config) LongestInterval() int64 { return vm.LongestInterval(c.Period, c.jitter()) }

// Attach arms the CPU with this PMU's event and period.
func (p *PMU) Attach(c *vm.CPU) {
	c.Arm(p, p.cfg.Event, p.cfg.Period, p.cfg.jitter())
}

// Samples returns the collected samples.
func (p *PMU) Samples() []core.Sample { return p.samples }

// Config returns the active configuration.
func (p *PMU) Config() Config { return p.cfg }

// StorageBytes returns the total sample storage used so far.
func (p *PMU) StorageBytes() int { return len(p.samples) * RecordBytes(p.cfg.Format) }

// SetShard sets the shard stamp applied to subsequent samples (0 =
// unsharded work; shard s is stamped as s+1). The morsel scheduler calls
// it before each morsel so every sample lands in its shard's logical
// sub-buffer, mirroring how Config.Worker splits buffers per core.
func (p *PMU) SetShard(id int) { p.shard = id }

// Sample implements vm.SampleHook.
func (p *PMU) Sample(c *vm.CPU, ev vm.Event, addr int64) uint64 {
	s := core.Sample{IP: c.IP(), Event: ev, Addr: addr, Worker: p.cfg.Worker, Shard: p.shard}
	var cost uint64
	if p.cfg.Format.CallStack {
		// Interrupt-based sampling: the kernel handler walks and stores
		// the call stack on every sample.
		stack := c.CallStack()
		s.Stack = make([]int, len(stack))
		copy(s.Stack, stack)
		s.HasStack = true
		cost = CostCallStackRecord + uint64(len(stack))*CostPerFrame
	} else {
		cost = CostPEBSRecord
		if p.cfg.Format.Registers {
			s.Tag = c.Regs[isa.TagReg] // captured with the register file
			s.HasRegs = true
			cost += CostRegisterCapture
		}
		p.buffered++
		if p.buffered >= p.cfg.BufferSamples {
			// Buffer full: the interrupt handler writes samples out.
			p.buffered = 0
			p.Flushes++
			cost += CostBufferFlush
		}
	}
	if p.cfg.Format.Timestamp {
		s.TSC = c.TSC()
	}
	p.samples = append(p.samples, s)
	return cost
}
