// Package vm implements the simulated CPU that executes native programs
// produced by internal/codegen.
//
// The CPU stands in for the paper's x86 hardware: it executes the isa
// instruction set over a byte-addressable heap, charges cycles according to
// a documented cost model (see cost.go), models caches and branch
// prediction (uarch.go), maintains a timestamp counter with cycle
// resolution (the paper's TSC, §5.5), and exposes a sampling hook that the
// PMU (internal/pmu) uses to take PEBS-style samples.
package vm

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/isa"
)

// Event enumerates hardware events the PMU can arm, mirroring the perf
// events used in the paper's evaluation (§6 experimental setup).
type Event uint8

const (
	// EvCycles fires once per elapsed cycle; the sample lands on the
	// instruction retiring when the counter overflows, so expensive
	// instructions (cache-missing loads, divisions) attract
	// proportionally more samples — the cost-weighted profile the
	// paper's listings show ("approximates the execution cost").
	EvCycles Event = iota
	// EvInstRetired fires once per retired instruction
	// (INST_RETIRED.PREC_DIST in the paper).
	EvInstRetired
	// EvMemLoads fires once per retired load
	// (MEM_INST_RETIRED.ALL_LOADS in the paper).
	EvMemLoads
	// EvL3Miss fires for loads served by DRAM.
	EvL3Miss
	// EvBranchMiss fires on mispredicted conditional branches.
	EvBranchMiss

	NumEvents
)

func (e Event) String() string {
	switch e {
	case EvCycles:
		return "CPU_CYCLES"
	case EvInstRetired:
		return "INST_RETIRED"
	case EvMemLoads:
		return "MEM_LOADS"
	case EvL3Miss:
		return "L3_MISS"
	case EvBranchMiss:
		return "BRANCH_MISS"
	}
	return fmt.Sprintf("event(%d)", uint8(e))
}

// SampleHook receives a callback whenever the armed event counter reaches
// the configured period. The hook may inspect the CPU (IP, TSC, registers,
// call stack, last accessed address) and returns the number of cycles the
// act of sampling costs (PEBS record cost, buffer flushes, ...), which the
// CPU adds to the TSC — this is how sampling overhead perturbs execution,
// exactly like real PEBS. The hook only reads the CPU: it must not write its
// registers or heap, re-arm it or run it.
type SampleHook interface {
	Sample(c *CPU, ev Event, addr int64) (extraCycles uint64)
}

// Stats aggregates execution counters for one run.
type Stats struct {
	Instructions uint64
	Cycles       uint64 // execution work, excluding sampling overhead
	SampleCycles uint64 // cycles charged by the sampling hook
	Loads        uint64
	Stores       uint64
	Branches     uint64
	BranchMisses uint64
	L1Hits       uint64
	L2Hits       uint64
	L3Hits       uint64
	MemAccesses  uint64 // DRAM-served accesses
	Calls        uint64
}

// TotalCycles is the wall-clock cycle count of the run: execution work
// plus the perturbation the sampling mechanism added (what the overhead
// experiments of Fig. 13 measure).
func (s *Stats) TotalCycles() uint64 { return s.Cycles + s.SampleCycles }

// BudgetError reports that a run stopped because it had retired Budget
// instructions; IP is the instruction that would have executed next.
type BudgetError struct {
	Budget uint64
	IP     int
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("vm: instruction budget (%d) exhausted at ip=%d", e.Budget, e.IP)
}

// TrapError reports a runtime trap (bounds violation, division by zero,
// arena overflow signalled by generated code).
type TrapError struct {
	IP     int
	Reason string
}

func (e *TrapError) Error() string {
	return fmt.Sprintf("vm: trap at ip=%d: %s", e.IP, e.Reason)
}

// CPU is the simulated processor. Create one with New, install a program
// with Load, then call Run.
type CPU struct {
	Heap []byte
	Regs [isa.NumRegs]int64

	prog      *isa.Program
	code      []inst // prog.Code decoded by Load, index for index
	ip        int
	tsc       uint64
	callStack []int // return addresses (instruction indices)
	halted    bool
	haltOnRet bool // CallFunction mode: RET at stack depth 0 halts

	Stats Stats

	// Sampling state.
	hook      SampleHook
	armed     Event
	period    int64
	countdown int64
	sampling  bool
	// jitterMask randomizes each sampling interval by ±(mask+1)/2, the
	// way perf randomizes PEBS periods to defeat aliasing with loop
	// bodies (the paper's §4.1 aliasing concern).
	jitterMask int64
	jitterRNG  uint64

	// FreqGHz converts cycles to wall time for reports (TSC frequency).
	FreqGHz float64

	lastAddr int64 // address of the in-flight memory access, for samples

	// The microarchitectural models sit by value behind every other
	// field: one allocation builds the CPU beside its heap and what the
	// cache model sizes for it (see Hierarchy), and the garbage collector
	// stops scanning it before the tag arrays.
	caches Hierarchy
	bp     BranchPredictor
}

// New creates a CPU with the given heap size in bytes. It panics if the
// heap has more 64-byte lines than the cache model's 32-bit tags can name
// (256 GiB); checkHeapSize is the one place that limit is enforced.
func New(heapSize int) *CPU {
	checkHeapSize(heapSize)
	c := &CPU{Heap: make([]byte, heapSize), FreqGHz: 3.5}
	c.caches.size(heapLines(heapSize), nil, nil)
	c.bp.reset()
	return c
}

func checkHeapSize(heapSize int) {
	if uint64(heapSize)>>lineShift >= maxLines {
		bug(fmt.Sprintf("heap of %d bytes exceeds the cache model's %d lines", heapSize, uint64(maxLines)))
	}
}

// heapLines is the number of cache lines a heap of heapSize bytes spans.
func heapLines(heapSize int) uint64 { return (uint64(heapSize) + lineBytes - 1) >> lineShift }

// Reset puts a used CPU back into the state New(heapSize) builds — zeroed
// heap, no program, cold caches and predictor, nothing armed — so that no
// run can tell the two apart (TestResetEqualsNew walks the field list). Only
// memory survives: the heap's backing array when it is large enough, the
// cache model's L3 tags and line bitmap, zeroed, and the call-stack and
// decoded-program buffers, emptied. A reset allocates only what the machine
// has never had: a larger heap or bitmap, or L3's tags.
func (c *CPU) Reset(heapSize int) {
	checkHeapSize(heapSize)
	heap, code, stack := c.Heap, c.code, c.callStack
	l3, seen := c.caches.l3, c.caches.seen
	if cap(heap) < heapSize {
		heap = make([]byte, heapSize)
	} else {
		heap = heap[:heapSize]
		clear(heap)
	}
	*c = CPU{} // the zero literal clears c where it is; no second CPU is built
	c.Heap, c.code, c.callStack, c.FreqGHz = heap, code[:0], stack[:0], 3.5
	c.caches.size(heapLines(heapSize), l3, seen)
	c.bp.reset()
}

// inst is one decoded instruction. Load normalizes the operand forms so the
// run loop selects nothing per step: a register slot the instruction does
// not read names zeroReg, and an immediate it does not use is 0. The second
// ALU/compare operand is then always R(s2)+imm and a memory address always
// imm + R(s1) + R(s2)<<log2(width), whatever UseImm, Abs and Scaled said.
//
// Opcode and register slots share one word, op | dst<<8 | s1<<16 | s2<<24:
// the loop fetches an instruction with three loads and takes it apart in
// registers.
type inst struct {
	w      uint32
	imm    int64
	target int // taken branches and CALL: the next instruction; opIllegal: the opcode
}

func pack(op isa.Op, dst, s1, s2 isa.Reg) uint32 {
	return uint32(op) | uint32(dst)<<8 | uint32(s1)<<16 | uint32(s2)<<24
}

const (
	// zeroReg is a slot of the run loop's register file, past the
	// architectural registers, that always holds 0.
	zeroReg isa.Reg = isa.NumRegs
	badReg  isa.Reg = 0xff // decode only: no such register

	// Decoded opcodes beyond the instruction set.
	opIllegal = isa.TRAP + 1 // not an opcode
	opBadReg  = isa.TRAP + 2 // names a register outside the file
)

// decode translates one instruction; see inst. An instruction that names a
// register outside the file decodes to a trap of its own.
func decode(in *isa.Instr) inst {
	// Which operand fields the instruction uses; target is in.Imm unless
	// the immediate is an operand (Jcc), then in.Imm2.
	var dst, s1, s2, imm bool
	target := in.Imm
	switch in.Op {
	case isa.NOP, isa.RET, isa.HALT, isa.JMP, isa.CALL:
	case isa.MOVRR:
		dst, s1 = true, true
	case isa.MOVRI:
		dst, imm = true, true
	case isa.LOAD8, isa.LOAD16, isa.LOAD32, isa.LOAD64, isa.STORE8, isa.STORE32, isa.STORE64:
		dst, s1, s2, imm = true, !in.Abs, in.Scaled, true
	case isa.ADD, isa.SUB, isa.MUL, isa.DIV, isa.MOD, isa.AND, isa.OR,
		isa.XOR, isa.SHL, isa.SHR, isa.ROTR, isa.CRC32,
		isa.CMPEQ, isa.CMPNE, isa.CMPLT, isa.CMPLE, isa.CMPGT, isa.CMPGE:
		dst, s1, s2, imm = true, true, !in.UseImm, in.UseImm
	case isa.JNZ, isa.JZ:
		s1 = true
	case isa.JEQ, isa.JNE, isa.JLT, isa.JGE:
		s1, s2, imm, target = true, !in.UseImm, in.UseImm, in.Imm2
	case isa.TRAP:
		imm = true
	default:
		return inst{w: pack(opIllegal, zeroReg, zeroReg, zeroReg), target: int(in.Op)}
	}
	rd, r1, r2 := slot(dst, in.Dst), slot(s1, in.Src1), slot(s2, in.Src2)
	if rd == badReg || r1 == badReg || r2 == badReg {
		return inst{w: pack(opBadReg, zeroReg, zeroReg, zeroReg)}
	}
	d := inst{w: pack(in.Op, rd, r1, r2), target: int(target)}
	if imm {
		d.imm = in.Imm
	}
	return d
}

// slot returns where the run loop finds a register operand: the register
// itself, zeroReg for an operand the instruction does not use, badReg for
// a register outside the file.
func slot(used bool, r isa.Reg) isa.Reg {
	switch {
	case !used:
		return zeroReg
	case r > isa.SP:
		return badReg
	}
	return r
}

// Load installs a program and resets execution state (registers, IP, TSC,
// statistics); heap contents are preserved so the host can stage data first.
// The program is decoded into the CPU's own buffer: the *isa.Program is
// shared between concurrent sessions and never written.
func (c *CPU) Load(p *isa.Program) {
	c.prog = p
	if cap(c.code) < len(p.Code) {
		c.code = make([]inst, len(p.Code))
	}
	c.code = c.code[:len(p.Code)]
	for i := range p.Code {
		c.code[i] = decode(&p.Code[i])
	}
	c.ip = 0
	c.tsc = 0
	c.halted = false
	c.callStack = c.callStack[:0]
	c.Stats = Stats{}
	for i := range c.Regs {
		c.Regs[i] = 0
	}
	// SP names the end of the heap by convention only: generated code keeps
	// its call arguments and spills in fixed low-memory regions and never
	// addresses through SP, so no layout reserves a stack.
	c.Regs[isa.SP] = int64(len(c.Heap))
}

// Restart rewinds the instruction pointer for another pass over the same
// program while *keeping* the TSC, statistics and sampling state — the way
// an iterative dataflow re-executes its pipelines within one profiled
// session (§4.2.6 of the paper: iterations are later separated by sample
// timestamps). The caller is responsible for re-staging mutable memory.
func (c *CPU) Restart() {
	c.ip = 0
	c.halted = false
	c.callStack = c.callStack[:0]
}

// CallFunction runs a single function to completion: execution starts at
// entry and ends when the function returns with an empty call stack
// (instead of trapping, the way a stray RET would during a normal Run).
// Registers, TSC, statistics and sampling state are all *kept* across
// calls — a worker CPU in morsel-driven execution invokes the same
// pipeline function once per morsel, accumulating cycles like a real core
// would. maxInstructions bounds this call (0 = unbounded).
func (c *CPU) CallFunction(entry int, maxInstructions uint64) (Stats, error) {
	if c.prog == nil {
		return c.Stats, fmt.Errorf("vm: no program loaded")
	}
	if entry < 0 || entry >= len(c.prog.Code) {
		return c.Stats, fmt.Errorf("vm: call entry %d out of range", entry)
	}
	c.ip = entry
	c.halted = false
	c.callStack = c.callStack[:0]
	c.haltOnRet = true
	defer func() { c.haltOnRet = false }()
	budget := maxInstructions
	if budget > 0 {
		budget += c.Stats.Instructions
	}
	return c.Run(budget)
}

// Arm configures event sampling: hook.Sample is called every period
// occurrences of ev, with each interval randomized by ±jitter/2 (0
// disables randomization). Pass a nil hook to disable sampling.
func (c *CPU) Arm(hook SampleHook, ev Event, period, jitter int64) {
	c.hook = hook
	c.armed = ev
	c.period = period
	c.countdown = period
	c.sampling = hook != nil && period > 0
	c.jitterMask = jitterMask(jitter)
	c.jitterRNG = 0x9e3779b97f4a7c15 ^ uint64(period)
}

// jitterMask is the mask Arm draws an interval's jitter with: one less
// than the least power of two ≥ jitter, 0 for no jitter.
func jitterMask(jitter int64) int64 {
	if jitter <= 1 {
		return 0
	}
	mask := int64(1)
	for mask < jitter {
		mask <<= 1
	}
	return mask - 1
}

// LongestInterval is the most events a CPU armed with period and jitter
// counts between an arm, a re-arm or a sample and the next sample: code
// that counts that many events after a ReArm is certainly sampled.
func LongestInterval(period, jitter int64) int64 {
	m := jitterMask(jitter)
	return period + m - m/2
}

// ReArm restarts the sampling countdown at a deterministic epoch derived
// from seed, without touching the collected state or the armed period.
// Morsel-driven execution re-arms before every morsel with a seed derived
// from the *global* morsel index, so the positions of count-event samples
// within a morsel depend only on the morsel — never on which worker ran it
// or what that worker executed before. That is what makes merged parallel
// profiles of deterministic events exact across worker counts.
func (c *CPU) ReArm(seed uint64) {
	if !c.sampling {
		return
	}
	c.jitterRNG = 0x9e3779b97f4a7c15 ^ uint64(c.period) ^ (seed*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb)
	if c.jitterRNG == 0 {
		c.jitterRNG = 1
	}
	if c.jitterMask == 0 {
		c.countdown = c.period
	} else {
		c.countdown = c.nextPeriod()
	}
}

// nextPeriod returns the (possibly jittered) next sampling interval.
func (c *CPU) nextPeriod() int64 {
	if c.jitterMask == 0 {
		return c.period
	}
	x := c.jitterRNG
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	c.jitterRNG = x
	p := c.period + (int64(x)&c.jitterMask - c.jitterMask/2)
	if p < 1 {
		p = 1
	}
	return p
}

// IP returns the current instruction pointer (index into the program).
func (c *CPU) IP() int { return c.ip }

// TSC returns the timestamp counter in cycles.
func (c *CPU) TSC() uint64 { return c.tsc }

// CallStack returns the current return-address stack (innermost last).
// The returned slice aliases internal state; callers must copy it if they
// retain it (the PMU does).
func (c *CPU) CallStack() []int { return c.callStack }

// LastAddr returns the effective address of the most recent memory access.
func (c *CPU) LastAddr() int64 { return c.lastAddr }

// ReadI64 reads a 64-bit value from the heap (host-side helper).
func (c *CPU) ReadI64(addr int64) int64 {
	return int64(binary.LittleEndian.Uint64(c.Heap[addr:]))
}

// WriteI64 writes a 64-bit value to the heap (host-side helper).
func (c *CPU) WriteI64(addr, v int64) {
	binary.LittleEndian.PutUint64(c.Heap[addr:], uint64(v))
}

// widthShift is log2 of a memory instruction's access width: an access is in
// bounds iff 0 <= addr <= len(heap)-width. (Sized so that any isa.Op indexes
// it unchecked.)
var widthShift = [1 << 8]uint8{
	isa.LOAD8: 0, isa.LOAD16: 1, isa.LOAD32: 2, isa.LOAD64: 3,
	isa.STORE8: 0, isa.STORE32: 2, isa.STORE64: 3,
}

// regFile is the run loop's working copy of the registers. It is indexed by
// an isa.Reg without a bounds check; decode only ever names slots
// 0..zeroReg.
type regFile [1 << 8]int64

// sample delivers one overflow of the armed counter: it draws the next
// interval, publishes the state the hook may inspect — IP of the sampled
// instruction, TSC, registers and the running totals; call stack, last address and the other counters are kept in the CPU as the loop goes —
// charges what the hook asks for and returns the new TSC. The hook must not
// modify the CPU.
func (c *CPU) sample(addr int64, ip int, tsc, instrs uint64, r *regFile) uint64 {
	c.countdown = c.nextPeriod()
	c.publish(ip, tsc, instrs, r)
	extra := c.hook.Sample(c, c.armed, addr)
	c.tsc += extra
	c.Stats.SampleCycles += extra
	return c.tsc
}

// publish stores the run loop's locals back into the CPU. The TSC has
// advanced by the cost of the instructions executed since it was last
// published, and so has the cycle total.
func (c *CPU) publish(ip int, tsc, instrs uint64, r *regFile) {
	c.Stats.Cycles += tsc - c.tsc
	c.ip, c.tsc, c.Stats.Instructions = ip, tsc, instrs
	copy(c.Regs[:], r[:])
}

func (c *CPU) outOfBounds(ip int, addr, width int64) error {
	return &TrapError{IP: ip, Reason: fmt.Sprintf("memory access out of bounds: addr=%d width=%d heap=%d", addr, width, len(c.Heap))}
}

// Run executes the loaded program until HALT, a trap, or the instruction
// budget is exhausted (0 means no budget). It returns the statistics of
// the run.
//
// The loop keeps IP, TSC, the instruction total and the registers in
// locals. They are published (see publish) before every call of the
// sampling hook, with IP naming the instruction being sampled, and once on
// the way out, whatever ended the run; every other piece of state is
// updated in the CPU as it changes.
func (c *CPU) Run(maxInstructions uint64) (Stats, error) {
	if c.prog == nil {
		return c.Stats, fmt.Errorf("vm: no program loaded")
	}
	if c.halted {
		return c.Stats, nil
	}
	var (
		code   = c.code
		ip     = c.ip
		tsc    = c.tsc
		instrs = c.Stats.Instructions
		err    error
		r      regFile
	)
	copy(r[:], c.Regs[:])

	// limit is the instruction total at which the loop stops. HALT (and
	// the RET that ends a CallFunction) sets it to 0, so that the budget
	// test is the only one made between instructions.
	limit := maxInstructions
	if limit == 0 {
		limit = ^uint64(0)
	}

	// What is armed decides the sampling work: nothing — one test at
	// retirement and one per load; cycles or retired instructions — a
	// countdown at retirement; loads, L3 misses, branch misses — a
	// countdown where they occur.
	armed := NumEvents
	if c.sampling {
		armed = c.armed
	}

loop:
	for {
		if instrs >= limit {
			if !c.halted {
				err = &BudgetError{Budget: maxInstructions, IP: ip}
			}
			break
		}
		if uint(ip) >= uint(len(code)) {
			err = &TrapError{IP: ip, Reason: "instruction pointer out of range"}
			break
		}
		in := code[ip]
		op, dst, s1, s2 := isa.Op(in.w), isa.Reg(in.w>>8), isa.Reg(in.w>>16), isa.Reg(in.w>>24)
		next := ip + 1
		cost := uint64(CostALU)
		b := r[s2] + in.imm // the second operand of ALU instructions, compares and Jcc

		switch op {
		case isa.NOP:

		case isa.MOVRR:
			r[dst] = r[s1]
		case isa.MOVRI:
			r[dst] = in.imm

		case isa.LOAD8, isa.LOAD16, isa.LOAD32, isa.LOAD64:
			heap, sh := c.Heap, widthShift[op]
			addr := in.imm + r[s1] + r[s2]<<sh
			if addr < 0 || addr > int64(len(heap))-1<<sh {
				err = c.outOfBounds(ip, addr, 1<<sh)
				break loop
			}
			var v int64
			switch op {
			case isa.LOAD64:
				v = int64(binary.LittleEndian.Uint64(heap[addr:]))
			case isa.LOAD32:
				v = int64(int32(binary.LittleEndian.Uint32(heap[addr:])))
			case isa.LOAD16:
				v = int64(binary.LittleEndian.Uint16(heap[addr:]))
			default:
				v = int64(heap[addr])
			}
			r[dst] = v
			c.lastAddr = addr
			c.Stats.Loads++
			lvl := HitL1
			if c.caches.front(uint64(addr)) {
				cost = CostLoadL1
				c.Stats.L1Hits++
			} else {
				lvl = c.caches.lookup(uint64(addr))
				cost = loadCost(lvl)
				c.noteAccess(lvl)
			}
			if armed == EvMemLoads || armed == EvL3Miss && lvl == HitMem {
				if c.countdown--; c.countdown <= 0 {
					tsc = c.sample(addr, ip, tsc, instrs, &r)
				}
			}

		case isa.STORE8, isa.STORE32, isa.STORE64:
			heap, sh := c.Heap, widthShift[op]
			addr := in.imm + r[s1] + r[s2]<<sh
			if addr < 0 || addr > int64(len(heap))-1<<sh {
				err = c.outOfBounds(ip, addr, 1<<sh)
				break loop
			}
			switch v := r[dst]; op {
			case isa.STORE64:
				binary.LittleEndian.PutUint64(heap[addr:], uint64(v))
			case isa.STORE32:
				binary.LittleEndian.PutUint32(heap[addr:], uint32(v))
			default:
				heap[addr] = byte(v)
			}
			c.lastAddr = addr
			c.Stats.Stores++
			cost = CostStore
			if c.caches.front(uint64(addr)) {
				c.Stats.L1Hits++
			} else {
				c.noteAccess(c.caches.lookup(uint64(addr)))
			}

		case isa.ADD:
			r[dst] = r[s1] + b
		case isa.SUB:
			r[dst] = r[s1] - b
		case isa.MUL:
			r[dst] = r[s1] * b
			cost = CostMul
		case isa.DIV:
			if b == 0 {
				err = &TrapError{IP: ip, Reason: "division by zero"}
				break loop
			}
			r[dst] = r[s1] / b
			cost = CostDiv
		case isa.MOD:
			if b == 0 {
				err = &TrapError{IP: ip, Reason: "modulo by zero"}
				break loop
			}
			r[dst] = r[s1] % b
			cost = CostDiv
		case isa.AND:
			r[dst] = r[s1] & b
		case isa.OR:
			r[dst] = r[s1] | b
		case isa.XOR:
			r[dst] = r[s1] ^ b
		case isa.SHL:
			r[dst] = r[s1] << (uint64(b) & 63)
		case isa.SHR:
			r[dst] = int64(uint64(r[s1]) >> (uint64(b) & 63))
		case isa.ROTR:
			r[dst] = int64(bits.RotateLeft64(uint64(r[s1]), -int(uint64(b)&63)))
		case isa.CRC32:
			// One mixing step of the paper's hash pipeline (crc32 i64 const, v):
			// a cheap, well-mixing combine, not the real CRC polynomial.
			x := uint64(r[s1]) ^ uint64(b)*0x9e3779b97f4a7c15
			x ^= x >> 32
			x *= 0xd6e8feb86659fd93
			x ^= x >> 32
			r[dst] = int64(x)
			cost = CostCRC32
		case isa.CMPEQ:
			r[dst] = b2i(r[s1] == b)
		case isa.CMPNE:
			r[dst] = b2i(r[s1] != b)
		case isa.CMPLT:
			r[dst] = b2i(r[s1] < b)
		case isa.CMPLE:
			r[dst] = b2i(r[s1] <= b)
		case isa.CMPGT:
			r[dst] = b2i(r[s1] > b)
		case isa.CMPGE:
			r[dst] = b2i(r[s1] >= b)

		case isa.JMP:
			next = in.target
			cost = CostBranch

		case isa.JNZ, isa.JZ, isa.JEQ, isa.JNE, isa.JLT, isa.JGE:
			a := r[s1]
			var taken bool
			switch op {
			case isa.JNZ:
				taken = a != 0
			case isa.JZ:
				taken = a == 0
			case isa.JEQ:
				taken = a == b
			case isa.JNE:
				taken = a != b
			case isa.JLT:
				taken = a < b
			default:
				taken = a >= b
			}
			if taken {
				next = in.target
			}
			c.Stats.Branches++
			cost = CostBranch
			if !c.bp.Predict(ip, taken) {
				cost += CostBranchMiss
				c.Stats.BranchMisses++
				if armed == EvBranchMiss {
					if c.countdown--; c.countdown <= 0 {
						tsc = c.sample(c.lastAddr, ip, tsc, instrs, &r)
					}
				}
			}

		case isa.CALL:
			c.callStack = append(c.callStack, next)
			next = in.target
			cost = CostCall
			c.Stats.Calls++

		case isa.RET:
			cost = CostCall
			if n := len(c.callStack); n > 0 {
				next = c.callStack[n-1]
				c.callStack = c.callStack[:n-1]
			} else if c.haltOnRet {
				// CallFunction mode: returning from the entry function ends
				// the call like HALT ends a program.
				c.halted, limit = true, 0
			} else {
				err = &TrapError{IP: ip, Reason: "ret with empty call stack"}
				break loop
			}

		case isa.HALT:
			c.halted, limit = true, 0
		case isa.TRAP:
			err = &TrapError{IP: ip, Reason: fmt.Sprintf("explicit trap (code %d)", in.imm)}
			break loop
		case opBadReg:
			err = &TrapError{IP: ip, Reason: "register out of range"}
			break loop
		default:
			err = &TrapError{IP: ip, Reason: fmt.Sprintf("illegal opcode %v", isa.Op(in.target))}
			break loop
		}

		tsc += cost
		instrs++
		// Retirement events fire after the architectural effects are
		// visible, with the sample's IP pointing at the retiring instruction
		// — matching PEBS "precise distribution" semantics.
		if armed == EvCycles || armed == EvInstRetired {
			if armed == EvCycles {
				c.countdown -= int64(cost)
			} else {
				c.countdown--
			}
			if c.countdown <= 0 {
				tsc = c.sample(c.lastAddr, ip, tsc, instrs, &r)
			}
		}
		ip = next
	}

	c.publish(ip, tsc, instrs, &r)
	return c.Stats, err
}

func (c *CPU) noteAccess(lvl int) {
	switch lvl {
	case HitL1:
		c.Stats.L1Hits++
	case HitL2:
		c.Stats.L2Hits++
	case HitL3:
		c.Stats.L3Hits++
	default:
		c.Stats.MemAccesses++
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
