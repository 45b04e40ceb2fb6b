package vm

// The previous implementation of the simulated CPU, kept as the differential
// oracle with only its names changed (ref*) and its host-side helpers
// dropped: a per-instruction step function with an error return, event calls
// at every retirement, and a timestamp-LRU cache model over parallel tag and
// stamp arrays. Run loop and cache model in vm.go and uarch.go must
// reproduce it bit for bit (TestRunMatchesReference,
// FuzzRunMatchesReference, TestCacheMatchesTimestampLRU); nothing outside
// the tests uses it.

import (
	"encoding/binary"
	"fmt"

	"repro/internal/isa"
)

// refCPU is the reference processor.
type refCPU struct {
	Heap []byte
	Regs [isa.NumRegs]int64

	prog      *isa.Program
	ip        int
	tsc       uint64
	callStack []int // return addresses (instruction indices)
	halted    bool
	haltOnRet bool // CallFunction mode: RET at stack depth 0 halts

	caches *refHierarchy
	bp     *refBranchPredictor

	Stats Stats

	// Sampling state.
	hook      refSampleHook
	armed     Event
	period    int64
	countdown int64
	sampling  bool
	// jitterMask randomizes each sampling interval by ±(mask+1)/2, the
	// way perf randomizes PEBS periods to defeat aliasing with loop
	// bodies (the paper's §4.1 aliasing concern).
	jitterMask int64
	jitterRNG  uint64

	lastAddr int64 // address of the in-flight memory access, for samples
}

// newRefCPU creates a reference CPU with the given heap size in bytes.
func newRefCPU(heapSize int) *refCPU {
	return &refCPU{
		Heap:   make([]byte, heapSize),
		caches: newRefHierarchy(),
		bp:     newRefBranchPredictor(),
	}
}

// Load installs a program and resets execution state (registers, IP, TSC,
// statistics); heap contents are preserved so the host can stage data first.
func (c *refCPU) Load(p *isa.Program) {
	c.prog = p
	c.ip = 0
	c.tsc = 0
	c.halted = false
	c.callStack = c.callStack[:0]
	c.Stats = Stats{}
	for i := range c.Regs {
		c.Regs[i] = 0
	}
	c.Regs[isa.SP] = int64(len(c.Heap)) // stack grows down from the top
}

// Restart rewinds the instruction pointer for another pass over the same
// program while *keeping* the TSC, statistics and sampling state — the way
// an iterative dataflow re-executes its pipelines within one profiled
// session (§4.2.6 of the paper: iterations are later separated by sample
// timestamps). The caller is responsible for re-staging mutable memory.
func (c *refCPU) Restart() {
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
func (c *refCPU) CallFunction(entry int, maxInstructions uint64) (Stats, error) {
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
func (c *refCPU) Arm(hook refSampleHook, ev Event, period, jitter int64) {
	c.hook = hook
	c.armed = ev
	c.period = period
	c.countdown = period
	c.sampling = hook != nil && period > 0
	c.jitterMask = 0
	if jitter > 1 {
		mask := int64(1)
		for mask < jitter {
			mask <<= 1
		}
		c.jitterMask = mask - 1
	}
	c.jitterRNG = 0x9e3779b97f4a7c15 ^ uint64(period)
}

// ReArm restarts the sampling countdown at a deterministic epoch derived
// from seed, without touching the collected state or the armed period.
// Morsel-driven execution re-arms before every morsel with a seed derived
// from the *global* morsel index, so the positions of count-event samples
// within a morsel depend only on the morsel — never on which worker ran it
// or what that worker executed before. That is what makes merged parallel
// profiles of deterministic events exact across worker counts.
func (c *refCPU) ReArm(seed uint64) {
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
func (c *refCPU) nextPeriod() int64 {
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
func (c *refCPU) IP() int { return c.ip }

// TSC returns the timestamp counter in cycles.
func (c *refCPU) TSC() uint64 { return c.tsc }

// CallStack returns the current return-address stack (innermost last).
// The returned slice aliases internal state; callers must copy it if they
// retain it (the PMU does).
func (c *refCPU) CallStack() []int { return c.callStack }

// LastAddr returns the effective address of the most recent memory access.
func (c *refCPU) LastAddr() int64 { return c.lastAddr }

func (c *refCPU) event(ev Event, addr int64) {
	if !c.sampling || ev != c.armed {
		return
	}
	c.countdown--
	if c.countdown > 0 {
		return
	}
	c.countdown = c.nextPeriod()
	extra := c.hook.Sample(c, ev, addr)
	c.tsc += extra
	c.Stats.SampleCycles += extra
}

func (c *refCPU) mem(addr, width int64) ([]byte, error) {
	if addr < 0 || addr+width > int64(len(c.Heap)) {
		return nil, &TrapError{IP: c.ip, Reason: fmt.Sprintf("memory access out of bounds: addr=%d width=%d heap=%d", addr, width, len(c.Heap))}
	}
	return c.Heap[addr : addr+width], nil
}

// Run executes the loaded program until HALT, a trap, or the instruction
// budget is exhausted (0 means no budget). It returns the statistics of
// the run.
func (c *refCPU) Run(maxInstructions uint64) (Stats, error) {
	if c.prog == nil {
		return c.Stats, fmt.Errorf("vm: no program loaded")
	}
	code := c.prog.Code
	for !c.halted {
		if maxInstructions > 0 && c.Stats.Instructions >= maxInstructions {
			return c.Stats, fmt.Errorf("vm: instruction budget (%d) exhausted at ip=%d", maxInstructions, c.ip)
		}
		if c.ip < 0 || c.ip >= len(code) {
			return c.Stats, &TrapError{IP: c.ip, Reason: "instruction pointer out of range"}
		}
		in := &code[c.ip]
		if err := c.step(in); err != nil {
			return c.Stats, err
		}
	}
	return c.Stats, nil
}

// step executes one instruction; on return c.ip points at the next
// instruction to execute.
func (c *refCPU) step(in *isa.Instr) error {
	ipBefore := c.ip
	next := c.ip + 1
	cost := uint64(CostALU)

	switch in.Op {
	case isa.NOP:
		// nothing

	case isa.MOVRR:
		c.Regs[in.Dst] = c.Regs[in.Src1]
	case isa.MOVRI:
		c.Regs[in.Dst] = in.Imm

	case isa.LOAD8, isa.LOAD16, isa.LOAD32, isa.LOAD64:
		w := in.Width()
		addr := in.Imm
		if !in.Abs {
			addr += c.Regs[in.Src1]
		}
		if in.Scaled {
			addr += c.Regs[in.Src2] * w
		}
		m, err := c.mem(addr, w)
		if err != nil {
			return err
		}
		var v int64
		switch w {
		case 1:
			v = int64(m[0])
		case 2:
			v = int64(binary.LittleEndian.Uint16(m))
		case 4:
			v = int64(int32(binary.LittleEndian.Uint32(m)))
		default:
			v = int64(binary.LittleEndian.Uint64(m))
		}
		c.Regs[in.Dst] = v
		c.lastAddr = addr
		lvl := c.caches.Access(uint64(addr))
		cost = loadCost(lvl)
		c.noteAccess(lvl)
		c.Stats.Loads++
		c.event(EvMemLoads, addr)
		if lvl == HitMem {
			c.event(EvL3Miss, addr)
		}

	case isa.STORE8, isa.STORE32, isa.STORE64:
		w := in.Width()
		addr := in.Imm
		if !in.Abs {
			addr += c.Regs[in.Src1]
		}
		if in.Scaled {
			addr += c.Regs[in.Src2] * w
		}
		m, err := c.mem(addr, w)
		if err != nil {
			return err
		}
		v := c.Regs[in.Dst]
		switch w {
		case 1:
			m[0] = byte(v)
		case 4:
			binary.LittleEndian.PutUint32(m, uint32(v))
		default:
			binary.LittleEndian.PutUint64(m, uint64(v))
		}
		c.lastAddr = addr
		lvl := c.caches.Access(uint64(addr))
		c.noteAccess(lvl)
		cost = CostStore
		c.Stats.Stores++

	case isa.ADD, isa.SUB, isa.MUL, isa.DIV, isa.MOD, isa.AND, isa.OR,
		isa.XOR, isa.SHL, isa.SHR, isa.ROTR, isa.CRC32,
		isa.CMPEQ, isa.CMPNE, isa.CMPLT, isa.CMPLE, isa.CMPGT, isa.CMPGE:
		b := in.Imm
		if !in.UseImm {
			b = c.Regs[in.Src2]
		}
		v, err := refALU(in.Op, c.Regs[in.Src1], b, c.ip)
		if err != nil {
			return err
		}
		c.Regs[in.Dst] = v
		cost = aluCost(in.Op)

	case isa.JMP:
		next = int(in.Imm)
		cost = CostBranch

	case isa.JNZ, isa.JZ:
		taken := c.Regs[in.Src1] != 0
		if in.Op == isa.JZ {
			taken = !taken
		}
		if taken {
			next = int(in.Imm)
		}
		cost = c.branchCost(ipBefore, taken)

	case isa.JEQ, isa.JNE, isa.JLT, isa.JGE:
		b := in.Imm
		if !in.UseImm {
			b = c.Regs[in.Src2]
		}
		a := c.Regs[in.Src1]
		var taken bool
		switch in.Op {
		case isa.JEQ:
			taken = a == b
		case isa.JNE:
			taken = a != b
		case isa.JLT:
			taken = a < b
		case isa.JGE:
			taken = a >= b
		}
		if taken {
			next = int(in.Imm2)
		}
		cost = c.branchCost(ipBefore, taken)

	case isa.CALL:
		c.callStack = append(c.callStack, next)
		next = int(in.Imm)
		cost = CostCall
		c.Stats.Calls++

	case isa.RET:
		if len(c.callStack) == 0 {
			if !c.haltOnRet {
				return &TrapError{IP: c.ip, Reason: "ret with empty call stack"}
			}
			// CallFunction mode: returning from the entry function ends
			// the call like HALT ends a program.
			c.halted = true
			cost = CostCall
		} else {
			next = c.callStack[len(c.callStack)-1]
			c.callStack = c.callStack[:len(c.callStack)-1]
			cost = CostCall
		}

	case isa.HALT:
		c.halted = true
	case isa.TRAP:
		return &TrapError{IP: c.ip, Reason: fmt.Sprintf("explicit trap (code %d)", in.Imm)}

	default:
		return &TrapError{IP: c.ip, Reason: fmt.Sprintf("illegal opcode %v", in.Op)}
	}

	c.tsc += cost
	c.Stats.Cycles += cost
	c.Stats.Instructions++
	c.ip = next
	// Retirement events fire after the architectural effects are
	// visible, with the sample's IP pointing at the retiring instruction
	// — matching PEBS "precise distribution" semantics.
	savedIP := c.ip
	c.ip = ipBefore
	c.event(EvInstRetired, c.lastAddr)
	if c.sampling && c.armed == EvCycles {
		c.countdown -= int64(cost)
		if c.countdown <= 0 {
			c.countdown = c.nextPeriod()
			extra := c.hook.Sample(c, EvCycles, c.lastAddr)
			c.tsc += extra
			c.Stats.SampleCycles += extra
		}
	}
	c.ip = savedIP
	return nil
}

func (c *refCPU) noteAccess(lvl int) {
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

func (c *refCPU) branchCost(ip int, taken bool) uint64 {
	c.Stats.Branches++
	if c.bp.Predict(ip, taken) {
		return CostBranch
	}
	c.Stats.BranchMisses++
	c.ip = ip // event attribution: the miss belongs to the branch
	c.event(EvBranchMiss, c.lastAddr)
	return CostBranch + CostBranchMiss
}

func refALU(op isa.Op, a, b int64, ip int) (int64, error) {
	switch op {
	case isa.ADD:
		return a + b, nil
	case isa.SUB:
		return a - b, nil
	case isa.MUL:
		return a * b, nil
	case isa.DIV:
		if b == 0 {
			return 0, &TrapError{IP: ip, Reason: "division by zero"}
		}
		return a / b, nil
	case isa.MOD:
		if b == 0 {
			return 0, &TrapError{IP: ip, Reason: "modulo by zero"}
		}
		return a % b, nil
	case isa.AND:
		return a & b, nil
	case isa.OR:
		return a | b, nil
	case isa.XOR:
		return a ^ b, nil
	case isa.SHL:
		return a << (uint64(b) & 63), nil
	case isa.SHR:
		return int64(uint64(a) >> (uint64(b) & 63)), nil
	case isa.ROTR:
		s := uint64(b) & 63
		u := uint64(a)
		return int64(u>>s | u<<(64-s)), nil
	case isa.CRC32:
		// One mixing step of the paper's hash pipeline (crc32 i64 const, v):
		// a cheap, well-mixing combine, not the real CRC polynomial.
		x := uint64(a) ^ uint64(b)*0x9e3779b97f4a7c15
		x ^= x >> 32
		x *= 0xd6e8feb86659fd93
		x ^= x >> 32
		return int64(x), nil
	case isa.CMPEQ:
		return b2i(a == b), nil
	case isa.CMPNE:
		return b2i(a != b), nil
	case isa.CMPLT:
		return b2i(a < b), nil
	case isa.CMPLE:
		return b2i(a <= b), nil
	case isa.CMPGT:
		return b2i(a > b), nil
	case isa.CMPGE:
		return b2i(a >= b), nil
	}
	return 0, &TrapError{IP: ip, Reason: fmt.Sprintf("alu: bad op %v", op)}
}

type refCacheLevel struct {
	sets      int
	ways      int
	lineShift uint
	tags      []uint64 // sets*ways entries, 0 = empty
	lru       []uint64 // per-line last-use stamp
	clock     uint64
}

func newRefCacheLevel(sizeBytes, ways, lineBytes int) *refCacheLevel {
	sets := sizeBytes / (ways * lineBytes)
	shift := uint(0)
	for 1<<shift < lineBytes {
		shift++
	}
	return &refCacheLevel{
		sets:      sets,
		ways:      ways,
		lineShift: shift,
		tags:      make([]uint64, sets*ways),
		lru:       make([]uint64, sets*ways),
	}
}

// access looks up addr; on miss the line is filled (LRU eviction).
// It returns true on hit.
func (c *refCacheLevel) access(addr uint64) bool {
	line := addr >> c.lineShift
	set := int(line) & (c.sets - 1)
	base := set * c.ways
	c.clock++
	// Tag 0 marks an empty way, so bias stored tags by 1.
	tag := line + 1
	victim := base
	oldest := ^uint64(0)
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.tags[i] == tag {
			c.lru[i] = c.clock
			return true
		}
		if c.lru[i] < oldest {
			oldest = c.lru[i]
			victim = i
		}
	}
	c.tags[victim] = tag
	c.lru[victim] = c.clock
	return false
}

// refHierarchy models L1/L2/L3 data caches.
type refHierarchy struct {
	l1, l2, l3 *refCacheLevel
}

// newRefHierarchy builds the default cache hierarchy: 32 KiB/8-way L1,
// 256 KiB/8-way L2, 8 MiB/16-way L3, all with 64-byte lines.
func newRefHierarchy() *refHierarchy {
	return &refHierarchy{
		l1: newRefCacheLevel(32<<10, 8, 64),
		l2: newRefCacheLevel(256<<10, 8, 64),
		l3: newRefCacheLevel(8<<20, 16, 64),
	}
}

// Access classifies a memory access and updates cache state, returning the
// level that served it (HitL1..HitMem).
func (h *refHierarchy) Access(addr uint64) int {
	if h.l1.access(addr) {
		return HitL1
	}
	if h.l2.access(addr) {
		return HitL2
	}
	if h.l3.access(addr) {
		return HitL3
	}
	return HitMem
}

// refBranchPredictor is a table of 2-bit saturating counters indexed by the
// branch instruction's address.
type refBranchPredictor struct {
	counters []uint8
	mask     int
}

// newRefBranchPredictor builds a predictor with 4096 entries.
func newRefBranchPredictor() *refBranchPredictor {
	n := 4096
	bp := &refBranchPredictor{counters: make([]uint8, n), mask: n - 1}
	for i := range bp.counters {
		bp.counters[i] = 1 // weakly not-taken
	}
	return bp
}

// Predict consumes the branch outcome and reports whether the prediction
// was correct, updating the counter.
func (bp *refBranchPredictor) Predict(ip int, taken bool) bool {
	c := &bp.counters[ip&bp.mask]
	predictedTaken := *c >= 2
	if taken {
		if *c < 3 {
			*c++
		}
	} else {
		if *c > 0 {
			*c--
		}
	}
	return predictedTaken == taken
}

// refSampleHook is SampleHook over the reference CPU.
type refSampleHook interface {
	Sample(c *refCPU, ev Event, addr int64) (extraCycles uint64)
}

func aluCost(op isa.Op) uint64 {
	switch op {
	case isa.MUL:
		return CostMul
	case isa.DIV, isa.MOD:
		return CostDiv
	case isa.CRC32:
		return CostCRC32
	default:
		return CostALU
	}
}
