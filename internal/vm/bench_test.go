package vm

import (
	"testing"

	"repro/internal/isa"
)

// benchProgram is a fixed scan-hash-probe loop shaped like generated query
// code: a sequential scaled load, a hash (CRC32/ROTR/AND), a random probe
// into a 512 KiB table, a data-dependent branch, a store, narrow reloads, a
// call on every eighth tuple, and the loop branch; 16 passes over 4096
// tuples, about a million instructions.
func benchProgram() (*isa.Program, int) {
	const (
		input  = benchInput
		table  = 1 << 20
		tuples = benchTuples
		passes = 16
	)
	code := []isa.Instr{
		{Op: isa.MOVRI, Dst: 1, Imm: input},                             // 0
		{Op: isa.MOVRI, Dst: 2, Imm: table},                             // 1
		{Op: isa.MOVRI, Dst: 3, Imm: tuples},                            // 2
		{Op: isa.MOVRI, Dst: 11, Imm: 0},                                // 3: pass
		{Op: isa.MOVRI, Dst: 0, Imm: 0},                                 // 4: pass head: i = 0
		{Op: isa.LOAD64, Dst: 6, Src1: 1, Src2: 0, Scaled: true},        // 5: loop head
		{Op: isa.CRC32, Dst: 7, Src1: 6, UseImm: true, Imm: 0x5bd1e995}, // 6
		{Op: isa.ROTR, Dst: 7, Src1: 7, UseImm: true, Imm: 17},          // 7
		{Op: isa.AND, Dst: 7, Src1: 7, UseImm: true, Imm: 1<<16 - 1},    // 8
		{Op: isa.LOAD64, Dst: 8, Src1: 2, Src2: 7, Scaled: true},        // 9: probe
		{Op: isa.JEQ, Src1: 8, Src2: 6, Imm2: 13},                       // 10
		{Op: isa.ADD, Dst: 5, Src1: 5, Src2: 8},                         // 11
		{Op: isa.JMP, Imm: 14},                                          // 12
		{Op: isa.SUB, Dst: 5, Src1: 5, UseImm: true, Imm: 1},            // 13
		{Op: isa.AND, Dst: 9, Src1: 0, UseImm: true, Imm: 7},            // 14
		{Op: isa.JNZ, Src1: 9, Imm: 17},                                 // 15
		{Op: isa.CALL, Imm: 28},                                         // 16
		{Op: isa.CMPLT, Dst: 9, Src1: 6, Src2: 5},                       // 17
		{Op: isa.JZ, Src1: 9, Imm: 20},                                  // 18
		{Op: isa.STORE64, Dst: 6, Src1: 2, Src2: 7, Scaled: true},       // 19
		{Op: isa.LOAD32, Dst: 10, Src1: 1, Src2: 0, Scaled: true},       // 20
		{Op: isa.LOAD8, Dst: 10, Src1: 1, Imm: 3},                       // 21
		{Op: isa.XOR, Dst: 5, Src1: 5, Src2: 10},                        // 22
		{Op: isa.ADD, Dst: 0, Src1: 0, UseImm: true, Imm: 1},            // 23
		{Op: isa.JLT, Src1: 0, Src2: 3, Imm2: 5},                        // 24
		{Op: isa.ADD, Dst: 11, Src1: 11, UseImm: true, Imm: 1},          // 25
		{Op: isa.JLT, Src1: 11, UseImm: true, Imm: passes, Imm2: 4},     // 26
		{Op: isa.HALT}, // 27
		{Op: isa.MUL, Dst: 4, Src1: 5, UseImm: true, Imm: 3}, // 28: fn
		{Op: isa.DIV, Dst: 4, Src1: 4, UseImm: true, Imm: 7}, // 29
		{Op: isa.STORE64, Dst: 4, Abs: true, Imm: 256},       // 30
		{Op: isa.RET}, // 31
	}
	return &isa.Program{Code: code}, 2 << 20
}

// Where benchProgram's scanned column lives, and how long it is.
const (
	benchInput  = 64 << 10
	benchTuples = 4096
)

// stageBenchInput fills the scanned column with a fixed pseudo-random
// sequence.
func stageBenchInput(c *CPU) {
	x := uint64(0x9e3779b97f4a7c15)
	for i := int64(0); i < benchTuples; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.WriteI64(benchInput+i*8, int64(x>>20))
	}
}

type countingHook struct{ n int }

func (h *countingHook) Sample(*CPU, Event, int64) uint64 { h.n++; return 240 }

// BenchmarkVMRun reports the host cost of one simulated instruction with
// nothing armed and at the paper's default sampling rate (cycles/5000).
func BenchmarkVMRun(b *testing.B) {
	prog, heap := benchProgram()
	for _, bc := range []struct {
		name   string
		period int64
	}{{"unarmed", 0}, {"cycles5000", 5000}} {
		b.Run(bc.name, func(b *testing.B) {
			c := New(heap)
			stageBenchInput(c)
			hook := &countingHook{}
			var instrs uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Load(prog)
				if bc.period > 0 {
					c.Arm(hook, EvCycles, bc.period, 64)
				}
				st, err := c.Run(0)
				if err != nil {
					b.Fatal(err)
				}
				instrs += st.Instructions
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/inst")
			if bc.period > 0 && hook.n == 0 {
				b.Fatal("armed run took no samples")
			}
		})
	}
}

var sinkLevel int

// BenchmarkHierarchyAccess times the cache model alone on the address
// streams that bound it: the same line again (the fast path), a sequential
// scan (one miss per eight accesses) and uniformly random lines over 16 MiB
// (every level misses), in a hierarchy for any address; and random lines in
// one sized for a 1 MiB heap, whose L3 is the line bitmap.
func BenchmarkHierarchyAccess(b *testing.B) {
	random := func(span uint64) func(int, *uint64) uint64 {
		return func(_ int, x *uint64) uint64 {
			*x ^= *x << 13
			*x ^= *x >> 7
			*x ^= *x << 17
			return *x & (span - 1)
		}
	}
	streams := []struct {
		name  string
		lines uint64
		next  func(i int, x *uint64) uint64
	}{
		{"sameline", maxLines, func(i int, _ *uint64) uint64 { return 4096 + uint64(i&7)*8 }},
		{"sequential", maxLines, func(i int, _ *uint64) uint64 { return uint64(i) * 8 & (16<<20 - 1) }},
		{"random", maxLines, random(16 << 20)},
		{"random1MiBheap", 1 << 20 >> lineShift, random(1 << 20)},
	}
	for _, s := range streams {
		b.Run(s.name, func(b *testing.B) {
			h := newHierarchy(s.lines)
			x := uint64(88172645463325252)
			lvl := 0
			for i := 0; i < b.N; i++ {
				lvl += h.Access(s.next(i, &x))
			}
			sinkLevel = lvl
		})
	}
}
