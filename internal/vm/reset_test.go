package vm

import (
	"errors"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/isa"
)

// dirty leaves no field of c as New built it: a program that stores over
// half a MiB twice (DRAM, then L3), loads 128 KiB twice (L2) and a line
// twice (L1), mispredicts its loop branches, runs under a jittered
// load-event hook and traps inside a call; then the three fields no
// program ending in a trap can reach are set by hand. c's heap must hold
// 1 MiB; the cache model's L3 is the line bitmap up to 8 MiB and tags
// beyond.
func dirty(t testing.TB, c *CPU) {
	t.Helper()
	const kib = 1 << 10
	for i := range c.Heap {
		c.Heap[i] = byte(i*7 + i>>8)
	}
	c.Load(&isa.Program{Code: []isa.Instr{
		{Op: isa.MOVRI, Dst: 1, Imm: 2},                                  // 0
		{Op: isa.MOVRI, Dst: 2, Imm: 0},                                  // 1: pass
		{Op: isa.STORE64, Dst: 1, Src1: 2},                               // 2: line
		{Op: isa.ADD, Dst: 2, Src1: 2, UseImm: true, Imm: lineBytes},     // 3
		{Op: isa.JLT, Src1: 2, UseImm: true, Imm: 512 * kib, Imm2: 2},    // 4
		{Op: isa.SUB, Dst: 1, Src1: 1, UseImm: true, Imm: 1},             // 5
		{Op: isa.JNZ, Src1: 1, Imm: 1},                                   // 6
		{Op: isa.MOVRI, Dst: 1, Imm: 2},                                  // 7
		{Op: isa.MOVRI, Dst: 2, Imm: 512 * kib},                          // 8: pass
		{Op: isa.LOAD64, Dst: 4, Src1: 2},                                // 9: line
		{Op: isa.LOAD32, Dst: 5, Src1: 2, Imm: 8},                        // 10: same line, L1
		{Op: isa.ADD, Dst: 2, Src1: 2, UseImm: true, Imm: lineBytes},     // 11
		{Op: isa.JLT, Src1: 2, UseImm: true, Imm: 640 * kib, Imm2: 9},    // 12
		{Op: isa.SUB, Dst: 1, Src1: 1, UseImm: true, Imm: 1},             // 13
		{Op: isa.JNZ, Src1: 1, Imm: 8},                                   // 14
		{Op: isa.CALL, Imm: 17},                                          // 15
		{Op: isa.HALT},                                                   // 16
		{Op: isa.STORE8, Dst: 2, Abs: true, Imm: int64(len(c.Heap)) - 1}, // 17: the last byte
		{Op: isa.TRAP, Imm: 9},                                           // 18
	}})
	hook := &countingHook{}
	c.Arm(hook, EvMemLoads, 97, 8)
	_, err := c.Run(0)
	var trap *TrapError
	if !errors.As(err, &trap) || trap.IP != 18 {
		t.Fatalf("the dirtying program ended with %v, want the trap at 18", err)
	}
	s := c.Stats
	if s.L1Hits == 0 || s.L2Hits == 0 || s.L3Hits == 0 || s.MemAccesses == 0 || s.BranchMisses == 0 || s.Calls == 0 || s.SampleCycles == 0 || hook.n == 0 {
		t.Fatalf("the dirtying program left a counter at zero: %+v, %d samples", s, hook.n)
	}
	c.halted, c.haltOnRet, c.FreqGHz = true, true, 2
}

// field returns field i of c, unexported ones included, as a value
// reflect.DeepEqual accepts.
func field(c *CPU, i int) any {
	f := reflect.ValueOf(c).Elem().Field(i)
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().Interface()
}

// sameField compares one field of two CPUs; a buffer emptied and a buffer
// never made are the same, and so are two cache models that answer every
// access alike, whatever unused tags a recycled one keeps.
func sameField(a, b *CPU, i int) bool {
	if reflect.TypeOf(CPU{}).Field(i).Name == "caches" {
		x, y := &a.caches, &b.caches
		return x.l3Tags == y.l3Tags && x.l1 == y.l1 && x.l2 == y.l2 && slices.Equal(x.seen, y.seen) && (!x.l3Tags || *x.l3 == *y.l3)
	}
	x, y := field(a, i), field(b, i)
	if v, w := reflect.ValueOf(x), reflect.ValueOf(y); v.Kind() == reflect.Slice && v.Len() == 0 && w.Len() == 0 {
		return true
	}
	return reflect.DeepEqual(x, y)
}

// TestResetEqualsNew walks CPU's own field list: after dirty every field
// must differ from a new CPU's — so a field added later fails here until
// dirty reaches it — and after Reset every field must equal it again. One
// machine goes back and forth between a 1 MiB heap (L3 the line bitmap) and
// one above 8 MiB (L3's tags), so each reset finds the representation it
// switches to dirtied by an earlier run.
func TestResetEqualsNew(t *testing.T) {
	const small, big = 1 << 20, 8<<20 + lineBytes
	typ := reflect.TypeOf(CPU{})
	c, n := New(small), small
	for _, m := range []int{big, big, small, small, big, 0, small} {
		if n > 0 {
			fresh := New(n)
			dirty(t, c)
			for i := 0; i < typ.NumField(); i++ {
				if sameField(c, fresh, i) {
					t.Errorf("%d-byte heap: dirty leaves CPU.%s as New built it; extend it, or Reset is not tested for that field", n, typ.Field(i).Name)
				}
			}
			if n == small && slices.Equal(c.caches.seen, fresh.caches.seen) || n == big && *c.caches.l3 == *fresh.caches.l3 {
				t.Errorf("%d-byte heap: dirty leaves L3 as New built it", n)
			}
		}
		c.Reset(m)
		fresh := New(m)
		for i := 0; i < typ.NumField(); i++ {
			if !sameField(c, fresh, i) {
				t.Errorf("%d-byte heap reset to %d bytes: CPU.%s differs from a new CPU's", n, m, typ.Field(i).Name)
			}
		}
		n = m
	}
}

// TestResetReslicesHeap: a smaller heap and then a larger one inside the old
// capacity reuse the backing array, and every byte reads zero — also those
// between the two sizes, which the smaller heap's run could not have
// cleared; a heap beyond the capacity is a new one.
func TestResetReslicesHeap(t *testing.T) {
	const n = 1 << 20
	c := New(n)
	dirty(t, c)
	base := &c.Heap[0]
	for _, size := range []int{n / 4, n / 2, n, 0, 2 * n} {
		c.Reset(size)
		if len(c.Heap) != size {
			t.Fatalf("Reset(%d): heap of %d bytes", size, len(c.Heap))
		}
		for i, b := range c.Heap {
			if b != 0 {
				t.Fatalf("Reset(%d): byte %d reads %d", size, i, b)
			}
		}
		if reused := size > 0 && &c.Heap[0] == base; reused != (size > 0 && size <= n) {
			t.Errorf("Reset(%d): backing array reused = %v", size, reused)
		}
		for i := range c.Heap {
			c.Heap[i] = 0xa5
		}
	}
}

// TestResetAllocatesNothing: within the heap's capacity a reset is clearing
// only, whether the cache model answers L3 from the bitmap or from L3's
// tags, and also across the 8 MiB boundary, as a session's machine crosses
// it between a one-core heap and a parallel run's full heap: the machine
// keeps both once built.
func TestResetAllocatesNothing(t *testing.T) {
	const big = 8<<20 + lineBytes
	for _, sizes := range [][]int{{1 << 12}, {1 << 20}, {big}, {1 << 20, big}, {big, 0, 8 << 20}} {
		c := New(slices.Max(sizes) + 1<<12)
		c.Load(&isa.Program{Code: []isa.Instr{{Op: isa.CALL, Imm: 1}, {Op: isa.HALT}}})
		if _, err := c.Run(0); err != nil {
			t.Fatal(err)
		}
		// AllocsPerRun's warm-up run is the first reset to each size.
		allocs := testing.AllocsPerRun(20, func() {
			for _, n := range sizes {
				c.Reset(n)
			}
		})
		if allocs != 0 {
			t.Errorf("Resets to %v allocated %v times", sizes, allocs)
		}
	}
}
