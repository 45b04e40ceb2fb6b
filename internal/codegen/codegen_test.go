package codegen

import (
	"fmt"
	"testing"

	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/vm"
)

const (
	testHeap    = 1 << 20
	testSpill   = 128
	testSpillSz = 4096
	testData    = 8192
)

func compileAndRun(t *testing.T, m *ir.Module, setup func(c *vm.CPU)) *vm.CPU {
	t.Helper()
	if err := m.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	res, err := Compile(m, DefaultConfig(0, testSpill, testSpillSz))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	c := vm.New(testHeap)
	if setup != nil {
		setup(c)
	}
	c.Load(res.Program)
	if _, err := c.Run(10_000_000); err != nil {
		t.Fatalf("run: %v\n%s", err, res.Program.Disasm())
	}
	return c
}

// TestSumLoop compiles a loop that sums 100 consecutive int64s and checks
// the result, exercising phis, fused branches, loads and stores.
func TestSumLoop(t *testing.T) {
	m := ir.NewModule()
	f := m.NewFunc("main", 0)
	b := ir.NewBuilder(f)

	head := b.NewBlock("head")
	body := b.NewBlock("body")
	done := b.NewBlock("done")

	base := b.Const(testData)
	n := b.Const(100)
	zero := b.Const(0)
	b.Br(head)

	b.SetBlock(head)
	i := b.Phi()
	sum := b.Phi()
	ir.AddIncoming(i, zero)
	ir.AddIncoming(sum, zero)
	cond := b.Bin(ir.OpCmpLt, i, n)
	b.CondBr(cond, body, done)

	b.SetBlock(body)
	off := b.Mul(i, b.Const(8))
	addr := b.Add(base, off)
	v := b.Load(64, addr)
	sum2 := b.Add(sum, v)
	i2 := b.Add(i, b.Const(1))
	ir.AddIncoming(i, i2)
	ir.AddIncoming(sum, sum2)
	b.Br(head)

	b.SetBlock(done)
	out := b.Const(testData + 4096)
	b.Store(64, out, sum)
	b.Halt()

	c := compileAndRun(t, m, func(c *vm.CPU) {
		for k := 0; k < 100; k++ {
			c.WriteI64(testData+int64(k)*8, int64(k+1))
		}
	})
	if got := c.ReadI64(testData + 4096); got != 5050 {
		t.Fatalf("sum = %d, want 5050", got)
	}
}

// TestCallRuntime exercises ht_insert: inserts 3 keyed entries, then walks
// the chain structure from the host side.
func TestCallRuntime(t *testing.T) {
	const (
		desc  = int64(testData)
		dir   = int64(testData + 256)
		arena = int64(testData + 1024)
	)
	m := ir.NewModule()
	f := m.NewFunc("main", 0)
	b := ir.NewBuilder(f)

	descC := b.Const(desc)
	for k := int64(0); k < 3; k++ {
		hash := b.Const(7) // all collide into one chain
		entry := b.Call(SymHTInsert, true, descC, hash, b.Const(HTEntryHeader+8))
		keyAddr := b.Add(entry, b.Const(HTEntryHeader))
		b.Store(64, keyAddr, b.Const(100+k))
	}
	b.Halt()

	c := compileAndRun(t, m, func(c *vm.CPU) {
		c.WriteI64(desc+HTDescDir, dir)
		c.WriteI64(desc+HTDescMask, 15)
		c.WriteI64(desc+HTDescCursor, arena)
		c.WriteI64(desc+HTDescEnd, arena+4096)
	})

	head := c.ReadI64(dir + (7&15)*8)
	if head == 0 {
		t.Fatal("chain head not set")
	}
	var keys []int64
	for e := head; e != 0; e = c.ReadI64(e + HTEntryNext) {
		if h := c.ReadI64(e + HTEntryHash); h != 7 {
			t.Fatalf("entry hash = %d, want 7", h)
		}
		keys = append(keys, c.ReadI64(e+HTEntryHeader))
	}
	if len(keys) != 3 || keys[0] != 102 || keys[1] != 101 || keys[2] != 100 {
		t.Fatalf("chain keys = %v, want [102 101 100]", keys)
	}
}

// TestRegisterPressureSpills forces more live values than registers and
// checks both correctness and that spilling actually happened.
func TestRegisterPressureSpills(t *testing.T) {
	m := ir.NewModule()
	f := m.NewFunc("main", 0)
	b := ir.NewBuilder(f)

	// 16 loaded values all live until the final combine.
	var vals []*ir.Instr
	base := b.Const(testData)
	for k := 0; k < 16; k++ {
		addr := b.Add(base, b.Const(int64(k)*8))
		vals = append(vals, b.Load(64, addr))
	}
	acc := vals[0]
	for _, v := range vals[1:] {
		acc = b.Add(acc, v)
	}
	b.Store(64, b.Const(testData+4096), acc)
	b.Halt()

	if err := m.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	res, err := Compile(m, DefaultConfig(0, testSpill, testSpillSz))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	// All 16 values are live simultaneously; with ≤10 allocatable
	// registers some must spill.
	if res.Spills == 0 {
		t.Fatal("expected spills under register pressure")
	}
	c := vm.New(testHeap)
	for k := 0; k < 16; k++ {
		c.WriteI64(testData+int64(k)*8, int64(1)<<k)
	}
	c.Load(res.Program)
	if _, err := c.Run(0); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := c.ReadI64(testData + 4096); got != (1<<16)-1 {
		t.Fatalf("acc = %d, want %d", got, (1<<16)-1)
	}
}

// TestTagRegisterReserved checks that enabling Register Tagging removes
// isa.TagReg from generated code except for tag writes.
func TestTagRegisterReserved(t *testing.T) {
	m := ir.NewModule()
	f := m.NewFunc("main", 0)
	b := ir.NewBuilder(f)
	prev := b.GetTag()
	b.SetTag(b.Const(42))
	// Some register pressure so the allocator would love to use r11.
	base := b.Const(testData)
	var vals []*ir.Instr
	for k := 0; k < 12; k++ {
		vals = append(vals, b.Load(64, b.Add(base, b.Const(int64(k)*8))))
	}
	acc := vals[0]
	for _, v := range vals[1:] {
		acc = b.Add(acc, v)
	}
	b.Store(64, b.Const(testData+4096), acc)
	b.SetTag(prev)
	b.Halt()

	cfg := DefaultConfig(0, testSpill, testSpillSz)
	cfg.RegisterTagging = true
	res, err := Compile(m, cfg)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	for i, in := range res.Program.Code {
		sym := res.Program.FuncAt(i)
		if sym != nil && sym.Name != "main" {
			continue // runtime routines use their own registers
		}
		writesTag := (in.Op == isa.MOVRI || in.Op == isa.MOVRR) && in.Dst == isa.TagReg
		readsTag := in.Op == isa.MOVRR && in.Src1 == isa.TagReg
		if writesTag || readsTag {
			continue
		}
		if in.Dst == isa.TagReg && !in.IsStore() && in.Op != isa.NOP && in.Op != isa.JMP &&
			in.Op != isa.HALT && in.Op != isa.RET {
			t.Fatalf("instr %d (%s) allocates the reserved tag register", i, in.String())
		}
	}
	// And with tagging the tag value must survive execution.
	c := vm.New(testHeap)
	c.Load(res.Program)
	if _, err := c.Run(0); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := c.Regs[isa.TagReg]; got != 0 {
		t.Fatalf("tag register after restore = %d, want 0", got)
	}
}

// TestDebugInfoCoverage checks that every generated (non-runtime) native
// instruction carries IR lineage — the property attribution relies on.
func TestDebugInfoCoverage(t *testing.T) {
	m := ir.NewModule()
	f := m.NewFunc("main", 0)
	b := ir.NewBuilder(f)
	x := b.Load(64, b.Const(testData))
	y := b.Mul(x, b.Const(3))
	b.Store(64, b.Const(testData+8), y)
	b.Halt()

	res, err := Compile(m, DefaultConfig(0, testSpill, testSpillSz))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	for i := range res.Program.Code {
		sym := res.Program.FuncAt(i)
		if sym == nil || sym.Name != "main" {
			continue
		}
		if len(res.NMap.IRs[i]) == 0 {
			t.Errorf("native instr %d (%s) has no debug info", i, res.Program.Code[i].String())
		}
	}
}

// DeadDefs lowers every function of m the way Compile does and reports the
// first pure LIR def whose register no instruction reads, self-copy, or
// block the entry does not reach. Exported (from a test file) for the
// external suite test.
func DeadDefs(m *ir.Module, cfg Config) error {
	lo := newLowerer(m, &cfg)
	for _, f := range m.Funcs {
		lf, err := lo.lowerFunc(f)
		if err != nil {
			return err
		}
		reached := map[int]bool{0: true}
		for work := []int{0}; len(work) > 0; {
			b := lf.blocks[work[len(work)-1]]
			work = work[:len(work)-1]
			for _, s := range b.succs {
				if !reached[s] {
					reached[s] = true
					work = append(work, s)
				}
			}
		}
		for bi, b := range lf.blocks {
			if !reached[bi] {
				return fmt.Errorf("%s/%s: no path from the entry reaches the block", f.Name, b.name)
			}
			for i := range b.ins {
				if l := &b.ins[i]; l.isCopy() && l.dst == l.a {
					return fmt.Errorf("%s/%s: self-copy of v%d (IR %v)", f.Name, b.name, l.dst, l.irIDs)
				}
			}
		}
		read := map[vreg]bool{}
		var buf [2]vreg
		for _, b := range lf.blocks {
			for i := range b.ins {
				_, uses := b.ins[i].operands(&buf)
				for _, u := range uses {
					read[u] = true
				}
			}
		}
		for _, b := range lf.blocks {
			for i := range b.ins {
				if l := &b.ins[i]; l.pure() && !read[l.dst] {
					return fmt.Errorf("%s/%s: %s into v%d (IR %v) is never read", f.Name, b.name, l.op, l.dst, l.irIDs)
				}
			}
		}
	}
	return nil
}
