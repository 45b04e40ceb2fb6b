package codegen

import (
	"slices"
	"testing"

	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/vm"
)

// TestScanLoopFallsIntoBody: in an unguided compile, a scan loop's header
// branch is inverted from the block counts alone — it is taken to the
// loop exit, marked Inverted, and falls through into the loop body.
func TestScanLoopFallsIntoBody(t *testing.T) {
	const n = 50
	arr := int64(testData + 64)
	m := sumModule(8, n, func(b *ir.Builder) *ir.Instr { return b.Const(arr) })
	f := m.Funcs[0]
	head, body, done := f.Blocks[1], f.Blocks[2], f.Blocks[3]
	head.Freq, body.Freq = n, n // the trip count, as a plan would estimate it
	res, err := Compile(m, DefaultConfig(0, testSpill, testSpillSz))
	if err != nil {
		t.Fatal(err)
	}
	blockOf := func(pos int) *ir.Block {
		ids := res.NMap.IRs[pos]
		var b *ir.Block
		m.ForEachInstr(func(_ *ir.Func, blk *ir.Block, in *ir.Instr) {
			if len(ids) > 0 && in.ID == ids[len(ids)-1] {
				b = blk
			}
		})
		return b
	}
	br := head.Terminator()
	pos := slices.IndexFunc(res.NMap.IRs, func(ids []int) bool { return slices.Contains(ids, br.ID) })
	if pos < 0 {
		t.Fatal("header branch not emitted")
	}
	in := res.Program.Code[pos]
	if !in.IsBranch() || in.Op == isa.JMP {
		t.Fatalf("header lowers to %s, not a conditional branch:\n%s", in.Op, res.Program.Disasm())
	}
	if got := blockOf(int(in.Imm2)); got != done || !res.NMap.Inverted[pos] {
		t.Errorf("header branch taken to %v (Inverted %v), want the exit, inverted:\n%s",
			got, res.NMap.Inverted[pos], res.Program.Disasm())
	}
	if got := blockOf(pos + 1); got != body {
		t.Errorf("header falls through into %v, want the body:\n%s", got, res.Program.Disasm())
	}

	c := vm.New(testHeap)
	var want int64
	for k := int64(0); k < n; k++ {
		want += 3*k - 7
		c.WriteI64(arr+8*k, 3*k-7)
	}
	c.Load(res.Program)
	if _, err := c.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if got := c.ReadI64(testData + 8); got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
}

// hoistConst is the loop-invariant constant of
// TestHoistedConstantRematerialized.
const hoistConst = 1_000_003

// hoistModule builds a loop whose body subtracts its accumulator from a
// constant — the constant is SUB's first operand, so it needs a register
// — and adds hot values loaded before the loop, which leave too few
// registers for everything the loop reads. With hoisted set the constant
// is defined in the preheader, the entry block, and lives across the
// whole loop; otherwise in the loop body, at its use.
func hoistModule(hot, n int, hoisted bool) (m *ir.Module, k *ir.Instr) {
	m = ir.NewModule()
	f := m.NewFunc("main", 0)
	b := ir.NewBuilder(f)
	head := b.NewBlock("head")
	body := b.NewBlock("body")
	done := b.NewBlock("done")
	head.Freq, body.Freq = float64(n), float64(n)

	var hots []*ir.Instr
	for i := 0; i < hot; i++ {
		hots = append(hots, b.Load(64, b.Const(testData+int64(8*i))))
	}
	zero := b.Const(0)
	lim := b.Const(int64(n))
	if hoisted {
		k = b.Const(hoistConst)
	}
	b.Br(head)

	b.SetBlock(head)
	iv, acc := b.Phi(), b.Phi()
	ir.AddIncoming(iv, zero)
	ir.AddIncoming(acc, zero)
	b.CondBr(b.Bin(ir.OpCmpLt, iv, lim), body, done)

	b.SetBlock(body)
	if !hoisted {
		k = b.Const(hoistConst)
	}
	sum := b.Bin(ir.OpSub, k, acc)
	for _, h := range hots {
		sum = b.Add(sum, h)
	}
	ir.AddIncoming(iv, b.Add(iv, b.Const(1)))
	ir.AddIncoming(acc, sum)
	b.Br(head)

	b.SetBlock(done)
	b.Store(64, b.Const(testData+4096), acc)
	b.Halt()
	return m, k
}

// TestHoistedConstantRematerialized: a constant defined in a loop's
// preheader that then loses its register is re-materialized at its use —
// a MOVRI in the loop — and never gets a spill slot; the program computes
// what the unhoisted one and the Go reference compute.
func TestHoistedConstantRematerialized(t *testing.T) {
	const hot, n = 16, 40
	vals := make([]int64, hot)
	var step int64
	for i := range vals {
		vals[i] = int64(i*i) - 50
		step += vals[i]
	}
	var want int64
	for i := 0; i < n; i++ {
		want = hoistConst - want + step
	}
	run := func(m *ir.Module) *Result {
		t.Helper()
		if err := m.Verify(); err != nil {
			t.Fatal(err)
		}
		res, err := Compile(m, DefaultConfig(0, testSpill, testSpillSz))
		if err != nil {
			t.Fatal(err)
		}
		c := vm.New(testHeap)
		for i, v := range vals {
			c.WriteI64(testData+int64(8*i), v)
		}
		c.Load(res.Program)
		if _, err := c.Run(1_000_000); err != nil {
			t.Fatal(err)
		}
		if got := c.ReadI64(testData + 4096); got != want {
			t.Fatalf("result %d, want %d:\n%s", got, want, res.Program.Disasm())
		}
		return res
	}
	plain, _ := hoistModule(hot, n, false)
	run(plain)

	m, k := hoistModule(hot, n, true)
	if k.Block != m.Funcs[0].Entry() {
		t.Fatalf("the constant is in %s, want the preheader", k.Block.Name)
	}
	cfg := DefaultConfig(0, testSpill, testSpillSz)
	lo := newLowerer(m, &cfg)
	lf, err := lo.lowerFunc(m.Funcs[0])
	if err != nil {
		t.Fatal(err)
	}
	lo.layoutFunc(lf)
	a, _, err := allocate(lf, false, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := a.remat(lo.regOf[k.ID]); !ok {
		t.Fatalf("the hoisted constant holds loc %d, want re-materialized", a.loc[lo.regOf[k.ID]])
	}

	res := run(m)
	remats := 0
	for pos, in := range res.Program.Code {
		if slot, store, ok := res.SpillAccess(pos); ok && store && slices.Contains(res.NMap.IRs[pos], k.ID) {
			t.Errorf("the constant is stored to spill slot %d at %d", slot, pos)
		}
		if in.Op == isa.MOVRI && in.Imm == hoistConst && !slices.Contains(res.NMap.IRs[pos], k.ID) {
			remats++ // carries its use's IR IDs, in the loop
		}
	}
	if remats == 0 {
		t.Errorf("no MOVRI re-materializes the constant at its use:\n%s", res.Program.Disasm())
	}
}

// BlockOrder lowers every function of m the way Compile does and returns
// its blocks' names ("func/block") in layout order. Exported (from a test
// file) for the external suite test.
func BlockOrder(m *ir.Module, cfg Config) ([]string, error) {
	lo := newLowerer(m, &cfg)
	var out []string
	for _, f := range m.Funcs {
		lf, err := lo.lowerFunc(f)
		if err != nil {
			return nil, err
		}
		lo.layoutFunc(lf)
		for _, b := range lf.blocks {
			out = append(out, f.Name+"/"+b.name)
		}
	}
	return out, nil
}
