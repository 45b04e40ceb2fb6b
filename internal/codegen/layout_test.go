package codegen

import (
	"slices"
	"testing"

	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/vm"
)

// TestScanLoopIsBottomTested: a scan loop whose header only compares and
// branches runs one conditional branch per iteration. The header's test
// is copied into the preheader, as a guard taken to the exit, and into
// the latch, as the bottom test taken back to the body; the header itself
// is gone, the induction copies are coalesced, and no JMP or register
// copy runs inside the loop. The Inverted flags are exact for both IR
// branch senses — body as the then and as the else successor — and the
// program computes the host's sum.
func TestScanLoopIsBottomTested(t *testing.T) {
	const n = 50
	arr := int64(testData + 64)
	for _, bodyIsElse := range []bool{false, true} {
		m := sumModule(8, n, func(b *ir.Builder) *ir.Instr { return b.Const(arr) })
		f := m.Funcs[0]
		head, body, done := f.Blocks[1], f.Blocks[2], f.Blocks[3]
		head.Freq, body.Freq = n, n // the trip count, as a plan would estimate it
		br := head.Terminator()
		if bodyIsElse { // i < n → body  becomes  i >= n → done, else body
			br.Args[0].Op = ir.OpCmpGe
			br.Targets[0], br.Targets[1] = done, body
		}
		if err := m.Verify(); err != nil {
			t.Fatal(err)
		}
		res, err := Compile(m, DefaultConfig(0, testSpill, testSpillSz))
		if err != nil {
			t.Fatal(err)
		}
		code := res.Program.Code
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
		// The header's test appears twice: the guard and the bottom test.
		var tests []int
		for pos, ids := range res.NMap.IRs {
			if slices.Contains(ids, br.ID) && code[pos].Op != isa.JMP {
				tests = append(tests, pos)
			}
		}
		if len(tests) != 2 {
			t.Fatalf("bodyIsElse=%v: the header's test is at %v, want a guard and a bottom test:\n%s", bodyIsElse, tests, res.Program.Disasm())
		}
		guard, bottom := tests[0], tests[1]
		start := int(code[bottom].Imm2)
		if blockOf(int(code[guard].Imm2)) != done || blockOf(start) != body || start > bottom || start != guard+1 {
			t.Errorf("bodyIsElse=%v: guard at %d taken to %d, bottom test at %d taken to %d; want the guard taken to the exit and falling into the body, and the bottom test taken back to it:\n%s",
				bodyIsElse, guard, code[guard].Imm2, bottom, start, res.Program.Disasm())
		}
		// Inverted marks a branch taken towards the IR branch's else successor.
		if got, want := res.NMap.Inverted[guard], !bodyIsElse; got != want {
			t.Errorf("bodyIsElse=%v: guard Inverted = %v, want %v", bodyIsElse, got, want)
		}
		if got, want := res.NMap.Inverted[bottom], bodyIsElse; got != want {
			t.Errorf("bodyIsElse=%v: bottom test Inverted = %v, want %v", bodyIsElse, got, want)
		}
		for pos := start; pos < bottom; pos++ {
			if op := code[pos].Op; op == isa.JMP || op == isa.MOVRR || code[pos].IsBranch() {
				t.Errorf("bodyIsElse=%v: the loop runs %s at %d:\n%s", bodyIsElse, op, pos, res.Program.Disasm())
			}
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
			t.Errorf("bodyIsElse=%v: sum = %d, want %d", bodyIsElse, got, want)
		}
		if got := c.Stats.Branches; got != n+1 {
			t.Errorf("bodyIsElse=%v: %d conditional branches ran, want %d: the guard and one per iteration", bodyIsElse, got, n+1)
		}
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
	a, _, err := allocate(lf, &lo.live, false, 0)
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
