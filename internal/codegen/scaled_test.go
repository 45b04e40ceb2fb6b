package codegen

import (
	"encoding/binary"
	"testing"

	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/vm"
)

// scaledSumModule sums n values of width bytes from an array whose base is
// read from memory (so it is no constant lowering could fold):
// sum += load<width>(base + i*width), the shape of a column scan. A 1-byte
// element's address is Add(base, i), with no multiply.
func scaledSumModule(width int64, n int64) *ir.Module {
	return sumModule(width, n, func(b *ir.Builder) *ir.Instr { return b.Load(64, b.Const(testData)) })
}

// sumModule is scaledSumModule over the array whose base base emits.
func sumModule(width int64, n int64, base func(*ir.Builder) *ir.Instr) *ir.Module {
	m := ir.NewModule()
	f := m.NewFunc("main", 0)
	b := ir.NewBuilder(f)
	head := b.NewBlock("head")
	body := b.NewBlock("body")
	done := b.NewBlock("done")

	arr := base(b)
	zero := b.Const(0)
	b.Br(head)

	b.SetBlock(head)
	i := b.Phi()
	sum := b.Phi()
	ir.AddIncoming(i, zero)
	ir.AddIncoming(sum, zero)
	b.CondBr(b.Bin(ir.OpCmpLt, i, b.Const(n)), body, done)

	b.SetBlock(body)
	off := i
	if width > 1 {
		off = b.Mul(i, b.Const(width))
	}
	v := b.Load(int(width)*8, b.Add(arr, off))
	sum2 := b.Add(sum, v)
	i2 := b.Add(i, b.Const(1))
	ir.AddIncoming(i, i2)
	ir.AddIncoming(sum, sum2)
	b.Br(head)

	b.SetBlock(done)
	b.Store(64, b.Const(testData+8), sum)
	b.Halt()
	return m
}

// TestScaledFusionEveryWidth: a load of every width from an array whose
// base is a register — LOAD64, LOAD32, LOAD16 and LOAD8 — keeps its
// address arithmetic instead of taking the scaled addressing mode, and the
// program computes the sum, sign- and zero-extension included. Only a constant
// base fuses (TestConstantBaseScanHasNoMul).
func TestScaledFusionEveryWidth(t *testing.T) {
	const n = 50
	for _, tc := range []struct {
		width int64
		op    isa.Op
		val   func(k int) int64
	}{
		{8, isa.LOAD64, func(k int) int64 { return int64(k)<<40 - 7 }},
		{4, isa.LOAD32, func(k int) int64 { return int64(k)*1000 - 20000 }},
		{2, isa.LOAD16, func(k int) int64 { return int64(65535 - k) }},
		{1, isa.LOAD8, func(k int) int64 { return int64(200 + k) }},
	} {
		arr := int64(testData + 64)
		var want int64
		m := scaledSumModule(tc.width, n)
		if err := m.Verify(); err != nil {
			t.Fatal(err)
		}
		res, err := Compile(m, DefaultConfig(0, testSpill, testSpillSz))
		if err != nil {
			t.Fatal(err)
		}
		c := vm.New(testHeap)
		c.WriteI64(testData, arr)
		for k := 0; k < n; k++ {
			v, at := tc.val(k), arr+int64(k)*tc.width
			want += v
			switch tc.width {
			case 8:
				binary.LittleEndian.PutUint64(c.Heap[at:], uint64(v))
			case 4:
				binary.LittleEndian.PutUint32(c.Heap[at:], uint32(v))
			case 2:
				binary.LittleEndian.PutUint16(c.Heap[at:], uint16(v))
			case 1:
				c.Heap[at] = byte(v)
			}
		}
		c.Load(res.Program)
		if _, err := c.Run(1_000_000); err != nil {
			t.Fatalf("width %d: run: %v", tc.width, err)
		}
		if got := c.ReadI64(testData + 8); got != want {
			t.Errorf("width %d: sum = %d, want %d", tc.width, got, want)
		}
		fn := res.Program.Funcs[0]
		if fn.Name != "main" {
			t.Fatalf("first function is %s", fn.Name)
		}
		for _, in := range res.Program.Code[fn.Entry:fn.End] {
			if in.Op == tc.op && in.Scaled {
				t.Errorf("width %d: a register-base load took the scaled mode:\n%s", tc.width, res.Program.Disasm())
				break
			}
		}
	}
}

// TestConstantBaseScanHasNoMul: a scan over an array at a layout constant
// — a column region — addresses each element as [c + i*width] in every
// compile, profiled or not: the loop keeps no multiply, shift or address
// add, and sums what the array holds.
func TestConstantBaseScanHasNoMul(t *testing.T) {
	const n = 50
	arr := int64(testData + 64)
	for _, tc := range []struct {
		width int64
		op    isa.Op
	}{{8, isa.LOAD64}, {4, isa.LOAD32}, {2, isa.LOAD16}} {
		m := sumModule(tc.width, n, func(b *ir.Builder) *ir.Instr { return b.Const(arr) })
		if err := m.Verify(); err != nil {
			t.Fatal(err)
		}
		res, err := Compile(m, DefaultConfig(0, testSpill, testSpillSz))
		if err != nil {
			t.Fatal(err)
		}
		c := vm.New(testHeap)
		var want int64
		for k := int64(0); k < n; k++ {
			v := k*k - 300
			if tc.width == 2 {
				v = 65535 - k*k // zero-extended: 2 bytes hold no negative
			}
			want += v
			switch tc.width {
			case 8:
				binary.LittleEndian.PutUint64(c.Heap[arr+k*8:], uint64(v))
			case 4:
				binary.LittleEndian.PutUint32(c.Heap[arr+k*4:], uint32(v))
			default:
				binary.LittleEndian.PutUint16(c.Heap[arr+k*2:], uint16(v))
			}
		}
		c.Load(res.Program)
		if _, err := c.Run(1_000_000); err != nil {
			t.Fatalf("width %d: run: %v", tc.width, err)
		}
		if got := c.ReadI64(testData + 8); got != want {
			t.Errorf("width %d: sum = %d, want %d", tc.width, got, want)
		}
		scaled, addr := 0, 0
		for _, in := range res.Program.Code {
			switch {
			case in.Op == tc.op && in.Abs && in.Scaled && in.Imm == arr:
				scaled++
			case in.Op == isa.MUL || in.Op == isa.SHL || in.Op == isa.MOVRI && in.Imm == arr:
				addr++
			}
		}
		if scaled != 1 || addr != 0 {
			t.Errorf("width %d: %d loads [%d + i*%d], %d address instructions; want 1 and 0:\n%s",
				tc.width, scaled, arr, tc.width, addr, res.Program.Disasm())
		}
	}
}
