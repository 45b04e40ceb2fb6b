package ir

import (
	"strings"
	"testing"
)

func buildLoop(t *testing.T) (*Module, *Func) {
	t.Helper()
	m := NewModule()
	f := m.NewFunc("main", 0)
	b := NewBuilder(f)
	head := b.NewBlock("head")
	body := b.NewBlock("body")
	done := b.NewBlock("done")
	zero := b.Const(0)
	n := b.Const(10)
	b.Br(head)
	b.SetBlock(head)
	i := b.Phi()
	AddIncoming(i, zero)
	cond := b.Bin(OpCmpLt, i, n)
	b.CondBr(cond, body, done)
	b.SetBlock(body)
	i2 := b.Add(i, b.Const(1))
	AddIncoming(i, i2)
	b.Br(head)
	b.SetBlock(done)
	b.Halt()
	return m, f
}

func TestBuilderProducesValidIR(t *testing.T) {
	m, f := buildLoop(t)
	if err := m.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if len(f.Blocks) != 4 {
		t.Fatalf("blocks = %d", len(f.Blocks))
	}
	head := f.Blocks[1]
	if len(head.Preds) != 2 {
		t.Fatalf("head preds = %d", len(head.Preds))
	}
	if succs := head.Succs(); len(succs) != 2 {
		t.Fatalf("head succs = %d", len(succs))
	}
}

func TestUniqueIDs(t *testing.T) {
	m, _ := buildLoop(t)
	seen := map[int]bool{}
	m.ForEachInstr(func(_ *Func, _ *Block, in *Instr) {
		if seen[in.ID] {
			t.Fatalf("duplicate id %d", in.ID)
		}
		seen[in.ID] = true
	})
	if len(seen) != m.InstrCount() {
		t.Fatal("ForEachInstr count mismatch")
	}
}

func TestOnCreateHook(t *testing.T) {
	m := NewModule()
	f := m.NewFunc("f", 0)
	b := NewBuilder(f)
	var created []int
	b.OnCreate = func(in *Instr) { created = append(created, in.ID) }
	b.Const(1)
	b.Halt()
	if len(created) != 2 {
		t.Fatalf("OnCreate fired %d times", len(created))
	}
}

func TestVerifyCatchesMissingTerminator(t *testing.T) {
	m := NewModule()
	f := m.NewFunc("f", 0)
	b := NewBuilder(f)
	b.Const(1) // no terminator
	if err := m.Verify(); err == nil || !strings.Contains(err.Error(), "terminator") {
		t.Fatalf("err = %v", err)
	}
}

func TestVerifyCatchesEmptyBlock(t *testing.T) {
	m := NewModule()
	f := m.NewFunc("f", 0)
	b := NewBuilder(f)
	b.NewBlock("empty")
	b.Halt()
	if err := m.Verify(); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("err = %v", err)
	}
}

func TestVerifyCatchesPhiArityMismatch(t *testing.T) {
	m := NewModule()
	f := m.NewFunc("f", 0)
	b := NewBuilder(f)
	head := b.NewBlock("head")
	b.Br(head)
	b.SetBlock(head)
	b.Phi() // zero incoming for one pred
	b.Halt()
	if err := m.Verify(); err == nil || !strings.Contains(err.Error(), "incoming") {
		t.Fatalf("err = %v", err)
	}
}

func TestVerifyCatchesMidBlockTerminator(t *testing.T) {
	m := NewModule()
	f := m.NewFunc("f", 0)
	b := NewBuilder(f)
	blk2 := b.NewBlock("b2")
	b.Br(blk2)
	b.SetBlock(blk2)
	h := b.Halt()
	// Sneak an instruction after the terminator behind the builder's back.
	extra := &Instr{ID: m.NewID(), Op: OpConst, Type: I64, Block: blk2}
	blk2.Instrs = append(blk2.Instrs, extra)
	_ = h
	if err := m.Verify(); err == nil {
		t.Fatal("expected mid-block terminator error")
	}
}

func TestVerifyCatchesVoidOperand(t *testing.T) {
	m := NewModule()
	f := m.NewFunc("f", 0)
	b := NewBuilder(f)
	st := b.Store(64, b.Const(8), b.Const(1))
	// Abuse: make another instruction consume the void store.
	bad := &Instr{ID: m.NewID(), Op: OpAdd, Type: I64, Args: []*Instr{st, st}, Block: b.Cur}
	b.Cur.Instrs = append(b.Cur.Instrs, bad)
	b.Halt()
	if err := m.Verify(); err == nil || !strings.Contains(err.Error(), "void") {
		t.Fatalf("err = %v", err)
	}
}

func TestBuilderPanicsOnTerminatedBlock(t *testing.T) {
	m := NewModule()
	f := m.NewFunc("f", 0)
	b := NewBuilder(f)
	b.Halt()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on emitting into terminated block")
		}
	}()
	b.Const(1)
}

func TestPrinterRendersListingShapes(t *testing.T) {
	m, f := buildLoop(t)
	_ = m
	out := f.Print(nil)
	for _, want := range []string{"func main", "head:", "phi", "condbr", "cmplt", "halt"} {
		if !strings.Contains(out, want) {
			t.Errorf("printer output missing %q:\n%s", want, out)
		}
	}
}

func TestPrinterAnnotations(t *testing.T) {
	m, f := buildLoop(t)
	_ = m
	out := f.Print(testAnnotator{})
	if !strings.Contains(out, "42.0%") || !strings.Contains(out, "hash join") {
		t.Fatalf("annotations missing:\n%s", out)
	}
	if !strings.Contains(out, "(hot)") {
		t.Fatalf("block header missing:\n%s", out)
	}
}

type testAnnotator struct{}

func (testAnnotator) AppendPrefix(dst []byte, in *Instr) []byte { return append(dst, "42.0%"...) }
func (testAnnotator) AppendSuffix(dst []byte, in *Instr) []byte { return append(dst, "hash join"...) }
func (testAnnotator) AppendBlockHeader(dst []byte, b *Block) []byte {
	return append(dst, "(hot)"...)
}

func TestFormatInstrVariants(t *testing.T) {
	m := NewModule()
	f := m.NewFunc("f", 1)
	b := NewBuilder(f)
	p := b.Param(0)
	c := b.Const(7)
	call := b.Call("ht_insert", true, p, c)
	b.Store(64, call, c)
	b.SetTag(c)
	g := b.GetTag()
	_ = g
	b.Trap(3)
	checks := []string{"param 0", "const i64 7", "call @ht_insert", "store64", "settag", "gettag", "trap 3"}
	out := f.Print(nil)
	for _, want := range checks {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestIsPureClassification(t *testing.T) {
	pure := []Op{OpAdd, OpMul, OpCrc32, OpCmpEq, OpConst}
	impure := []Op{OpLoad64, OpStore64, OpCall, OpPhi, OpBr, OpSetTag, OpSDiv}
	for _, op := range pure {
		if !op.IsPure() {
			t.Errorf("%v should be pure", op)
		}
	}
	for _, op := range impure {
		if op.IsPure() {
			t.Errorf("%v should not be pure", op)
		}
	}
}

func TestFuncByName(t *testing.T) {
	m := NewModule()
	m.NewFunc("a", 0)
	m.NewFunc("b", 0)
	if m.FuncByName("b") == nil || m.FuncByName("z") != nil {
		t.Fatal("FuncByName lookup broken")
	}
}
