package iropt

import (
	"testing"

	"repro/internal/ir"
)

// loopFixture builds a scan-shaped function: entry → head (phi i, i < n)
// → body → match (hot: body's count times fanout) → next → head. match
// loads a column at [1000 + i*8] and hashes it; body loads a parameter.
type loopFixture struct {
	h                        *harness
	head, body, match, next  *ir.Block
	i, colLoad, hash, hashC  *ir.Instr
	rowLoad, paramLoad, cond *ir.Instr
}

func newLoopFixture(headFreq, bodyFreq, matchFreq float64) *loopFixture {
	h := newHarness()
	x := &loopFixture{h: h}
	b := h.b
	n := b.InvariantLoad(64, b.Const(64)) // a row-count slot
	x.head, x.body, x.match, x.next = b.NewBlock("head"), b.NewBlock("body"), b.NewBlock("match"), b.NewBlock("next")
	exit := b.NewBlock("exit")
	x.head.Freq, x.body.Freq, x.match.Freq, x.next.Freq = headFreq, bodyFreq, matchFreq, bodyFreq
	zero := b.Const(0)
	b.Br(x.head)

	b.SetBlock(x.head)
	x.i = b.Phi()
	ir.AddIncoming(x.i, zero)
	x.cond = b.Bin(ir.OpCmpLt, x.i, n)
	b.CondBr(x.cond, x.body, exit)

	b.SetBlock(x.body)
	x.paramLoad = b.InvariantLoad(64, b.Const(128))
	b.Br(x.match)

	b.SetBlock(x.match)
	h.cur = h.t2
	x.colLoad = b.InvariantLoad(64, b.Add(b.Const(1000), b.Mul(x.i, b.Const(8))))
	x.hashC = b.Const(77)
	x.hash = b.Crc32(x.hashC, x.colLoad)
	x.rowLoad = b.Load(64, b.Add(b.Const(4000), x.hash)) // writable memory: stays
	b.Store(64, b.Const(256), b.Add(b.Add(x.rowLoad, x.hash), x.paramLoad))
	b.Br(x.next)

	b.SetBlock(x.next)
	h.cur = h.t1
	i2 := b.Add(x.i, b.Const(1))
	ir.AddIncoming(x.i, i2)
	b.Br(x.head)

	b.SetBlock(exit)
	b.Halt()
	return x
}

// TestHoistLeavesHotBlock: the column load, its address arithmetic and
// its hash leave the hot match block for the colder body, keeping their
// IDs and task links; the hash's constant moves with it; the load of
// writable memory stays; the module stays valid.
func TestHoistLeavesHotBlock(t *testing.T) {
	x := newLoopFixture(100, 100, 300)
	ids := map[*ir.Instr]int{x.colLoad: x.colLoad.ID, x.hash: x.hash.ID}
	if n := Hoist(x.h.m); n == 0 {
		t.Fatal("nothing moved")
	}
	for in, id := range ids {
		if in.Block != x.body || in.ID != id {
			t.Errorf("%%%d (%s) in %s, want body with its ID", id, in.Op, in.Block.Name)
		}
		if ts := x.h.dict.TasksOf(id); len(ts) != 1 || ts[0] != x.h.t2 {
			t.Errorf("%%%d lost its task link: %v", id, ts)
		}
	}
	if x.hashC.Block != x.body {
		t.Errorf("the hash's constant stayed in %s", x.hashC.Block.Name)
	}
	if x.rowLoad.Block != x.match {
		t.Errorf("a load of writable memory moved to %s", x.rowLoad.Block.Name)
	}
	if x.paramLoad.Block.Name != "entry" {
		t.Errorf("the parameter load stayed in %s, want entry (runs once)", x.paramLoad.Block.Name)
	}
	if err := x.h.m.Verify(); err != nil {
		t.Fatal(err)
	}
	if n := Hoist(x.h.m); n != 0 {
		t.Fatalf("a second round moved %d more", n)
	}
}

// TestHoistStaysBelowPhiBlock: even when the loop header is estimated
// colder than the body, a load indexed by the header's phi stays below
// it — behind the bound test — while pure arithmetic on the phi may move.
func TestHoistStaysBelowPhiBlock(t *testing.T) {
	x := newLoopFixture(10, 100, 300)
	Hoist(x.h.m)
	if x.colLoad.Block != x.body {
		t.Fatalf("column load in %s, want body", x.colLoad.Block.Name)
	}
	if addr := x.colLoad.Args[0]; addr.Block != x.head {
		t.Fatalf("pure address arithmetic in %s, want the colder head", addr.Block.Name)
	}
	if x.cond.Block != x.head {
		t.Fatalf("the branch's compare left its block")
	}
}

// TestHoistTieKeepsDeeperBlock: at equal counts nothing moves.
func TestHoistTieKeepsDeeperBlock(t *testing.T) {
	x := newLoopFixture(100, 100, 100)
	Hoist(x.h.m)
	if x.colLoad.Block != x.match || x.hash.Block != x.match {
		t.Fatalf("moved at a tie: load in %s, hash in %s", x.colLoad.Block.Name, x.hash.Block.Name)
	}
}

// TestOptimizeReportsHoisted: Optimize runs the pass when selected and
// counts the moves in Stats.Hoisted; unselected, nothing moves.
func TestOptimizeReportsHoisted(t *testing.T) {
	x := newLoopFixture(100, 100, 300)
	st, err := Optimize(x.h.m, x.h.dict, AllOptions())
	if err != nil || st.Hoisted == 0 {
		t.Fatalf("Hoisted = %d, %v", st.Hoisted, err)
	}
	y := newLoopFixture(100, 100, 300)
	opts := AllOptions()
	opts.Hoist = false
	if st, _ := Optimize(y.h.m, y.h.dict, opts); st.Hoisted != 0 || y.colLoad.Block != y.match {
		t.Fatalf("unselected pass moved %d", st.Hoisted)
	}
}
