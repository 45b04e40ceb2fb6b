package ir

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/xrand"
)

// cfgFromBytes builds a one-function module whose shape the input picks:
// up to 12 blocks, each holding a few values (operands drawn from
// anything created so far, so cross-block uses may or may not be
// dominated) and ending in halt, br or condbr to arbitrary blocks —
// self-loops, both condbr edges to one block, blocks nothing branches to.
// A trailing byte may then bend one Preds list (drop, duplicate, or a
// block of another function), which both dominator implementations must
// read the same way.
func cfgFromBytes(data []byte) *Module {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		v := int(data[0])
		data = data[1:]
		return v
	}
	m := NewModule()
	f := m.NewFunc("f", 0)
	b := NewBuilder(f)
	n := 1 + next()%12
	for i := 1; i < n; i++ {
		b.NewBlock(fmt.Sprintf("b%d", i))
	}
	var vals []*Instr
	for _, blk := range f.Blocks {
		b.SetBlock(blk)
		for k := next() % 4; k > 0; k-- {
			if len(vals) >= 2 && next()%2 == 0 {
				vals = append(vals, b.Add(vals[next()%len(vals)], vals[next()%len(vals)]))
			} else {
				vals = append(vals, b.Const(int64(next())))
			}
		}
		switch next() % 4 {
		case 0:
			b.Halt()
		case 1:
			b.Br(f.Blocks[next()%n])
		default:
			b.CondBr(b.Const(1), f.Blocks[next()%n], f.Blocks[next()%n])
		}
	}
	victim := f.Blocks[next()%n]
	switch next() % 8 {
	case 1:
		if len(victim.Preds) > 0 {
			victim.Preds = victim.Preds[1:]
		}
	case 2:
		if len(victim.Preds) > 0 {
			victim.Preds = append(victim.Preds, victim.Preds[0])
		}
	case 3:
		victim.Preds = append(victim.Preds, m.NewFunc("g", 0).Entry())
	}
	return m
}

var cfgSeeds = [][]byte{
	{},
	{1, 0, 1, 0},                         // one block branching to itself
	{2, 0, 2, 1, 1, 0, 0},                // both condbr edges to one block
	{4, 1, 7, 1, 1, 0, 0, 0, 0, 1, 2},    // blocks nothing reaches
	{6, 2, 1, 2, 2, 3, 4, 1, 1, 2, 0, 1}, // cross-block uses
	{5, 0, 2, 1, 2, 0, 2, 3, 1, 0, 1, 4, 0, 2, 1}, // bent preds
	{3, 0, 1, 1, 0, 1, 2, 0, 1, 0, 1, 3},
}

// FuzzDominators: on random CFGs the bitset dominator matrix, the
// reachability bitset and the whole verifier agree with the map-based
// oracle in reference_test.go.
func FuzzDominators(f *testing.F) {
	for _, s := range cfgSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m := cfgFromBytes(data)
		if err := DiffDominators(m.Funcs[0]); err != nil {
			t.Fatalf("%v\n%s", err, m.Print(nil))
		}
		if err := DiffCheck(m); err != nil {
			t.Fatalf("%v\n%s", err, m.Print(nil))
		}
	})
}

// TestDominatorsMatchReference walks a deterministic spread of generated
// CFGs (the fuzz target's generator, driven by a counter).
func TestDominatorsMatchReference(t *testing.T) {
	r := xrand.New(19)
	for i := 0; i < 3000; i++ {
		data := make([]byte, 48)
		for k := range data {
			data[k] = byte(r.Intn(256))
		}
		m := cfgFromBytes(data)
		if err := DiffDominators(m.Funcs[0]); err != nil {
			t.Fatalf("cfg %d: %v\n%s", i, err, m.Print(nil))
		}
		if err := DiffCheck(m); err != nil {
			t.Fatalf("cfg %d: %v\n%s", i, err, m.Print(nil))
		}
	}
}

// corruptions are the ways a broken pass damages a module. Each takes a
// fresh copy of the fixture and returns false when it found nothing to
// damage.
var corruptions = []struct {
	name string
	code string // a Problem code the damage must produce ("" = any or none)
	do   func(m *Module, f *Func) bool
}{
	{"drop-terminator", "no-terminator", func(m *Module, f *Func) bool {
		b := f.Blocks[len(f.Blocks)-1]
		b.Instrs = b.Instrs[:len(b.Instrs)-1]
		return len(b.Instrs) > 0
	}},
	{"empty-block", "empty-block", func(m *Module, f *Func) bool {
		f.Blocks[len(f.Blocks)-1].Instrs = nil
		return true
	}},
	{"phi-arity", "phi-arity", func(m *Module, f *Func) bool {
		return eachInstr(f, func(in *Instr) bool {
			if in.Op != OpPhi || len(in.Args) == 0 {
				return false
			}
			in.Args = in.Args[:len(in.Args)-1]
			return true
		})
	}},
	{"swap-phi-incoming", "", func(m *Module, f *Func) bool {
		return eachInstr(f, func(in *Instr) bool {
			if in.Op != OpPhi || len(in.Args) != 2 {
				return false
			}
			in.Args[0], in.Args[1] = in.Args[1], in.Args[0]
			return true
		})
	}},
	{"mid-terminator", "mid-terminator", func(m *Module, f *Func) bool {
		b := f.Blocks[0]
		b.Instrs = append(b.Instrs, &Instr{ID: m.NewID(), Op: OpConst, Type: I64, Block: b})
		return true
	}},
	{"void-operand", "void-operand", func(m *Module, f *Func) bool {
		b := f.Blocks[0]
		t := b.Instrs[len(b.Instrs)-1]
		bad := &Instr{ID: m.NewID(), Op: OpAdd, Type: I64, Args: []*Instr{t, t}, Block: b}
		b.Instrs = append(b.Instrs[:len(b.Instrs)-1], bad, t)
		return true
	}},
	{"nil-operand", "nil-operand", func(m *Module, f *Func) bool {
		return eachInstr(f, func(in *Instr) bool {
			if len(in.Args) == 0 {
				return false
			}
			in.Args[0] = nil
			return true
		})
	}},
	{"dup-id", "dup-id", func(m *Module, f *Func) bool {
		var first *Instr
		return eachInstr(f, func(in *Instr) bool {
			if !in.NumValue() {
				return false
			}
			if first == nil {
				first = in
				return false
			}
			in.ID = first.ID
			return true
		})
	}},
	{"wrong-owner", "wrong-owner", func(m *Module, f *Func) bool {
		if len(f.Blocks) < 2 {
			return false
		}
		f.Blocks[0].Instrs[0].Block = f.Blocks[1]
		return true
	}},
	{"listed-twice", "", func(m *Module, f *Func) bool {
		if len(f.Blocks) < 2 {
			return false
		}
		b := f.Blocks[1]
		b.Instrs = append([]*Instr{f.Blocks[0].Instrs[0]}, b.Instrs...)
		return true
	}},
	{"swap-branch-targets", "", func(m *Module, f *Func) bool {
		return eachInstr(f, func(in *Instr) bool {
			if in.Op != OpCondBr {
				return false
			}
			in.Targets[0], in.Targets[1] = in.Targets[1], in.Targets[0]
			return true
		})
	}},
	{"retarget-branch", "pred-mismatch", func(m *Module, f *Func) bool {
		return eachInstr(f, func(in *Instr) bool {
			if in.Op != OpBr || in.Targets[0] == f.Blocks[0] {
				return false
			}
			in.Targets[0] = f.Blocks[0]
			return true
		})
	}},
	{"drop-pred", "pred-mismatch", func(m *Module, f *Func) bool {
		for _, b := range f.Blocks {
			if len(b.Preds) > 0 {
				b.Preds = b.Preds[1:]
				return true
			}
		}
		return false
	}},
	{"foreign-target", "foreign-target", func(m *Module, f *Func) bool {
		g := m.NewFunc("g", 0)
		NewBuilder(g).Halt()
		return eachInstr(f, func(in *Instr) bool {
			if in.Op != OpBr {
				return false
			}
			in.Targets[0] = g.Entry()
			return true
		})
	}},
	{"foreign-pred", "", func(m *Module, f *Func) bool {
		g := m.NewFunc("g", 0)
		NewBuilder(g).Halt()
		b := f.Blocks[len(f.Blocks)-1]
		b.Preds = append(b.Preds, g.Entry())
		return true
	}},
	{"use-before-def", "use-before-def", func(m *Module, f *Func) bool {
		for _, b := range f.Blocks {
			for i := 1; i < len(b.Instrs); i++ {
				for _, a := range b.Instrs[i].Args {
					if a == b.Instrs[i-1] && b.Instrs[i].Op != OpPhi {
						b.Instrs[i-1], b.Instrs[i] = b.Instrs[i], b.Instrs[i-1]
						return true
					}
				}
			}
		}
		return false
	}},
	{"undominated-use", "dominance", func(m *Module, f *Func) bool {
		// A value of the last block used at the top of the entry.
		last := f.Blocks[len(f.Blocks)-1]
		if last == f.Blocks[0] || !last.Instrs[0].NumValue() {
			return false
		}
		e := f.Blocks[0]
		v := last.Instrs[0]
		use := &Instr{ID: m.NewID(), Op: OpAdd, Type: I64, Args: []*Instr{v, v}, Block: e}
		e.Instrs = append([]*Instr{use}, e.Instrs...)
		return true
	}},
	{"cmp-type", "type", func(m *Module, f *Func) bool {
		return eachInstr(f, func(in *Instr) bool {
			if in.Op != OpCmpLt {
				return false
			}
			in.Type = I64
			return true
		})
	}},
}

// eachInstr applies do to f's instructions in order until it reports done.
func eachInstr(f *Func, do func(*Instr) bool) bool {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if do(in) {
				return true
			}
		}
	}
	return false
}

// corruptionFixtures are builders of valid modules to damage: the loop of
// the builder tests (a phi, a back edge) and a diamond whose join block
// holds a value used past it.
var corruptionFixtures = map[string]func(*testing.T) (*Module, *Func){
	"loop": buildLoop,
	"diamond": func(*testing.T) (*Module, *Func) {
		m := NewModule()
		f := m.NewFunc("main", 1)
		b := NewBuilder(f)
		l, r, join := b.NewBlock("l"), b.NewBlock("r"), b.NewBlock("join")
		p := b.Param(0)
		b.CondBr(b.Bin(OpCmpLt, p, b.Const(3)), l, r)
		b.SetBlock(l)
		x := b.Add(p, b.Const(1))
		b.Br(join)
		b.SetBlock(r)
		y := b.Mul(p, b.Const(2))
		b.Br(join)
		b.SetBlock(join)
		phi := b.Phi()
		AddIncoming(phi, x)
		AddIncoming(phi, y)
		b.Store(64, b.Const(64), b.Add(phi, p))
		b.Halt()
		return m, f
	},
}

// TestCheckMatchesReferenceOnCorruptions: on every corrupted fixture the
// dense verifier reports exactly the oracle's Problems, in its order, and
// the damage is caught at all.
func TestCheckMatchesReferenceOnCorruptions(t *testing.T) {
	for fname, build := range corruptionFixtures {
		m, _ := build(t)
		if ps := m.Check(); len(ps) != 0 {
			t.Fatalf("%s: fixture is not valid: %v", fname, ps)
		}
		for _, c := range corruptions {
			m, f := build(t)
			if !c.do(m, f) {
				continue
			}
			if err := DiffCheck(m); err != nil {
				t.Errorf("%s/%s: %v", fname, c.name, err)
			}
			if c.code == "" {
				continue
			}
			found := false
			for _, p := range m.Check() {
				found = found || p.Code == c.code
			}
			if !found {
				t.Errorf("%s/%s: no %q problem in %v", fname, c.name, c.code, m.Check())
			}
		}
	}
}

// TestCheckRejectsUnindexedModules covers the two checks the dense tables
// rest on: a block that does not sit at its Index, an instruction ID the
// module never issued.
func TestCheckRejectsUnindexedModules(t *testing.T) {
	m, f := buildLoop(t)
	f.Blocks[1], f.Blocks[2] = f.Blocks[2], f.Blocks[1]
	if ps := m.Check(); len(ps) != 1 || ps[0].Code != "block-index" {
		t.Fatalf("swapped blocks: %v", ps)
	}
	m, f = buildLoop(t)
	f.Blocks[0].Instrs[0].ID = m.MaxID() + 5
	found := false
	for _, p := range m.Check() {
		found = found || p.Code == "id-range"
	}
	if !found {
		t.Fatalf("out-of-range ID not reported: %v", m.Check())
	}
}

// TestCheckConcurrent: Check keeps its scratch to itself, so one finished
// module can be verified from many goroutines (run under -race).
func TestCheckConcurrent(t *testing.T) {
	m, _ := corruptionFixtures["diamond"](t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if ps := m.Check(); len(ps) != 0 {
					t.Errorf("concurrent Check: %v", ps)
					return
				}
			}
		}()
	}
	wg.Wait()
}
