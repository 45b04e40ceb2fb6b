package tv

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/iropt"
)

// buildLoop constructs a small but representative function: a counted loop
// over a column with a phi, loads, arithmetic with foldable and reducible
// patterns, a store, a tagged shared call and a conditional exit.
func buildLoop(m *ir.Module) {
	f := m.NewFunc("main", 0)
	b := ir.NewBuilder(f)

	head := b.NewBlock("head")
	body := b.NewBlock("body")
	done := b.NewBlock("done")

	base := b.Const(4096)
	zero := b.Const(0)
	limit := b.Load(64, b.Const(2048))
	b.Br(head)

	b.SetBlock(head)
	i := b.Phi()
	ir.AddIncoming(i, zero)
	cond := b.Bin(ir.OpCmpLt, i, limit)
	b.CondBr(cond, body, done)

	b.SetBlock(body)
	// i*8 is strength-reducible; (6*7) folds; x+0 collapses.
	off := b.Mul(i, b.Const(8))
	addr := b.Add(base, off)
	v := b.Load(64, addr)
	fold := b.Mul(b.Const(6), b.Const(7))
	sum := b.Add(v, fold)
	sum2 := b.Add(sum, b.Const(0))
	b.SetTag(b.Const(3))
	b.Call("ht_insert", true, addr, sum2)
	next := b.Add(i, b.Const(1))
	ir.AddIncoming(i, next)
	b.Br(head)
	head.Preds = append(head.Preds, body)

	b.SetBlock(done)
	b.Store(64, b.Const(512), i)
	b.Halt()
}

func lineage() core.Lineage { return core.NewDictionary(core.NewRegistry()) }

func TestCleanOptimizationValidates(t *testing.T) {
	m := ir.NewModule()
	buildLoop(m)
	v := NewValidator(m)

	opts := iropt.AllOptions()
	opts.AfterPass = func(pass string) error {
		if ds := v.Step(m, pass); len(ds) != 0 {
			t.Fatalf("pass %s flagged a clean optimization: %v", pass, ds)
		}
		return nil
	}
	if _, err := iropt.Optimize(m, lineage(), opts); err != nil {
		t.Fatal(err)
	}
	if v.Steps() == 0 {
		t.Fatal("no pass applications validated")
	}
}

func TestNormalizationEquivalences(t *testing.T) {
	// Two modules computing the same store through differently shaped
	// expressions must summarize identically.
	build := func(variant int) *ir.Module {
		m := ir.NewModule()
		f := m.NewFunc("main", 0)
		b := ir.NewBuilder(f)
		x := b.Load(64, b.Const(1024))
		var y *ir.Instr
		if variant == 0 {
			y = b.Add(b.Mul(x, b.Const(8)), b.Const(0)) // x*8 + 0
		} else {
			y = b.Shl(x, b.Const(3)) // x << 3
		}
		b.Store(64, b.Const(512), y)
		b.Halt()
		return m
	}
	it := NewInterner()
	s0 := Summarize(build(0), it)
	s1 := Summarize(build(1), it)
	if ms := Compare(s0, s1, it); len(ms) != 0 {
		t.Fatalf("equivalent modules mismatch: %v", ms)
	}
}

func TestCommutativeSortAndFold(t *testing.T) {
	build := func(variant int) *ir.Module {
		m := ir.NewModule()
		f := m.NewFunc("main", 0)
		b := ir.NewBuilder(f)
		x := b.Load(64, b.Const(1024))
		y := b.Load(64, b.Const(1032))
		var v *ir.Instr
		if variant == 0 {
			v = b.Add(x, y)
		} else {
			v = b.Add(y, x)
		}
		w := b.Mul(b.Const(6), b.Const(7))
		b.Store(64, b.Const(512), b.Add(v, w))
		b.Halt()
		return m
	}
	it := NewInterner()
	s0 := Summarize(build(0), it)
	s1 := Summarize(build(1), it)
	if ms := Compare(s0, s1, it); len(ms) != 0 {
		t.Fatalf("commutative operands mismatch: %v", ms)
	}
}

func mismatchKinds(ds []core.Diag) string {
	var ks []string
	for _, d := range ds {
		ks = append(ks, strings.TrimPrefix(d.Check, "tv/"))
	}
	return strings.Join(ks, ",")
}

func TestMutantsAreCaught(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(m *ir.Module)
		want   string // substring of expected mismatch kinds
	}{
		{"swap sub operands", func(m *ir.Module) {
			m.ForEachInstr(func(_ *ir.Func, _ *ir.Block, in *ir.Instr) {
				if in.Op == ir.OpCmpLt {
					in.Args[0], in.Args[1] = in.Args[1], in.Args[0]
				}
			})
		}, "event"},
		{"perturb constant", func(m *ir.Module) {
			m.ForEachInstr(func(_ *ir.Func, _ *ir.Block, in *ir.Instr) {
				if in.Op == ir.OpConst && in.Imm == 4096 {
					in.Imm = 4097
				}
			})
		}, "event"},
		{"drop store", func(m *ir.Module) {
			for _, f := range m.Funcs {
				for _, b := range f.Blocks {
					for i, in := range b.Instrs {
						if in.Op == ir.OpStore64 {
							b.Instrs = append(b.Instrs[:i], b.Instrs[i+1:]...)
							return
						}
					}
				}
			}
		}, "event-count"},
		{"swap branch targets", func(m *ir.Module) {
			m.ForEachInstr(func(_ *ir.Func, _ *ir.Block, in *ir.Instr) {
				if in.Op == ir.OpCondBr {
					in.Targets[0], in.Targets[1] = in.Targets[1], in.Targets[0]
				}
			})
		}, "event"},
		{"swap phi incoming", func(m *ir.Module) {
			m.ForEachInstr(func(_ *ir.Func, _ *ir.Block, in *ir.Instr) {
				if in.Op == ir.OpPhi && len(in.Args) == 2 {
					in.Args[0], in.Args[1] = in.Args[1], in.Args[0]
				}
			})
		}, "phi"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := ir.NewModule()
			buildLoop(m)
			it := NewInterner()
			pre := Summarize(m, it)
			tc.mutate(m)
			post := Summarize(m, it)
			ms := Compare(pre, post, it)
			if len(ms) == 0 {
				t.Fatal("mutant not caught")
			}
			if !strings.Contains(mismatchKinds(ms), tc.want) {
				t.Fatalf("want kind %s, got %s (%v)", tc.want, mismatchKinds(ms), ms)
			}
			// Counterexamples render without placeholder garbage.
			for _, d := range ms {
				if strings.Contains(d.Msg, "pre= ") || strings.HasSuffix(d.Msg, "post=") {
					t.Fatalf("unrendered counterexample: %v", d)
				}
			}
		})
	}
}

func TestValidatorStepPinsPass(t *testing.T) {
	m := ir.NewModule()
	buildLoop(m)
	v := NewValidator(m)
	// A legal pass state validates.
	if ds := v.Step(m, "fold"); len(ds) != 0 {
		t.Fatalf("identity step flagged: %v", ds)
	}
	// Mutate as if a pass miscompiled; the diagnostic names the pass.
	m.ForEachInstr(func(_ *ir.Func, _ *ir.Block, in *ir.Instr) {
		if in.Op == ir.OpCmpLt {
			in.Args[0], in.Args[1] = in.Args[1], in.Args[0]
		}
	})
	ds := v.Step(m, "cse")
	if len(ds) == 0 {
		t.Fatal("miscompile not caught")
	}
	if !strings.Contains(ds[0].Msg, `pass "cse"`) {
		t.Fatalf("diagnostic does not pin the pass: %s", ds[0].Msg)
	}
	if !strings.HasPrefix(ds[0].Check, "tv/") {
		t.Fatalf("bad check id: %s", ds[0].Check)
	}
}
