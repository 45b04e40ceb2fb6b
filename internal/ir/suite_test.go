package ir_test

import (
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/ir"
	"repro/internal/iropt"
	"repro/internal/queries"
	"repro/internal/xrand"
)

// TestSuiteFunctionsMatchReference runs the dense verifier, reachability
// and dominators against the oracle of reference_test.go over every
// function the evaluation suite lowers to — as pipeline construction
// leaves it, and as the optimizer does.
func TestSuiteFunctionsMatchReference(t *testing.T) {
	cat := datagen.Generate(datagen.Config{ScaleFactor: 0.01, Seed: 7})
	for _, optimize := range []iropt.Options{{}, iropt.AllOptions()} {
		opts := engine.DefaultOptions()
		opts.Optimize = optimize
		e := engine.New(cat, opts)
		for _, w := range queries.Suite() {
			cq, err := e.CompileQuery(w.Query)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			m := cq.Pipe.Module
			if err := ir.DiffCheck(m); err != nil {
				t.Errorf("%s: %v", w.Name, err)
			}
			for _, f := range m.Funcs {
				if err := ir.DiffDominators(f); err != nil {
					t.Errorf("%s: %v", w.Name, err)
				}
			}
		}
	}
}

// oddAnnotator decorates lines with the texts padding can get wrong: empty,
// non-ASCII (runes of two and three bytes), invalid UTF-8, and wider than
// the column, picked per instruction and block.
type oddAnnotator struct{}

var oddTexts = []string{"", "42.0%", "ü½%", "\xff\xfe%", "100.0% of all", "hash join", "σ gröup by", strings.Repeat("wide ", 14)}

func (oddAnnotator) Prefix(in *ir.Instr) string     { return oddTexts[in.ID%len(oddTexts)] }
func (oddAnnotator) Suffix(in *ir.Instr) string     { return oddTexts[in.ID/3%len(oddTexts)] }
func (oddAnnotator) BlockHeader(b *ir.Block) string { return oddTexts[b.Index%len(oddTexts)] }

// TestPrintMatchesReference: the appending printer renders every suite
// module (as lowered and as optimized) and a spread of generated modules
// exactly as the fmt-based oracle in reference_test.go does, plain and
// annotated.
func TestPrintMatchesReference(t *testing.T) {
	var mods []*ir.Module
	cat := datagen.Generate(datagen.Config{ScaleFactor: 0.01, Seed: 7})
	for _, optimize := range []iropt.Options{{}, iropt.AllOptions()} {
		opts := engine.DefaultOptions()
		opts.Optimize = optimize
		e := engine.New(cat, opts)
		for _, w := range queries.Suite() {
			cq, err := e.CompileQuery(w.Query)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			mods = append(mods, cq.Pipe.Module)
		}
	}
	r := xrand.New(30)
	for i := 0; i < 500; i++ {
		data := make([]byte, 48)
		for k := range data {
			data[k] = byte(r.Intn(256))
		}
		m := ir.GenModule(data)
		m.ForEachInstr(func(_ *ir.Func, _ *ir.Block, in *ir.Instr) {
			in.Comment = oddTexts[(in.ID+i)%len(oddTexts)]
		})
		mods = append(mods, m)
	}
	for i, m := range mods {
		for _, a := range []ir.RefAnnotator{nil, oddAnnotator{}} {
			if err := ir.DiffPrint(m, a); err != nil {
				t.Fatalf("module %d: %v", i, err)
			}
		}
	}
}
