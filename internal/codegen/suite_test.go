package codegen_test

import (
	"testing"

	"repro/internal/codegen"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/ir"
	"repro/internal/queries"
)

// TestSuiteLivenessMatchesReference lowers every function of every suite
// plan and holds the allocator's bit-matrix liveness (and operands) to
// the map-based oracle of reference_test.go — with and without the tag
// register reserved, since that changes the code being lowered.
func TestSuiteLivenessMatchesReference(t *testing.T) {
	cat := datagen.Generate(datagen.Config{ScaleFactor: 0.01, Seed: 7})
	for _, tagging := range []bool{true, false} {
		opts := engine.DefaultOptions()
		opts.RegisterTagging = tagging
		e := engine.New(cat, opts)
		for _, w := range queries.Suite() {
			cq, err := e.CompileQuery(w.Query)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			cfg := codegen.DefaultConfig(0, 0, 1<<20)
			cfg.RegisterTagging = tagging
			if err := codegen.DiffLiveness(cq.Pipe.Module, cfg); err != nil {
				t.Errorf("%s: %v", w.Name, err)
			}
		}
	}
}

// TestSuiteLIRHasNoDeadDefs: after lowering, no constant or ALU result of
// any suite or SQL-suite statement is left unread — in particular no
// address Add that was folded into its load's displacement — no coalesced
// copy is left as a self-copy, and no block is left that the entry does
// not reach (a threaded edge block, a bottom-tested header).
func TestSuiteLIRHasNoDeadDefs(t *testing.T) {
	cat := datagen.Generate(datagen.Config{ScaleFactor: 0.01, Seed: 7})
	e := engine.New(cat, engine.DefaultOptions())
	for _, w := range append(queries.Suite(), queries.SQLSuite()...) {
		cq, err := e.CompileQuery(w.Query)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		cfg := codegen.DefaultConfig(0, 0, 1<<20)
		cfg.RegisterTagging = e.Opts.RegisterTagging
		if err := codegen.DeadDefs(cq.Pipe.Module, cfg); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
}

// TestSuiteConstantBaseAccessesAreScaled: in every suite plan, a load or
// store at Add(c, i*width) — a column, a hash directory slot — is one
// native instruction [c + i*width], spill traffic aside: no instruction
// carries its address Add on its own. Directory lookups are among them.
func TestSuiteConstantBaseAccessesAreScaled(t *testing.T) {
	cat := datagen.Generate(datagen.Config{ScaleFactor: 0.01, Seed: 7})
	e := engine.New(cat, engine.DefaultOptions())
	byComment := map[string]int{}
	for _, w := range queries.Suite() {
		cq, err := e.CompileQuery(w.Query)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		native := map[int][]int{} // IR ID → native positions carrying it, spill traffic aside
		for pos, ids := range cq.Code.NMap.IRs {
			if _, _, spill := cq.Code.SpillAccess(pos); spill {
				continue
			}
			for _, id := range ids {
				native[id] = append(native[id], pos)
			}
		}
		cq.Pipe.Module.ForEachInstr(func(_ *ir.Func, _ *ir.Block, in *ir.Instr) {
			c, width, ok := constantBaseAccess(in)
			if !ok {
				return
			}
			byComment[in.Comment]++
			at := native[in.ID]
			if len(at) != 1 {
				t.Errorf("%s: %s lowers to %d native instructions", w.Name, ir.FormatInstr(in), len(at))
				return
			}
			n := &cq.Code.Program.Code[at[0]]
			if !n.Abs || !n.Scaled || n.Imm != c || n.Width() != width {
				t.Errorf("%s: %s lowers to %s, want [%d + i*%d]", w.Name, ir.FormatInstr(in), n, c, width)
			}
			for _, pos := range native[in.Args[0].ID] {
				if n := &cq.Code.Program.Code[pos]; !n.Scaled {
					t.Errorf("%s: the address of %s is computed apart, at %d: %s", w.Name, ir.FormatInstr(in), pos, n)
				}
			}
		})
	}
	for _, c := range []string{"hash-table directory lookup", "group directory lookup"} {
		if byComment[c] == 0 {
			t.Errorf("no %q access in the suite", c)
		}
	}
	t.Logf("constant-base accesses by comment: %v", byComment)
}

// constantBaseAccess reports whether in is a load or store at Add(c,
// Mul(i, width)) or Add(c, Shl(i, log2 width)), either operand order, for
// a multi-byte width, and returns c and the width.
func constantBaseAccess(in *ir.Instr) (c, width int64, ok bool) {
	switch in.Op {
	case ir.OpLoad64, ir.OpStore64:
		width = 8
	case ir.OpLoad32, ir.OpStore32:
		width = 4
	case ir.OpLoad16:
		width = 2
	default:
		return 0, 0, false
	}
	add := in.Args[0]
	if add.Op != ir.OpAdd {
		return 0, 0, false
	}
	for k := 0; k < 2; k++ {
		base, idx := add.Args[k], add.Args[1-k]
		if base.Op != ir.OpConst || len(idx.Args) != 2 || idx.Args[0].Op == ir.OpConst {
			continue
		}
		s := idx.Args[1]
		if s.Op == ir.OpConst && (idx.Op == ir.OpMul && s.Imm == width || idx.Op == ir.OpShl && 1<<s.Imm == width) {
			return base.Imm, width, true
		}
	}
	return 0, 0, false
}
