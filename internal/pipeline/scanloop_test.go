package pipeline_test

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/queries"
)

// TestScanLoopLoadsColumnOnce: in q6's generated scan loop every column
// is addressed from its layout constant — no column base is loaded from
// the state region — and no block loads the same column twice.
func TestScanLoopLoadsColumnOnce(t *testing.T) {
	cat := datagen.Generate(datagen.Config{ScaleFactor: 0.01, Seed: 7})
	e := engine.New(cat, engine.DefaultOptions())
	w, _ := queries.ByName("q6")
	cq, err := e.CompileQuery(w.Query)
	if err != nil {
		t.Fatal(err)
	}
	// The generator's own output, before iropt could merge anything.
	pc, err := pipeline.Compile(cq.Plan, cq.Layout, pipeline.Options{RegisterTagging: e.Opts.RegisterTagging})
	if err != nil {
		t.Fatal(err)
	}
	lay := cq.Layout
	cols := map[int64]bool{}
	for _, addr := range lay.ColAddrs {
		cols[addr] = true
	}
	stateEnd := lay.StateBase + int64(len(lay.RowsSlots))*8

	scan := pc.Module.FuncByName("pipeline0")
	loads := 0
	for _, b := range scan.Blocks {
		seen := map[int64]bool{}
		for _, in := range b.Instrs {
			if in.Op != ir.OpLoad64 {
				continue
			}
			if a, ok := constValue(in.Args[0]); ok && a >= lay.StateBase && a < stateEnd {
				t.Errorf("%s: %%%d loads state slot %d", b.Name, in.ID, a)
			}
			col, ok := colAddr(in.Args[0], cols)
			if !ok {
				continue
			}
			if seen[col] {
				t.Errorf("%s: %%%d loads column %d a second time", b.Name, in.ID, col)
			}
			seen[col] = true
			loads++
		}
	}
	if loads < len(lay.ColAddrs) {
		t.Fatalf("found %d column loads for %d columns:\n%s", loads, len(lay.ColAddrs), scan.Print(nil))
	}
}

// constValue folds a constant or a sum of constants.
func constValue(in *ir.Instr) (int64, bool) {
	switch in.Op {
	case ir.OpConst:
		return in.Imm, true
	case ir.OpAdd:
		x, okx := constValue(in.Args[0])
		y, oky := constValue(in.Args[1])
		return x + y, okx && oky
	}
	return 0, false
}

// colAddr recognizes a column access, Add(Const(region), index), and
// returns the region's address.
func colAddr(addr *ir.Instr, cols map[int64]bool) (int64, bool) {
	if addr.Op != ir.OpAdd {
		return 0, false
	}
	for _, a := range addr.Args {
		if a.Op == ir.OpConst && cols[a.Imm] {
			return a.Imm, true
		}
	}
	return 0, false
}
