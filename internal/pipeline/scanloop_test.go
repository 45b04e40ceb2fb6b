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
// the state region — no block loads the same column twice, every column is
// loaded at its region's width, a 1-byte column's address needs no
// multiply, and the 2-byte class is among the widths loaded (l_shipdate's
// day numbers fit 16 bits).
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
	cols := map[int64]int64{} // region address → width
	for _, reg := range lay.Cols {
		cols[reg.Addr] = reg.Width
	}
	stateEnd := lay.StateBase + int64(len(lay.RowsSlots))*8

	scan := pc.Module.FuncByName("pipeline0")
	loads, narrow, half := 0, 0, 0
	for _, b := range scan.Blocks {
		seen := map[int64]bool{}
		for _, in := range b.Instrs {
			width, isLoad := loadWidth[in.Op]
			if !isLoad {
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
			if width != cols[col] {
				t.Errorf("%s: %%%d loads %d bytes of a %d-byte column", b.Name, in.ID, width, cols[col])
			}
			if cols[col] == 2 {
				half++
			}
			if cols[col] == 1 {
				narrow++
				for _, a := range in.Args[0].Args {
					if a.Op == ir.OpMul || a.Op == ir.OpShl {
						t.Errorf("%s: %%%d scales the index of a 1-byte column", b.Name, in.ID)
					}
				}
			}
		}
	}
	if loads < len(lay.Cols) {
		t.Fatalf("found %d column loads for %d columns:\n%s", loads, len(lay.Cols), scan.Print(nil))
	}
	if narrow == 0 {
		t.Fatalf("q6 loads no 1-byte column:\n%s", scan.Print(nil))
	}
	if half == 0 {
		t.Fatalf("q6 loads no 2-byte column:\n%s", scan.Print(nil))
	}
}

// loadWidth is each load opcode's access width in bytes.
var loadWidth = map[ir.Op]int64{ir.OpLoad8: 1, ir.OpLoad16: 2, ir.OpLoad32: 4, ir.OpLoad64: 8}

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
func colAddr(addr *ir.Instr, cols map[int64]int64) (int64, bool) {
	if addr.Op != ir.OpAdd {
		return 0, false
	}
	for _, a := range addr.Args {
		if _, ok := cols[a.Imm]; a.Op == ir.OpConst && ok {
			return a.Imm, true
		}
	}
	return 0, false
}
