package absint

import (
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/isa"
)

func makeRes(code []isa.Instr, funcs []isa.FuncSym) *codegen.Result {
	nm := core.NewNativeMap(len(code))
	return &codegen.Result{
		Program: &isa.Program{Code: code, Funcs: funcs},
		NMap:    nm,
	}
}

func diagChecks(ds []core.Diag) string {
	var out []string
	for _, d := range ds {
		out = append(out, d.Check)
	}
	return strings.Join(out, ",")
}

// TestLoopAccessesProved is the headline positive case: a counted loop over
// a column whose base and row count come from staged-cell facts. Branch
// refinement bounds the index, the congruence domain proves 8-byte
// alignment, and every access in the program is proved — zero diagnostics,
// zero unproven accesses.
func TestLoopAccessesProved(t *testing.T) {
	const (
		colBase = 4096
		rows    = 100
	)
	code := []isa.Instr{
		{Op: isa.LOAD64, Dst: 1, Abs: true, Imm: 256},            // r1 = col base
		{Op: isa.LOAD64, Dst: 2, Abs: true, Imm: 264},            // r2 = rows
		{Op: isa.MOVRI, Dst: 3, Imm: 0},                          // i = 0
		{Op: isa.JGE, Src1: 3, Src2: 2, Imm2: 8},                 // head: i >= rows → exit
		{Op: isa.LOAD64, Dst: 4, Src1: 1, Src2: 3, Scaled: true}, // v = col[i]
		{Op: isa.STORE64, Dst: 4, Abs: true, Imm: 2048},          // out = v
		{Op: isa.ADD, Dst: 3, Src1: 3, Imm: 1, UseImm: true},     // i++
		{Op: isa.JMP, Imm: 3},
		{Op: isa.HALT},
	}
	res := makeRes(code, []isa.FuncSym{{Name: "main", Entry: 0, End: len(code)}})
	mem := &MemModel{
		HeapSize: 16384,
		Regions: []MemRegion{
			{Name: "state", Lo: 256, Hi: 272},
			{Name: "result", Lo: 2048, Hi: 2112, Writable: true},
			{Name: "col", Lo: colBase, Hi: colBase + 8*rows},
		},
		Cells: map[int64]CellFact{
			256: {Lo: colBase, Hi: colBase, Align: 8},
			264: {Lo: rows, Hi: rows},
		},
	}
	rep := Analyze(res, mem, true)
	if len(rep.Diags) != 0 {
		t.Fatalf("clean loop flagged: %v", rep.Diags)
	}
	if rep.Accesses != 4 || rep.Proved != 4 || rep.Unproven != 0 {
		t.Fatalf("want 4/4 proved, got accesses=%d proved=%d unproven=%d",
			rep.Accesses, rep.Proved, rep.Unproven)
	}
}

// TestLoopWithoutBoundFactIsUnprovenNotFlagged drops the row-count fact:
// the scaled access can no longer be proved in-bounds, but since nothing
// proves it *out* of bounds either, the analysis must stay silent.
func TestLoopWithoutBoundFactIsUnprovenNotFlagged(t *testing.T) {
	code := []isa.Instr{
		{Op: isa.LOAD64, Dst: 1, Abs: true, Imm: 256},
		{Op: isa.LOAD64, Dst: 2, Abs: true, Imm: 264},
		{Op: isa.MOVRI, Dst: 3, Imm: 0},
		{Op: isa.JGE, Src1: 3, Src2: 2, Imm2: 8},
		{Op: isa.LOAD64, Dst: 4, Src1: 1, Src2: 3, Scaled: true},
		{Op: isa.STORE64, Dst: 4, Abs: true, Imm: 2048},
		{Op: isa.ADD, Dst: 3, Src1: 3, Imm: 1, UseImm: true},
		{Op: isa.JMP, Imm: 3},
		{Op: isa.HALT},
	}
	res := makeRes(code, []isa.FuncSym{{Name: "main", Entry: 0, End: len(code)}})
	mem := &MemModel{
		HeapSize: 16384,
		Regions: []MemRegion{
			{Name: "state", Lo: 256, Hi: 272},
			{Name: "result", Lo: 2048, Hi: 2112, Writable: true},
			{Name: "col", Lo: 4096, Hi: 4896},
		},
		Cells: map[int64]CellFact{
			256: {Lo: 4096, Hi: 4096, Align: 8},
			// no fact for 264: rows unknown
		},
	}
	rep := Analyze(res, mem, true)
	if len(rep.Diags) != 0 {
		t.Fatalf("unprovable-but-legal access flagged: %v", rep.Diags)
	}
	if rep.Unproven == 0 {
		t.Fatal("scaled access with unknown bound should be unproven")
	}
}

func TestDefiniteViolations(t *testing.T) {
	mem := &MemModel{
		HeapSize: 8192,
		Regions: []MemRegion{
			{Name: "col", Lo: 4096, Hi: 8192},
			{Name: "scratch", Lo: 512, Hi: 1024, Writable: true},
		},
	}
	cases := []struct {
		name string
		code []isa.Instr
		want string // core.Diag.Check
	}{
		{"misaligned store", []isa.Instr{
			{Op: isa.STORE64, Dst: 0, Abs: true, Imm: 513},
			{Op: isa.HALT},
		}, "absint/misaligned"},
		{"oob load", []isa.Instr{
			{Op: isa.LOAD64, Dst: 0, Abs: true, Imm: 12288},
			{Op: isa.HALT},
		}, "absint/oob"},
		{"store into read-only column", []isa.Instr{
			{Op: isa.STORE64, Dst: 0, Abs: true, Imm: 4096},
			{Op: isa.HALT},
		}, "absint/readonly-store"},
		{"computed misaligned", []isa.Instr{
			// r1 = 512 + 8k (aligned base), then +4 breaks 8-byte alignment
			// through arithmetic, not a literal address.
			{Op: isa.MOVRI, Dst: 1, Imm: 512},
			{Op: isa.ADD, Dst: 1, Src1: 1, Imm: 4, UseImm: true},
			{Op: isa.LOAD64, Dst: 2, Src1: 1},
			{Op: isa.HALT},
		}, "absint/misaligned"},
		{"division by provably zero", []isa.Instr{
			{Op: isa.MOVRI, Dst: 1, Imm: 0},
			{Op: isa.DIV, Dst: 2, Src1: 0, Src2: 1},
			{Op: isa.HALT},
		}, "absint/div-zero"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := makeRes(tc.code, []isa.FuncSym{{Name: "main", Entry: 0, End: len(tc.code)}})
			rep := Analyze(res, mem, true)
			if !strings.Contains(diagChecks(rep.Diags), tc.want) {
				t.Fatalf("want %s, got %q (%v)", tc.want, diagChecks(rep.Diags), rep.Diags)
			}
		})
	}
}

// TestDefiniteAccessWidth: a column region is read at the width it is
// staged at. A constant-base scaled load at another width is a definite
// violation whatever its index — 2 bytes read from a 4-byte column stay in
// bounds, so only the region's width exposes it — and so is an exact
// address inside the region; the right width is proved.
func TestDefiniteAccessWidth(t *testing.T) {
	mem := &MemModel{
		HeapSize: 8192,
		Regions: []MemRegion{
			{Name: "col", Lo: 1024, Hi: 2048, Width: 4},
			{Name: "col", Lo: 2048, Hi: 3072, Width: 2},
		},
	}
	for _, tc := range []struct {
		name string
		in   isa.Instr
		want string // "" = clean
	}{
		{"2 bytes of a 4-byte column", isa.Instr{Op: isa.LOAD16, Dst: 0, Src2: 1, Abs: true, Scaled: true, Imm: 1024}, "absint/access-width"},
		{"4 bytes of a 2-byte column", isa.Instr{Op: isa.LOAD32, Dst: 0, Src2: 1, Abs: true, Scaled: true, Imm: 2048}, "absint/access-width"},
		{"1 byte at an exact address", isa.Instr{Op: isa.LOAD8, Dst: 0, Abs: true, Imm: 2050}, "absint/access-width"},
		{"2 bytes of a 2-byte column", isa.Instr{Op: isa.LOAD16, Dst: 0, Abs: true, Imm: 2050}, ""},
	} {
		code := []isa.Instr{tc.in, {Op: isa.HALT}}
		rep := Analyze(makeRes(code, []isa.FuncSym{{Name: "main", Entry: 0, End: len(code)}}), mem, true)
		if got := diagChecks(rep.Diags); got != tc.want {
			t.Errorf("%s: diagnostics %q, want %q", tc.name, got, tc.want)
		}
		if tc.want == "" && rep.Proved != 1 {
			t.Errorf("%s: %d of %d accesses proved, want 1", tc.name, rep.Proved, rep.Accesses)
		}
	}
}

// TestTagDataflow checks the flow-sensitive shared-call protocol: a call
// into a shared routine is flagged only when some path reaches it without
// a tag-register write.
func TestTagDataflow(t *testing.T) {
	mem := &MemModel{HeapSize: 8192}
	build := func(tagged bool) *codegen.Result {
		var code []isa.Instr
		if tagged {
			code = append(code, isa.Instr{Op: isa.MOVRI, Dst: isa.TagReg, Imm: 7})
		} else {
			code = append(code, isa.Instr{Op: isa.NOP})
		}
		callPos := len(code)
		sharedEntry := callPos + 2
		code = append(code,
			isa.Instr{Op: isa.CALL, Imm: int64(sharedEntry)},
			isa.Instr{Op: isa.HALT},
			isa.Instr{Op: isa.RET}, // ht_insert stub
		)
		res := makeRes(code, []isa.FuncSym{
			{Name: "main", Entry: 0, End: sharedEntry},
			{Name: "ht_insert", Entry: sharedEntry, End: sharedEntry + 1},
		})
		res.NMap.Region[sharedEntry] = core.RegionShared
		res.NMap.Routine[sharedEntry] = "ht_insert"
		return res
	}

	rep := Analyze(build(false), mem, true)
	if !strings.Contains(diagChecks(rep.Diags), "absint/untagged-shared-call") {
		t.Fatalf("untagged shared call not caught: %v", rep.Diags)
	}
	rep = Analyze(build(true), mem, true)
	if len(rep.Diags) != 0 {
		t.Fatalf("tagged shared call flagged: %v", rep.Diags)
	}
	// Without register tagging the protocol does not apply.
	rep = Analyze(build(false), mem, false)
	if len(rep.Diags) != 0 {
		t.Fatalf("protocol applied without register tagging: %v", rep.Diags)
	}
}

// TestTagKilledOnOnePath verifies the "definitely on all paths" meet: if
// one branch writes the tag and the other does not, the join is untagged
// and a following shared call is flagged.
func TestTagKilledOnOnePath(t *testing.T) {
	mem := &MemModel{HeapSize: 8192}
	code := []isa.Instr{
		{Op: isa.JZ, Src1: 0, Imm: 2},            // 0: skip tag write if r0 == 0
		{Op: isa.MOVRI, Dst: isa.TagReg, Imm: 7}, // 1: tag write on one path only
		{Op: isa.CALL, Imm: 4},                   // 2: join point: shared call
		{Op: isa.HALT},                           // 3
		{Op: isa.RET},                            // 4: ht_insert stub
	}
	res := makeRes(code, []isa.FuncSym{
		{Name: "main", Entry: 0, End: 4},
		{Name: "ht_insert", Entry: 4, End: 5},
	})
	res.NMap.Region[4] = core.RegionShared
	res.NMap.Routine[4] = "ht_insert"
	rep := Analyze(res, mem, true)
	if !strings.Contains(diagChecks(rep.Diags), "absint/untagged-shared-call") {
		t.Fatalf("partially tagged path not caught: %v", rep.Diags)
	}
}

// TestGeneratedCalleeClobbersEverything: calls into generated code make no
// preservation promise, so facts must not survive them — in particular an
// address proved before the call must become unproven after it.
func TestGeneratedCalleeClobbersEverything(t *testing.T) {
	mem := &MemModel{
		HeapSize: 8192,
		Regions:  []MemRegion{{Name: "scratch", Lo: 512, Hi: 1024, Writable: true}},
	}
	code := []isa.Instr{
		{Op: isa.MOVRI, Dst: 5, Imm: 512},  // r5 = scratch base (preserved reg)
		{Op: isa.STORE64, Dst: 0, Src1: 5}, // proved: exact 512
		{Op: isa.CALL, Imm: 5},             // generated callee: r5 is gone
		{Op: isa.STORE64, Dst: 0, Src1: 5}, // must be unproven now
		{Op: isa.HALT},
		{Op: isa.RET}, // generated helper
	}
	res := makeRes(code, []isa.FuncSym{
		{Name: "main", Entry: 0, End: 5},
		{Name: "helper", Entry: 5, End: 6},
	})
	rep := Analyze(res, mem, true)
	if len(rep.Diags) != 0 {
		t.Fatalf("unexpected diags: %v", rep.Diags)
	}
	if rep.Proved != 1 || rep.Unproven != 1 {
		t.Fatalf("want 1 proved + 1 unproven, got proved=%d unproven=%d",
			rep.Proved, rep.Unproven)
	}

	// A runtime-routine callee preserves r5..r15: both stores proved.
	res.NMap.Region[5] = core.RegionKernel
	res.NMap.Routine[5] = "memset"
	rep = Analyze(res, mem, true)
	if rep.Proved != 2 || rep.Unproven != 0 {
		t.Fatalf("runtime call should preserve r5: proved=%d unproven=%d",
			rep.Proved, rep.Unproven)
	}
}

// TestCheckerGating: the analysis needs emitted code and a memory model;
// given neither it interprets nothing and reports nothing, so the artifact
// gate may run it on every phase, before the backend has run too.
func TestCheckerGating(t *testing.T) {
	res := makeRes([]isa.Instr{{Op: isa.HALT}}, []isa.FuncSym{{Name: "main", Entry: 0, End: 1}})
	for _, rep := range []*Report{Analyze(nil, &MemModel{HeapSize: 64}, true), Analyze(res, nil, true)} {
		if rep.Funcs != 0 || rep.Accesses != 0 || len(rep.Diags) != 0 {
			t.Fatalf("analysis ran without code+mem: %+v", rep)
		}
	}
}
