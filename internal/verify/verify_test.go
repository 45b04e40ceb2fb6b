package verify_test

// Corrupted-fixture tests: each test compiles a real query, breaks one
// specific invariant in the artifact, and asserts the artifact gate
// (verify.Check, absint included) produces the expected diagnostic —
// proving the rules are not vacuous. The clean-artifact test is the other
// half of the contract: real compiler output must produce zero
// diagnostics (no false positives).

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/queries"
	"repro/internal/verify"
)

// fixture compiles one workload into a full post-emit artifact.
func fixture(t *testing.T, name string) *verify.Artifact {
	t.Helper()
	w, ok := queries.ByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	cat := datagen.Generate(datagen.Config{ScaleFactor: 0.01, Seed: 42})
	e := engine.New(cat, engine.DefaultOptions())
	cq, err := e.CompileQuery(w.Query)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return &verify.Artifact{
		Module:          cq.Pipe.Module,
		Dict:            cq.Pipe.Dict,
		Code:            cq.Code,
		RegisterTagging: true,
		Pipelines:       cq.Pipe.Pipelines,
		Mem:             cq.Mem,
	}
}

// wantDiag asserts that running the gate yields at least one diagnostic
// with the given check code, and returns it.
func wantDiag(t *testing.T, a *verify.Artifact, check string) core.Diag {
	t.Helper()
	ds := verify.Check(a)
	for _, d := range ds {
		if d.Check == check {
			return d
		}
	}
	t.Fatalf("expected diagnostic %s, got %d others:\n%s", check, len(ds), renderDiags(ds))
	return core.Diag{}
}

func renderDiags(ds []core.Diag) string {
	var sb strings.Builder
	for _, d := range ds {
		sb.WriteString("  " + d.String() + "\n")
	}
	return sb.String()
}

func TestCleanArtifactNoDiagnostics(t *testing.T) {
	for _, name := range []string{"q6", "fig9"} {
		a := fixture(t, name)
		if ds := verify.Check(a); len(ds) != 0 {
			t.Fatalf("%s: clean artifact produced diagnostics:\n%s", name, renderDiags(ds))
		}
	}
}

// --- broken IR -------------------------------------------------------------

func TestBrokenIRMissingTerminator(t *testing.T) {
	a := fixture(t, "q6")
	f := a.Module.Funcs[0]
	entry := f.Entry()
	entry.Instrs = entry.Instrs[:len(entry.Instrs)-1] // drop the terminator
	wantDiag(t, a, "ir/no-terminator")
}

func TestBrokenIRUseBeforeDef(t *testing.T) {
	a := fixture(t, "q6")
	// Find a block where instruction i uses instruction i-1 and swap them.
	var blk *ir.Block
	var i int
	for _, f := range a.Module.Funcs {
		for _, b := range f.Blocks {
			for j := 1; j < len(b.Instrs); j++ {
				for _, arg := range b.Instrs[j].Args {
					if arg == b.Instrs[j-1] && b.Instrs[j-1].Op != ir.OpPhi {
						blk, i = b, j
					}
				}
			}
		}
	}
	if blk == nil {
		t.Fatal("fixture has no adjacent def-use pair to corrupt")
	}
	blk.Instrs[i-1], blk.Instrs[i] = blk.Instrs[i], blk.Instrs[i-1]
	wantDiag(t, a, "ir/use-before-def")
}

func TestBrokenIRTypeError(t *testing.T) {
	a := fixture(t, "q6")
	// A comparison that claims to produce i64 violates the type rules.
	var cmp *ir.Instr
	a.Module.ForEachInstr(func(_ *ir.Func, _ *ir.Block, in *ir.Instr) {
		if cmp == nil && in.Type == ir.I1 {
			cmp = in
		}
	})
	if cmp == nil {
		t.Fatal("fixture has no i1 instruction")
	}
	cmp.Type = ir.I64
	wantDiag(t, a, "ir/type")
}

func TestBrokenIRPredMismatch(t *testing.T) {
	a := fixture(t, "q6")
	// Record a predecessor edge the CFG does not have.
	var b *ir.Block
	for _, f := range a.Module.Funcs {
		for _, x := range f.Blocks {
			if len(x.Preds) > 0 {
				b = x
			}
		}
	}
	if b == nil {
		t.Fatal("fixture has no block with predecessors")
	}
	b.Preds = append(b.Preds, b.Preds[0])
	wantDiag(t, a, "ir/pred-mismatch")
}

// --- orphaned / dangling tags ---------------------------------------------

func TestOrphanedInstruction(t *testing.T) {
	a := fixture(t, "q6")
	// Simulate a pass dropping lineage: remove the Log B entry for a live
	// instruction. (Removed also journals, but the instruction survives,
	// so the orphan check fires first.)
	var victim int
	a.Module.ForEachInstr(func(_ *ir.Func, _ *ir.Block, in *ir.Instr) {
		if victim == 0 && in.Op == ir.OpAdd {
			victim = in.ID
		}
	})
	if victim == 0 {
		t.Fatal("fixture has no add instruction")
	}
	a.Dict.Removed(victim)
	d := wantDiag(t, a, "dict/orphan-instr")
	if !strings.Contains(d.Locus, "%") {
		t.Fatalf("orphan diagnostic has no IR locus: %v", d)
	}
}

func TestDanglingTag(t *testing.T) {
	a := fixture(t, "q6")
	// A Log B entry for an instruction that does not exist: the pass that
	// deleted it forgot to report Removed.
	a.Dict.LinkIR(a.Module.MaxID()+100, a.Dict.Registry.KernelTask)
	wantDiag(t, a, "dict/dangling-tag")
}

// --- lineage journal -------------------------------------------------------

func TestJournalSelfDerivation(t *testing.T) {
	a := fixture(t, "q6")
	id := a.Module.Funcs[0].Entry().Instrs[0].ID
	a.Dict.Derived(id, id) // a cycle of one
	wantDiag(t, a, "dict/derive-cycle")
}

func TestJournalDeriveCycle(t *testing.T) {
	a := fixture(t, "q6")
	in := a.Module.Funcs[0].Entry().Instrs
	if len(in) < 2 {
		t.Fatal("entry block too small")
	}
	x, y := in[0].ID, in[1].ID
	a.Dict.Derived(x, y)
	a.Dict.Derived(y, x)
	wantDiag(t, a, "dict/derive-cycle")
}

func TestJournalDeriveFromRemoved(t *testing.T) {
	a := fixture(t, "q6")
	// Derive lineage from an instruction already reported removed: the
	// sources' tasks are gone, so the link silently inherits nothing.
	dead := a.Module.NewID() // never materialized: stands in for removed code
	live := a.Module.Funcs[0].Entry().Instrs[0].ID
	a.Dict.Removed(dead)
	a.Dict.Derived(live, dead)
	wantDiag(t, a, "dict/use-after-remove")
}

// --- clobbered tag register ------------------------------------------------

func TestClobberedTagRegister(t *testing.T) {
	a := fixture(t, "fig9")
	// Rewrite a generated-region MOVRI that is not a tag write to target
	// the reserved register, as a buggy backend path would.
	code := a.Code.Program.Code
	pos := -1
	for i := range code {
		if a.Code.NMap.Region[i] == core.RegionGenerated &&
			code[i].Op == isa.MOVRI && code[i].Dst != isa.TagReg {
			pos = i
			break
		}
	}
	if pos < 0 {
		t.Fatal("fixture has no generated MOVRI to corrupt")
	}
	code[pos].Dst = isa.TagReg
	wantDiag(t, a, "native/tagreg-clobber")
}

func TestRoutineTouchesTagRegister(t *testing.T) {
	a := fixture(t, "fig9")
	// Hand-written runtime routines must never write r15.
	code := a.Code.Program.Code
	pos := -1
	for i := range code {
		if a.Code.NMap.Region[i] != core.RegionGenerated &&
			(code[i].Op == isa.MOVRR || code[i].Op == isa.LOAD64 || code[i].Op == isa.ADD) {
			pos = i
			break
		}
	}
	if pos < 0 {
		t.Fatal("fixture has no register-writing routine instruction to corrupt")
	}
	code[pos].Dst = isa.TagReg
	wantDiag(t, a, "native/tagreg-clobber")
}

// --- stale Inverted records ------------------------------------------------

// TestStaleInvertedExact: the Inverted bit must sit on exactly the
// conditional branches the layout flipped. Setting it on an unflipped
// branch and dropping it from a flipped one are both caught.
func TestStaleInvertedExact(t *testing.T) {
	for _, flipped := range []bool{false, true} {
		a := fixture(t, "fig9") // the layout inverts some of its branches, not all
		nm := a.Code.NMap
		pos := -1
		for i := range a.Code.Program.Code {
			in := &a.Code.Program.Code[i]
			if nm.Region[i] == core.RegionGenerated && in.IsBranch() && in.Op != isa.JMP && nm.Inverted[i] == flipped {
				pos = i
				break
			}
		}
		if pos < 0 {
			t.Fatalf("fixture has no conditional branch with Inverted=%v", flipped)
		}
		nm.Inverted[pos] = !flipped
		wantDiag(t, a, "native/stale-inverted")
	}
}

func TestStaleInvertedOnNonBranch(t *testing.T) {
	a := fixture(t, "q6")
	nm := a.Code.NMap
	pos := -1
	for i := range a.Code.Program.Code {
		if nm.Region[i] == core.RegionGenerated && !a.Code.Program.Code[i].IsBranch() {
			pos = i
			break
		}
	}
	if pos < 0 {
		t.Fatal("fixture has no generated non-branch")
	}
	nm.Inverted[pos] = true
	wantDiag(t, a, "native/stale-inverted")
}

// --- shared-call tag protocol ----------------------------------------------

// TestSharedCallWithoutTagWrite: a shared call reached without a tag write
// is absint's path-sensitive untagged-shared-call.
func TestSharedCallWithoutTagWrite(t *testing.T) {
	a := fixture(t, "fig9") // joins insert into hash tables via ht_insert
	prog := a.Code.Program
	nm := a.Code.NMap
	// Find a generated CALL into shared code, then neutralize the tag
	// write that precedes it (redirect it to a scratch register).
	for pos := range prog.Code {
		in := &prog.Code[pos]
		if in.Op != isa.CALL || nm.Region[pos] != core.RegionGenerated {
			continue
		}
		if in.Imm < 0 || int(in.Imm) >= len(prog.Code) || nm.Region[in.Imm] != core.RegionShared {
			continue
		}
		for i := pos - 1; i >= 0 && i > pos-24; i-- {
			w := &prog.Code[i]
			if (w.Op == isa.MOVRI || w.Op == isa.MOVRR) && w.Dst == isa.TagReg {
				w.Dst = 13 // scratchA: the tag is never set
				wantDiag(t, a, "absint/untagged-shared-call")
				return
			}
		}
	}
	t.Fatal("fixture has no tagged shared call to corrupt")
}

// --- debug info shape ------------------------------------------------------

func TestMisalignedNativeMap(t *testing.T) {
	a := fixture(t, "q6")
	a.Code.NMap.Region = a.Code.NMap.Region[:len(a.Code.NMap.Region)-1]
	wantDiag(t, a, "native/nmap-misaligned")
}

func TestProvenanceStripped(t *testing.T) {
	a := fixture(t, "q6")
	nm := a.Code.NMap
	pos := -1
	for i := range a.Code.Program.Code {
		if nm.Region[i] == core.RegionGenerated && len(nm.IRs[i]) > 0 &&
			a.Code.Program.Code[i].Op != isa.JMP {
			pos = i
			break
		}
	}
	if pos < 0 {
		t.Fatal("no generated instruction with provenance")
	}
	nm.IRs[pos] = nil
	wantDiag(t, a, "native/no-provenance")
}

// TestInvariantLoadsReadOnlyRegions: every load the pipeline marks
// invariant reads a read-only region of fig10-opt's memory model, and a
// mark on a hash-directory load — writable memory the build fills — is
// refused, as is one on an address that is not a layout constant plus an
// index (a merge kernel's load through a pointer its loop advances; the
// parallel program has the kernels).
func TestInvariantLoadsReadOnlyRegions(t *testing.T) {
	w, _ := queries.ByName("fig10-opt")
	cat := datagen.Generate(datagen.Config{ScaleFactor: 0.01, Seed: 42})
	cq, err := engine.New(cat, engine.DefaultOptions()).CompileQuery(w.Query)
	if err != nil {
		t.Fatal(err)
	}
	par, err := cq.Parallel()
	if err != nil {
		t.Fatal(err)
	}
	a := &verify.Artifact{Module: par.Module, Mem: cq.Mem}
	if ds := verify.Check(a); len(ds) != 0 {
		t.Fatalf("clean artifact flagged:\n%s", renderDiags(ds))
	}
	marked := 0
	var dirLoad, chainLoad *ir.Instr
	par.Module.ForEachInstr(func(_ *ir.Func, _ *ir.Block, in *ir.Instr) {
		switch {
		case in.Invariant:
			marked++
		case in.Op.IsLoad() && strings.Contains(in.Comment, "directory lookup") && dirLoad == nil:
			dirLoad = in
		case in.Op.IsLoad() && in.Args[0].Op == ir.OpPhi && chainLoad == nil:
			chainLoad = in
		}
	})
	if marked == 0 || dirLoad == nil || chainLoad == nil {
		t.Fatalf("fixture lacks the loads: %d marked, directory %v, chain %v", marked, dirLoad, chainLoad)
	}
	for _, in := range []*ir.Instr{dirLoad, chainLoad} {
		in.Invariant = true
		ds := verify.Check(a)
		in.Invariant = false
		if len(ds) != 1 || ds[0].Check != "ir/invariant-load" {
			t.Errorf("marking %%%d (%s) invariant: got\n%s", in.ID, in.Comment, renderDiags(ds))
		}
	}
}
