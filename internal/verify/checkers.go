package verify

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/isa"
)

// ---------------------------------------------------------------------------
// IR well-formedness
// ---------------------------------------------------------------------------

// irWellFormed is the structural IR battery (ir.(*Module).Check: SSA
// dominance, use-before-def, type consistency, phi/pred agreement, CFG
// shape). It lives in package ir so that (*Module).Verify — which engine
// and pipeline call on every compile — is the same code with an
// error-shaped return.
func irWellFormed(a *Artifact) []core.Diag {
	if a.Module == nil {
		return nil
	}
	return a.Module.Check()
}

// invariantLoads proves every load the pipeline generator marked
// invariant (ir.Instr.Invariant) reads a region no generated code writes:
// its address is a layout constant, or a layout constant plus an index,
// and that constant lies in a read-only region of the memory model. Code
// motion moves such loads and the translation validator names them by
// address alone, so a mark on a load of writable memory would let a
// miscompiled move through both; this check refuses the mark itself.
// That the index stays inside the region is the abstract interpreter's
// proof (absint, on the emitted access). Needs the memory model.
func invariantLoads(a *Artifact) []core.Diag {
	if a.Module == nil || a.Mem == nil {
		return nil
	}
	var out []core.Diag
	for _, f := range a.Module.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if !in.Invariant || !in.Op.IsLoad() || len(in.Args) != 1 {
					continue
				}
				msg := ""
				switch base, ok := constBase(in.Args[0]); {
				case !ok:
					msg = "address is not a layout constant plus an index"
				default:
					r := a.Mem.RegionAt(base, 1)
					switch {
					case r == nil:
						msg = fmt.Sprintf("base %d lies in no region", base)
					case r.Writable:
						msg = fmt.Sprintf("base %d lies in writable region %s", base, r.Name)
					}
				}
				if msg != "" {
					out = append(out, core.Diagf("ir/invariant-load", core.LevelIR, fmt.Sprintf("%s.%s %%%d", f.Name, b.Name, in.ID),
						"load marked invariant: %s", msg))
				}
			}
		}
	}
	return out
}

// constBase returns the constant an address is based at: the address
// itself, or the constant operand of an Add.
func constBase(addr *ir.Instr) (int64, bool) {
	switch {
	case addr.Op == ir.OpConst:
		return addr.Imm, true
	case addr.Op == ir.OpAdd && len(addr.Args) == 2:
		for _, x := range addr.Args {
			if x.Op == ir.OpConst {
				return x.Imm, true
			}
		}
	}
	return 0, false
}

// ---------------------------------------------------------------------------
// Tagging Dictionary soundness
// ---------------------------------------------------------------------------

// dictSoundness checks that the Tagging Dictionary still supports
// bottom-up attribution after whatever passes have run:
//
//   - every surviving IR instruction resolves to ≥1 task (orphan-instr),
//   - every Log B entry or shared marking names an instruction that still
//     exists (dangling-tag: a pass deleted code without reporting Removed),
//   - every task a Log B entry names is a registered task that Log A maps
//     to a registered operator (no-operator: attribution dead-ends),
//   - the lineage journal is sane (checkJournal).
//
// A shared marking on a live instruction without a Log B entry is an
// orphan; on a deleted one, a dangling tag.
func dictSoundness(a *Artifact) []core.Diag {
	if a.Dict == nil || a.Module == nil {
		return nil
	}
	d := a.Dict
	reg := d.Registry
	var out []core.Diag

	// Live instruction set, for both directions of the orphan check.
	live := make(map[int]ir.Op, a.Module.InstrCount())
	a.Module.ForEachInstr(func(_ *ir.Func, _ *ir.Block, in *ir.Instr) {
		live[in.ID] = in.Op
	})

	for id, op := range live {
		if len(d.TasksOf(id)) == 0 {
			out = append(out, core.Diagf("dict/orphan-instr", core.LevelTask, fmt.Sprintf("%%%d", id),
				"surviving %s instruction resolves to no task", op))
		}
	}
	for _, id := range d.IRIDs() {
		if _, ok := live[id]; !ok {
			out = append(out, core.Diagf("dict/dangling-tag", core.LevelTask, fmt.Sprintf("%%%d", id),
				"Log B entry for deleted instruction (pass forgot Removed)"))
		}
		for _, task := range d.TasksOf(id) {
			c, ok := reg.Lookup(task)
			op := d.OperatorOf(task)
			oc, opOK := reg.Lookup(op)
			if !ok || c.Level != core.LevelTask || !opOK || oc.Level != core.LevelOperator {
				out = append(out, core.Diagf("dict/no-operator", core.LevelTask, fmt.Sprintf("task %d", task),
					"Log B names component %d, which Log A does not resolve to a registered operator: attribution dead-ends", task))
			}
		}
	}

	out = append(out, checkJournal(d.Journal())...)
	return out
}

// checkJournal replays the lineage event log. The flattened maps cannot
// distinguish "pass ordering X leaves lineage sound" from "two bugs
// cancelled out", so the journal is verified as a history: no event may
// name an instruction an earlier event removed (use-after-remove: deriving
// from one inherits nothing, and IDs are never reused), and the derivation
// graph over all events must be acyclic (derive-cycle, a self-derivation
// included: two instructions each claiming to inherit the other's owners
// leave bottom-up resolution no ground truth to start from).
func checkJournal(events []core.LineageEvent) []core.Diag {
	var out []core.Diag

	removed := map[int]bool{}
	edges := map[int][]int{} // derived ID → source IDs
	for _, ev := range events {
		if removed[ev.ID] {
			out = append(out, core.Diagf("dict/use-after-remove", core.LevelIR, fmt.Sprintf("%%%d", ev.ID),
				"%s event names an instruction that was already removed", ev.Kind))
		}
		for _, src := range ev.Srcs {
			if removed[src] {
				out = append(out, core.Diagf("dict/use-after-remove", core.LevelIR, fmt.Sprintf("%%%d", ev.ID),
					"%s from %%%d, which was already removed", ev.Kind, src))
			}
			edges[ev.ID] = append(edges[ev.ID], src)
		}
		switch ev.Kind {
		case core.LineageReplaced:
			// Replaced removes the old instruction as part of the event.
			for _, src := range ev.Srcs {
				removed[src] = true
			}
		case core.LineageRemoved:
			removed[ev.ID] = true
		}
	}

	// Cycle detection over the derivation graph (iterative DFS, colors).
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[int]int{}
	var stack []int
	for start := range edges {
		if color[start] != white {
			continue
		}
		stack = append(stack[:0], start)
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			if color[n] == white {
				color[n] = gray
				for _, s := range edges[n] {
					switch color[s] {
					case white:
						stack = append(stack, s)
					case gray:
						out = append(out, core.Diagf("dict/derive-cycle", core.LevelIR, fmt.Sprintf("%%%d", n),
							"derivation cycle through %%%d: lineage has no ground truth", s))
					}
				}
			} else {
				if color[n] == gray {
					color[n] = black
				}
				stack = stack[:len(stack)-1]
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Native-code invariants
// ---------------------------------------------------------------------------

// nativeInvariants checks the emitted program against its debug info:
//
//   - the NativeMap parallel arrays cover the program exactly
//     (nmap-misaligned),
//   - every instruction is attributable (no-provenance): generated code
//     carries IR provenance that resolves to ≥1 task (except JMP: phi edge
//     blocks legitimately compile to a bare jump), runtime code a routine
//     name,
//   - the reserved tag register (with RegisterTagging) is written only by
//     OpSetTag lowering, never inside hand-written runtime routines
//     (tagreg-clobber),
//   - every call into shared-region code is followed by the restore of the
//     previous tag (shared-call-unrestored); the tag write before it is
//     absint's path-sensitive untagged-shared-call,
//   - NativeMap.Inverted bits sit exactly on the conditional branches
//     whose taken target is the IR branch's else successor (the layout
//     inverted them), and on nothing else (stale-inverted),
//   - control stays inside functions: branch targets land inside the owning
//     function symbol and CALL targets on function entries (branch-escape),
//     and every function symbol spans code ending in an instruction that
//     cannot fall through into the next function (fallthrough).
func nativeInvariants(a *Artifact) []core.Diag {
	if a.Code == nil || a.Code.Program == nil || a.Code.NMap == nil {
		return nil
	}
	prog, nmap := a.Code.Program, a.Code.NMap
	var out []core.Diag
	at := func(pos int) string { return fmt.Sprintf("native@%d", pos) }

	n := len(prog.Code)
	if len(nmap.IRs) != n || len(nmap.Region) != n || len(nmap.Routine) != n || len(nmap.Inverted) != n {
		out = append(out, core.Diagf("native/nmap-misaligned", core.LevelNative, at(0),
			"NativeMap arrays (%d/%d/%d/%d) do not cover the %d-instruction program",
			len(nmap.IRs), len(nmap.Region), len(nmap.Routine), len(nmap.Inverted), n))
		return out // positional checks below would index out of range
	}

	// IR ID → instruction, for provenance-sensitive register rules and
	// the branch-sense check.
	byID := map[int]*ir.Instr{}
	if a.Module != nil {
		a.Module.ForEachInstr(func(_ *ir.Func, _ *ir.Block, in *ir.Instr) {
			byID[in.ID] = in
		})
	}
	setsTag := func(id int) bool { return byID[id] != nil && byID[id].Op == ir.OpSetTag }
	for pos := range prog.Code {
		in := &prog.Code[pos]
		gen := nmap.Region[pos] == core.RegionGenerated

		// Provenance: every instruction must be attributable.
		switch {
		case gen && len(nmap.IRs[pos]) == 0 && in.Op != isa.JMP:
			out = append(out, core.Diagf("native/no-provenance", core.LevelNative, at(pos),
				"generated %s carries no IR IDs: samples here are unattributable", in.Op))
		case gen && a.Dict != nil:
			for _, irID := range nmap.IRs[pos] {
				if len(a.Dict.TasksOf(irID)) == 0 {
					out = append(out, core.Diagf("native/no-provenance", core.LevelNative, at(pos),
						"IR %%%d resolves to no task through Log B", irID))
				}
			}
		case !gen && nmap.Routine[pos] == "":
			out = append(out, core.Diagf("native/no-provenance", core.LevelNative, at(pos),
				"non-generated instruction has no routine name"))
		}

		// Tag-register discipline.
		if r, writes := defReg(in); a.RegisterTagging && writes && r == isa.TagReg {
			if !gen {
				out = append(out, core.Diagf("native/tagreg-clobber", core.LevelNative, at(pos),
					"runtime routine %q writes the reserved tag register", nmap.Routine[pos]))
			} else if a.Module != nil && !slices.ContainsFunc(nmap.IRs[pos], setsTag) {
				out = append(out, core.Diagf("native/tagreg-clobber", core.LevelNative, at(pos),
					"%s writes the tag register without OpSetTag provenance", in.Op))
			}
		}

		// Inverted exactness: the bit marks the conditional branches the
		// layout flipped — those taken towards the IR branch's else
		// successor — in both directions, and nothing else.
		cond := in.IsBranch() && in.Op != isa.JMP
		if nmap.Inverted[pos] {
			if !cond {
				out = append(out, core.Diagf("native/stale-inverted", core.LevelNative, at(pos),
					"Inverted bit on %s, which is not a conditional branch", in.Op))
			}
			if !gen {
				out = append(out, core.Diagf("native/stale-inverted", core.LevelNative, at(pos),
					"Inverted bit outside generated code"))
			}
		}
		if cond && gen {
			if br, want, known := branchSense(prog, nmap, byID, pos); known && want != nmap.Inverted[pos] {
				if want {
					out = append(out, core.Diagf("native/stale-inverted", core.LevelNative, at(pos),
						"Inverted bit missing: %s is taken towards %%%d's else successor %s", in.Op, br.ID, br.Targets[1].Name))
				} else {
					out = append(out, core.Diagf("native/stale-inverted", core.LevelNative, at(pos),
						"Inverted bit set, but %s is taken towards %%%d's then successor %s", in.Op, br.ID, br.Targets[0].Name))
				}
			}
		}

		// Control flow stays inside functions.
		if in.IsBranch() {
			tgt := in.Imm
			if in.Imm2 != 0 || (in.Op != isa.JMP && in.Op != isa.JNZ && in.Op != isa.JZ) {
				tgt = in.Imm2
			}
			sym := prog.FuncAt(pos)
			if sym == nil {
				out = append(out, core.Diagf("native/branch-escape", core.LevelNative, at(pos),
					"branch outside any function symbol"))
			} else if tgt < int64(sym.Entry) || tgt >= int64(sym.End) {
				out = append(out, core.Diagf("native/branch-escape", core.LevelNative, at(pos),
					"%s targets %d, outside %s [%d,%d)", in.Op, tgt, sym.Name, sym.Entry, sym.End))
			}
		}
		if in.Op == isa.CALL {
			if !slices.ContainsFunc(prog.Funcs, func(f isa.FuncSym) bool { return int64(f.Entry) == in.Imm }) {
				out = append(out, core.Diagf("native/branch-escape", core.LevelNative, at(pos),
					"call targets %d, not a function entry", in.Imm))
			}
			// A shared-region call restores the previous tag after it
			// (§4.2.5, Listing 2).
			if a.RegisterTagging && gen && in.Imm >= 0 && in.Imm < int64(n) &&
				nmap.Region[in.Imm] == core.RegionShared && !tagRestoredAfter(prog, pos) {
				out = append(out, core.Diagf("native/shared-call-unrestored", core.LevelNative, at(pos),
					"tag register not restored after call into shared routine %q", nmap.Routine[in.Imm]))
			}
		}
	}

	// Function extents: every symbol must end in an instruction that
	// cannot fall through into the following function.
	for i := range prog.Funcs {
		sym := &prog.Funcs[i]
		if sym.End <= sym.Entry || sym.End > n {
			out = append(out, core.Diagf("native/fallthrough", core.LevelNative, at(sym.Entry),
				"function %q has extent [%d,%d)", sym.Name, sym.Entry, sym.End))
			continue
		}
		last := &prog.Code[sym.End-1]
		switch last.Op {
		case isa.RET, isa.HALT, isa.TRAP, isa.JMP:
		default:
			out = append(out, core.Diagf("native/fallthrough", core.LevelNative, at(sym.End-1),
				"function %q ends in %s and falls through", sym.Name, last.Op))
		}
	}
	return out
}

// branchSense decides whether the conditional branch at pos is inverted:
// whether it is taken towards the else successor of the IR OpCondBr it
// lowers (br). It resolves the taken target and, failing that, the
// fallthrough side (the paired JMP's target, or the next instruction) to
// IR blocks; known is false when neither side tells the successors apart.
func branchSense(prog *isa.Program, nmap *core.NativeMap, byID map[int]*ir.Instr, pos int) (br *ir.Instr, inverted, known bool) {
	for _, id := range nmap.IRs[pos] {
		if in := byID[id]; in != nil && in.Op == ir.OpCondBr {
			br = in
		}
	}
	if br == nil {
		return nil, false, false
	}
	in := &prog.Code[pos]
	taken := in.Imm2
	if in.Op == isa.JNZ || in.Op == isa.JZ {
		taken = in.Imm
	}
	other := int64(pos + 1)
	if next := pos + 1; next < len(prog.Code) && prog.Code[next].Op == isa.JMP && slices.Contains(nmap.IRs[next], br.ID) {
		other = prog.Code[next].Imm
	}
	then, els := br.Targets[0], br.Targets[1]
	for _, side := range [2]struct {
		pos     int64
		flipped bool
	}{{taken, false}, {other, true}} {
		b := blockAt(prog, nmap, byID, side.pos)
		if b == nil {
			continue
		}
		toThen, toElse := reaches(then, b), reaches(els, b)
		if toThen != toElse {
			return br, toElse != side.flipped, true
		}
	}
	return br, false, false
}

// blockAt resolves the native position p to the IR block whose code
// starts there: the block of the first instruction that is not a phi move,
// where a phi edge block — moves and a JMP with no IR provenance — is
// resolved through its JMP. Nil when p leads nowhere it can name.
func blockAt(prog *isa.Program, nmap *core.NativeMap, byID map[int]*ir.Instr, p int64) *ir.Block {
	for steps := 0; p >= 0 && p < int64(len(prog.Code)) && steps < len(prog.Code); steps++ {
		ids := nmap.IRs[p]
		if len(ids) == 0 {
			if prog.Code[p].Op != isa.JMP {
				return nil
			}
			p = prog.Code[p].Imm
			continue
		}
		in := byID[ids[len(ids)-1]] // the instruction it lowers; fused operands come first
		if in == nil {
			return nil
		}
		if in.Op != ir.OpPhi {
			return in.Block
		}
		p++
	}
	return nil
}

// reaches reports whether b is s or a block s reaches through
// unconditional branches alone: a block whose code is empty or only phi
// moves falls through into its successor.
func reaches(s, b *ir.Block) bool {
	for steps := 0; s != nil && steps <= len(s.Func.Blocks); steps++ {
		if s == b {
			return true
		}
		t := s.Terminator()
		if t == nil || t.Op != ir.OpBr {
			return false
		}
		s = t.Targets[0]
	}
	return false
}

// tagRestoreWindow bounds the scan for the restore after a shared call:
// the call's result moves come between the CALL and the restore; 24
// leaves generous slack.
const tagRestoreWindow = 24

// tagRestoredAfter reports whether a write to the tag register follows the
// CALL at pos within the window, without crossing a control-flow transfer
// (the protocol is straight-line code emitted by sharedCall).
func tagRestoredAfter(prog *isa.Program, pos int) bool {
	for i := pos + 1; i < len(prog.Code) && i <= pos+tagRestoreWindow; i++ {
		in := &prog.Code[i]
		if r, writes := defReg(in); writes && r == isa.TagReg {
			return true
		}
		if in.IsBranch() || in.Op == isa.CALL || in.Op == isa.RET ||
			in.Op == isa.HALT || in.Op == isa.TRAP {
			return false
		}
	}
	return false
}

// defReg returns the register an instruction writes, if any. Stores use
// Dst as the value source (see isa.Instr docs), so they define nothing;
// CALL clobbers r0..r4 architecturally but that is the callee's write.
func defReg(in *isa.Instr) (isa.Reg, bool) {
	switch in.Op {
	case isa.MOVRR, isa.MOVRI,
		isa.LOAD8, isa.LOAD16, isa.LOAD32, isa.LOAD64,
		isa.ADD, isa.SUB, isa.MUL, isa.DIV, isa.MOD,
		isa.AND, isa.OR, isa.XOR, isa.SHL, isa.SHR, isa.ROTR, isa.CRC32,
		isa.CMPEQ, isa.CMPNE, isa.CMPLT, isa.CMPLE, isa.CMPGT, isa.CMPGE:
		return in.Dst, true
	}
	return 0, false
}
