// Package mutate is the miscompilation-mutant harness: it injects seeded,
// deterministic defects into compilation artifacts so the verification
// stack can be measured instead of trusted. Each mutant models a realistic
// compiler bug — swapped operands, a dropped store, a perturbed constant,
// a clobbered or stale tag register, a wild or misaligned address, a
// column read at the wrong width, a branch whose Inverted bit disagrees
// with its sense, a load of writable memory hoisted as if invariant — at one
// of the two levels the validators watch:
//
//   - IR mutants corrupt an ir.Module the way a broken optimizer pass
//     would; the translation validator (internal/verify/tv) must refute
//     observational equivalence against the clean module's summary.
//   - Native mutants corrupt an emitted codegen.Result the way a broken
//     backend would; the artifact suite (NativeInvariants) plus the
//     abstract interpreter (internal/verify/absint) must flag the program.
//
// The harness enumerates candidate sites deterministically (module and
// program iteration order is deterministic) and caps each class at a few
// spread-out sites so the gate stays fast. The gate itself lives in this
// package's tests and in `tprofvet check -mutants`: across the query
// corpus the validators must catch at least 95% of mutants while staying
// completely silent on the unmutated artifacts.
package mutate

import (
	"fmt"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/verify"
)

// Mutant is one seeded defect. Apply corrupts the artifact it was
// enumerated from, in place; enumerate from a fresh artifact for each
// mutant, apply exactly one, then discard the artifact.
type Mutant struct {
	// Class identifies the defect model, e.g. "ir/swap-operands".
	Class string
	// Site describes where the defect lands, for failure output.
	Site string
	// Apply injects the defect into the originating artifact.
	Apply func()
}

// sitesPerClass caps how many sites each class contributes per artifact;
// sites are spread across the candidate list rather than clustered at the
// front.
const sitesPerClass = 3

// spread picks up to sitesPerClass indices evenly across n candidates.
func spread(n int) []int {
	if n <= sitesPerClass {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	return []int{0, n / 2, n - 1}
}

// IR enumerates mutants over a module. The module must be freshly built;
// every returned Apply closure corrupts it in place.
func IR(m *ir.Module) []Mutant {
	type site struct {
		in  *ir.Instr
		fn  string
		blk *ir.Block
		idx int
	}
	collect := func(pred func(*ir.Instr) bool) []site {
		var out []site
		for _, f := range m.Funcs {
			for _, b := range f.Blocks {
				for i, in := range b.Instrs {
					if pred(in) {
						out = append(out, site{in, f.Name, b, i})
					}
				}
			}
		}
		return out
	}
	var muts []Mutant
	class := func(name string, sites []site, apply func(site)) {
		for _, i := range spread(len(sites)) {
			s := sites[i]
			muts = append(muts, Mutant{
				Class: name,
				Site:  fmt.Sprintf("%s/%s %%%d (%s)", s.fn, s.blk.Name, s.in.ID, s.in.Op),
				Apply: func() { apply(s) },
			})
		}
	}

	nonCommutative := func(in *ir.Instr) bool {
		switch in.Op {
		case ir.OpSub, ir.OpShl, ir.OpShr, ir.OpCmpLt, ir.OpCmpLe, ir.OpCmpGt, ir.OpCmpGe:
			return len(in.Args) == 2 && in.Args[0] != in.Args[1]
		}
		return false
	}
	class("ir/swap-operands", collect(nonCommutative), func(s site) {
		s.in.Args[0], s.in.Args[1] = s.in.Args[1], s.in.Args[0]
	})

	class("ir/perturb-const", collect(func(in *ir.Instr) bool {
		return in.Op == ir.OpConst
	}), func(s site) { s.in.Imm++ })

	class("ir/opcode-swap", collect(func(in *ir.Instr) bool {
		// Skip x+0: swapping it to x-0 is an equivalent mutant (both
		// normalize to x), not a defect.
		return in.Op == ir.OpAdd && len(in.Args) == 2 &&
			!(in.Args[1].Op == ir.OpConst && in.Args[1].Imm == 0)
	}), func(s site) { s.in.Op = ir.OpSub })

	class("ir/drop-store", collect(func(in *ir.Instr) bool {
		switch in.Op {
		case ir.OpStore8, ir.OpStore32, ir.OpStore64:
			return true
		}
		return false
	}), func(s site) {
		s.blk.Instrs = append(s.blk.Instrs[:s.idx:s.idx], s.blk.Instrs[s.idx+1:]...)
	})

	class("ir/drop-settag", collect(func(in *ir.Instr) bool {
		return in.Op == ir.OpSetTag
	}), func(s site) {
		s.blk.Instrs = append(s.blk.Instrs[:s.idx:s.idx], s.blk.Instrs[s.idx+1:]...)
	})

	class("ir/swap-branch-targets", collect(func(in *ir.Instr) bool {
		return in.Op == ir.OpCondBr
	}), func(s site) {
		s.in.Targets[0], s.in.Targets[1] = s.in.Targets[1], s.in.Targets[0]
	})

	class("ir/swap-phi-incoming", collect(func(in *ir.Instr) bool {
		return in.Op == ir.OpPhi && len(in.Args) == 2 && in.Args[0] != in.Args[1]
	}), func(s site) {
		s.in.Args[0], s.in.Args[1] = s.in.Args[1], s.in.Args[0]
	})

	// A code-motion bug: a load of writable memory (one not marked
	// invariant) hoisted to its block's immediate dominator, with the
	// address arithmetic it computes in its block, as if it were
	// invariant. It then reads before the stores and calls of the path
	// it left.
	idomOf := func(f *ir.Func) []int32 {
		depth, idom := make([]int32, len(f.Blocks)), make([]int32, len(f.Blocks))
		f.Dominators().Tree(depth, idom)
		return idom
	}
	var hoistable []site
	for _, f := range m.Funcs {
		idom := idomOf(f)
		for _, b := range f.Blocks {
			for i, in := range b.Instrs {
				if in.Op.IsLoad() && !in.Invariant && idom[b.Index] >= 0 && addressMovable(in) {
					hoistable = append(hoistable, site{in, f.Name, b, i})
				}
			}
		}
	}
	class("ir/hoist-writable-load", hoistable, func(s site) {
		f := s.blk.Func
		to := f.Blocks[idomOf(f)[s.blk.Index]]
		var group, kept []*ir.Instr
		for _, in := range s.blk.Instrs {
			if in == s.in || feedsAddress(in, s.in) {
				group = append(group, in)
			} else {
				kept = append(kept, in)
			}
		}
		s.blk.Instrs = kept
		term := to.Instrs[len(to.Instrs)-1]
		to.Instrs = append(append(to.Instrs[:len(to.Instrs)-1:len(to.Instrs)-1], group...), term)
		for _, in := range group {
			in.Block = to
		}
	})

	return muts
}

// addressMovable reports whether a load's address is computed from values
// defined outside its block, through pure arithmetic inside it.
func addressMovable(ld *ir.Instr) bool {
	var ok func(x *ir.Instr) bool
	ok = func(x *ir.Instr) bool {
		if x.Block != ld.Block {
			return true
		}
		if !x.Op.IsPure() {
			return false
		}
		for _, a := range x.Args {
			if !ok(a) {
				return false
			}
		}
		return true
	}
	return ok(ld.Args[0])
}

// feedsAddress reports whether x is part of ld's in-block address
// arithmetic.
func feedsAddress(x, ld *ir.Instr) bool {
	var reach func(y *ir.Instr) bool
	reach = func(y *ir.Instr) bool {
		if y == x {
			return true
		}
		if y.Block != ld.Block {
			return false
		}
		for _, a := range y.Args {
			if reach(a) {
				return true
			}
		}
		return false
	}
	return x.Op.IsPure() && reach(ld.Args[0])
}

// CloneResult deep-copies the parts of a codegen.Result that native
// mutants corrupt (the instruction stream and the Inverted bits); the
// rest of the debug info is shared.
func CloneResult(res *codegen.Result) *codegen.Result {
	out := *res
	prog := &isa.Program{
		Code:  append([]isa.Instr(nil), res.Program.Code...),
		Funcs: append([]isa.FuncSym(nil), res.Program.Funcs...),
	}
	out.Program = prog
	nmap := *res.NMap
	nmap.Inverted = append([]bool(nil), res.NMap.Inverted...)
	out.NMap = &nmap
	return &out
}

// Native enumerates mutants over an emitted program. Clone the result
// (CloneResult) before enumerating; every Apply corrupts it in place.
func Native(res *codegen.Result, mem *verify.MemModel) []Mutant {
	prog, nmap := res.Program, res.NMap
	gen := func(pos int) bool {
		return pos < len(nmap.Region) && nmap.Region[pos] == core.RegionGenerated
	}
	collect := func(pred func(int, *isa.Instr) bool) []int {
		var out []int
		for pos := range prog.Code {
			if pred(pos, &prog.Code[pos]) {
				out = append(out, pos)
			}
		}
		return out
	}
	var muts []Mutant
	class := func(name string, sites []int, apply func(int)) {
		for _, i := range spread(len(sites)) {
			pos := sites[i]
			muts = append(muts, Mutant{
				Class: name,
				Site:  fmt.Sprintf("native@%d (%s)", pos, prog.Code[pos].String()),
				Apply: func() { apply(pos) },
			})
		}
	}

	// An off-by-one on a spill/staging store address: breaks alignment.
	class("native/store-misalign", collect(func(pos int, in *isa.Instr) bool {
		return gen(pos) && in.Op == isa.STORE64 && in.Abs
	}), func(pos int) { prog.Code[pos].Imm++ })

	// A wild absolute load far beyond the heap.
	class("native/load-oob", collect(func(pos int, in *isa.Instr) bool {
		return gen(pos) && in.Op == isa.LOAD64 && in.Abs
	}), func(pos int) { prog.Code[pos].Imm = mem.HeapSize + 4096 })

	// A store retargeted into host-staged read-only data (a column).
	var roBase int64 = -1
	for _, r := range mem.Regions {
		if r.Name == "col" && r.Hi-r.Lo >= 8 {
			roBase = r.Lo
			break
		}
	}
	if roBase >= 0 {
		class("native/readonly-store", collect(func(pos int, in *isa.Instr) bool {
			return gen(pos) && in.Op == isa.STORE64 && in.Abs
		}), func(pos int) { prog.Code[pos].Imm = roBase })
	}

	// A scaled column load at the wrong width, 2 bytes read as 4 or 4 as
	// 2: the kind of slip a backend makes when widths grow a new class.
	// Each direction contributes its own sites.
	colLoad := func(op isa.Op) []int {
		return collect(func(pos int, in *isa.Instr) bool {
			if !gen(pos) || in.Op != op || !in.Abs || !in.Scaled {
				return false
			}
			r := mem.RegionAt(in.Imm, 1)
			return r != nil && r.Name == "col"
		})
	}
	swapWidth := func(pos int) {
		in := &prog.Code[pos]
		if in.Op == isa.LOAD16 {
			in.Op = isa.LOAD32
		} else {
			in.Op = isa.LOAD16
		}
	}
	class("native/load-width", colLoad(isa.LOAD16), swapWidth)
	class("native/load-width", colLoad(isa.LOAD32), swapWidth)

	// A scratch move retargeted to the reserved tag register: a stale tag
	// write far from any shared call.
	class("native/tag-clobber", collect(func(pos int, in *isa.Instr) bool {
		return gen(pos) && in.Op == isa.MOVRI && in.Dst != isa.TagReg &&
			in.Dst > isa.LastClobbered
	}), func(pos int) { prog.Code[pos].Dst = isa.TagReg })

	// The tag write preceding a shared call dropped (NOPed out).
	class("native/drop-tag-write", collect(func(pos int, in *isa.Instr) bool {
		return gen(pos) && in.Op == isa.MOVRI && in.Dst == isa.TagReg
	}), func(pos int) { prog.Code[pos] = isa.Instr{Op: isa.NOP} })

	// An Inverted bit dropped from a branch the layout flipped, or set on
	// one it did not: profiles would then record the branch's outcomes
	// against the wrong source direction.
	class("native/stale-inverted", collect(func(pos int, in *isa.Instr) bool {
		return gen(pos) && in.IsBranch() && in.Op != isa.JMP
	}), func(pos int) { nmap.Inverted[pos] = !nmap.Inverted[pos] })

	// A branch retargeted into a different function.
	class("native/branch-escape", collect(func(pos int, in *isa.Instr) bool {
		if !gen(pos) || !in.IsBranch() {
			return false
		}
		return prog.FuncAt(pos) != nil && len(prog.Funcs) > 1
	}), func(pos int) {
		in := &prog.Code[pos]
		self := prog.FuncAt(pos)
		for i := range prog.Funcs {
			f := &prog.Funcs[i]
			if f != self && f.End > f.Entry {
				tgt := int64(f.Entry)
				if in.Op == isa.JMP || in.Op == isa.JNZ || in.Op == isa.JZ {
					in.Imm = tgt
				} else {
					in.Imm2 = tgt
				}
				return
			}
		}
	})

	return muts
}
