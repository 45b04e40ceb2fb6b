// Package iropt implements the IR-level optimizations of Table 1 that the
// engine applies between code generation and backend lowering: constant
// folding, code motion, dead-code elimination (the paper's "code
// elimination"), and common-subexpression elimination. Every
// transformation is reported to a core.Lineage (implemented by the
// Tagging Dictionary) so profiling attribution stays correct across
// optimization:
//
//   - folding/elimination drop instructions that can never be sampled;
//   - code motion keeps the moved instruction's ID, so its links stay;
//   - CSE makes the surviving instruction a *shared source location*
//     owned by every task whose expression it now computes (§4.2.7).
//
// Loop unrolling and polyhedral transformations are not implemented,
// matching the Umbra prototype's Table 1 column; compare-and-branch
// instruction fusing is implemented in the backend (internal/codegen).
package iropt

import (
	"repro/internal/core"
	"repro/internal/ir"
)

// Options selects passes; the zero value runs nothing.
type Options struct {
	ConstFold bool
	Hoist     bool
	DCE       bool
	CSE       bool

	// AfterPass, when set, runs after every individual pass application
	// (including each fixpoint round) with the pass name. Returning an
	// error aborts optimization. The engine's VerifyArtifacts mode hangs
	// the verification suite here so a lineage bug is pinned to the exact
	// pass that introduced it, not discovered after the whole pipeline.
	AfterPass func(pass string) error
}

// AllOptions enables every implemented pass.
func AllOptions() Options { return Options{ConstFold: true, Hoist: true, DCE: true, CSE: true} }

// Stats reports what the optimizer did.
type Stats struct {
	Folded     int
	Eliminated int
	CSEMerged  int
	Hoisted    int
	Reduced    int // always zero: no pass strength-reduces
}

// Optimize runs the enabled passes to a fixpoint. They are
// deterministic, so compiling the same plan again reproduces the module
// instruction for instruction, ID for ID, and a profile's IR instruction
// IDs line up with the recompile's.
//
// A module marked TagEverything gets its tag writes after the last pass
// (tagEverything), so they follow the code's final placement.
//
// The returned error is non-nil when an AfterPass hook rejected a pass's
// output, the module left in the state that hook saw, or when a module
// marked TagEverything comes with a lineage that cannot name tasks.
func Optimize(m *ir.Module, lin core.Lineage, opts Options) (Stats, error) {
	var st Stats
	var h hoister
	var hookErr error
	after := func(pass string) bool {
		if opts.AfterPass == nil {
			return true
		}
		hookErr = opts.AfterPass(pass)
		return hookErr == nil
	}
	for {
		changed := 0
		if opts.ConstFold {
			n := ConstFold(m, lin)
			st.Folded += n
			changed += n
			if !after("fold") {
				return st, hookErr
			}
		}
		if opts.Hoist {
			n := h.run(m)
			st.Hoisted += n
			changed += n
			if !after("hoist") {
				return st, hookErr
			}
		}
		if opts.CSE {
			n := CSE(m, lin)
			st.CSEMerged += n
			changed += n
			if !after("cse") {
				return st, hookErr
			}
		}
		if opts.DCE {
			n := DCE(m, lin)
			st.Eliminated += n
			changed += n
			if !after("dce") {
				return st, hookErr
			}
		}
		if changed == 0 {
			break
		}
	}
	if m.TagEverything {
		return st, tagEverything(m, lin)
	}
	return st, nil
}

// ConstFold evaluates pure instructions whose operands are all constants,
// rewriting them into OpConst in place (the instruction ID — and therefore
// its Tagging Dictionary links — is preserved; the operands may become
// dead and fall to DCE, mirroring §4.2.7 "constant folding is solely a
// compile-time operation; we just apply code elimination").
func ConstFold(m *ir.Module, lin core.Lineage) int {
	n := 0
	m.ForEachInstr(func(_ *ir.Func, _ *ir.Block, in *ir.Instr) {
		if in.Op == ir.OpConst || len(in.Args) != 2 {
			return
		}
		foldable := in.Op.IsPure() || in.Op == ir.OpSDiv || in.Op == ir.OpSMod
		if !foldable {
			return
		}
		a, b := in.Args[0], in.Args[1]
		if a.Op != ir.OpConst || b.Op != ir.OpConst {
			return
		}
		if (in.Op == ir.OpSDiv || in.Op == ir.OpSMod) && b.Imm == 0 {
			return // preserve the runtime trap
		}
		v, ok := EvalBin(in.Op, a.Imm, b.Imm)
		if !ok {
			return
		}
		in.Op = ir.OpConst
		in.Type = ir.I64
		in.Imm = v
		in.Args = nil
		n++
	})
	return n
}

// DCE removes instructions without side effects whose results are unused,
// iterating until stable. Eliminated instructions are reported so the
// Tagging Dictionary can drop their links.
func DCE(m *ir.Module, lin core.Lineage) int {
	removed := 0
	uses := make([]int32, m.MaxID()+1) // by instruction ID, recounted per round
	for {
		countUses(m, uses)
		n := 0
		for _, f := range m.Funcs {
			for _, b := range f.Blocks {
				kept := b.Instrs[:0]
				for _, in := range b.Instrs {
					if removable(in) && uses[in.ID] == 0 {
						lin.Removed(in.ID)
						n++
						continue
					}
					kept = append(kept, in)
				}
				b.Instrs = kept
			}
		}
		removed += n
		if n == 0 {
			return removed
		}
	}
}

func removable(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpLoad8, ir.OpLoad16, ir.OpLoad32, ir.OpLoad64:
		return true // loads are side-effect free in this machine model
	case ir.OpPhi:
		return true
	case ir.OpGetTag:
		return true
	default:
		return in.Op.IsPure()
	}
}

// CSE performs value numbering over single-predecessor block chains: an
// instruction computing an expression already available is removed and its
// uses rewired to the surviving instruction. The survivor inherits the
// eliminated instruction's tasks (a shared source location; §4.2.7 treats
// CSE exactly like shared code).
//
// A block sees the expressions of its unique predecessor, and through it
// of that block's, as far as the chain of already-visited unique
// predecessors reaches. One table holds every block's expressions, each
// tagged with the block that numbered it; a hit counts only when that
// block is on the current block's chain.
func CSE(m *ir.Module, lin core.Lineage) int {
	merged := 0
	table := map[exprKey]int32{} // expression → 1 + its latest entry; 0 = none
	var entries []cseEntry
	var chain []int32                      // by block: 1 + the block whose chain it was last marked on
	repl := make([]*ir.Instr, m.MaxID()+1) // by ID: the survivor of an instruction merged in this block
	var replaced []*ir.Instr
	for _, f := range m.Funcs {
		clear(table)
		entries = entries[:0]
		chain = append(chain[:0], make([]int32, len(f.Blocks))...)
		for bi, b := range f.Blocks {
			// Mark the chain: b, its unique predecessor if already
			// visited (in a chain it dominates b), and so on up.
			mark := int32(bi + 1)
			for c := b; ; c = c.Preds[0] {
				chain[c.Index] = mark
				if len(c.Preds) != 1 || !f.Owns(c.Preds[0]) || c.Preds[0].Index >= c.Index {
					break
				}
			}
			kept := b.Instrs[:0]
			replaced = replaced[:0]
		instrs:
			for _, in := range b.Instrs {
				key, ok := keyOf(in)
				if !ok {
					kept = append(kept, in)
					continue
				}
				head := table[key]
				for e := head; e != 0; e = entries[e-1].next {
					if prev := entries[e-1]; chain[prev.block] == mark {
						repl[in.ID] = prev.in
						replaced = append(replaced, in)
						lin.Replaced(in.ID, prev.in.ID)
						merged++
						continue instrs
					}
				}
				entries = append(entries, cseEntry{in: in, block: int32(bi), next: head})
				table[key] = int32(len(entries))
				kept = append(kept, in)
			}
			b.Instrs = kept
			if len(replaced) == 0 {
				continue
			}
			// One pass rewires every use of this block's merged
			// instructions. Operands in the block itself were keyed
			// before this pass, as value numbering within a block always
			// was: a use of a merged value merges in the next round.
			for _, ub := range f.Blocks {
				for _, in := range ub.Instrs {
					for i, a := range in.Args {
						if r := repl[a.ID]; r != nil {
							in.Args[i] = r
						}
					}
				}
			}
			for _, in := range replaced {
				repl[in.ID] = nil
			}
		}
	}
	return merged
}

// cseEntry is one numbered expression: the instruction computing it, the
// block that numbered it, and 1 + the previous entry for the same
// expression (numbered on another chain), or 0.
type cseEntry struct {
	in    *ir.Instr
	block int32
	next  int32
}

// exprKey canonicalizes an expression for value numbering. Constants are
// keyed by value (distinct OpConst instructions holding the same literal
// are equal), so repeated address computations like tid*8 merge even
// though each occurrence materialized its own constant; every other
// operand is keyed by its instruction ID. A comparable struct: looking an
// expression up allocates nothing — compilation shows up in the profiler too.
type exprKey struct {
	op      ir.Op
	nargs   uint8
	isConst [2]bool
	arg     [2]int64
}

// keyOf returns in's value-numbering key; ok is false for instructions
// CSE leaves alone (impure ones; no pure opcode takes three operands).
func keyOf(in *ir.Instr) (key exprKey, ok bool) {
	if !in.Op.IsPure() || len(in.Args) > 2 {
		return key, false
	}
	if in.Op == ir.OpConst {
		return exprKey{op: ir.OpConst, arg: [2]int64{in.Imm}}, true
	}
	key = exprKey{op: in.Op, nargs: uint8(len(in.Args))}
	for i, a := range in.Args {
		key.isConst[i], key.arg[i] = a.Op == ir.OpConst, int64(a.ID)
		if key.isConst[i] {
			key.arg[i] = a.Imm
		}
	}
	return key, true
}

// countUses counts, into uses (indexed by instruction ID, cleared first),
// how many operand slots name each instruction.
func countUses(m *ir.Module, uses []int32) {
	clear(uses)
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				for _, a := range in.Args {
					uses[a.ID]++
				}
			}
		}
	}
}

// EvalBin mirrors the VM's ALU semantics (cross-checked by tests). It is
// exported so the translation validator (internal/verify/tv) folds
// constants with exactly the semantics the optimizer uses.
func EvalBin(op ir.Op, a, b int64) (int64, bool) {
	switch op {
	case ir.OpAdd:
		return a + b, true
	case ir.OpSub:
		return a - b, true
	case ir.OpMul:
		return a * b, true
	case ir.OpSDiv:
		if b == 0 {
			return 0, false
		}
		return a / b, true
	case ir.OpSMod:
		if b == 0 {
			return 0, false
		}
		return a % b, true
	case ir.OpAnd:
		return a & b, true
	case ir.OpOr:
		return a | b, true
	case ir.OpXor:
		return a ^ b, true
	case ir.OpShl:
		return a << (uint64(b) & 63), true
	case ir.OpShr:
		return int64(uint64(a) >> (uint64(b) & 63)), true
	case ir.OpRotr:
		s := uint64(b) & 63
		u := uint64(a)
		return int64(u>>s | u<<(64-s)), true
	case ir.OpCrc32:
		x := uint64(a) ^ uint64(b)*0x9e3779b97f4a7c15
		x ^= x >> 32
		x *= 0xd6e8feb86659fd93
		x ^= x >> 32
		return int64(x), true
	case ir.OpCmpEq:
		return b2i(a == b), true
	case ir.OpCmpNe:
		return b2i(a != b), true
	case ir.OpCmpLt:
		return b2i(a < b), true
	case ir.OpCmpLe:
		return b2i(a <= b), true
	case ir.OpCmpGt:
		return b2i(a > b), true
	case ir.OpCmpGe:
		return b2i(a >= b), true
	}
	return 0, false
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
