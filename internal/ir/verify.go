package ir

import (
	"fmt"
	"math/bits"
)

// Problem is one structural defect found by (*Module).Check. The Code is a
// stable identifier the verification framework (internal/verify) keys its
// diagnostics and golden tests on; Msg is the human-readable rendering.
type Problem struct {
	Code  string // stable check identifier, e.g. "no-terminator"
	Func  string
	Block string
	Instr int // offending instruction ID, 0 for block-level problems
	Msg   string
}

func (p Problem) String() string {
	loc := p.Func
	if p.Block != "" {
		loc += "." + p.Block
	}
	if p.Instr != 0 {
		loc += fmt.Sprintf(" %%%d", p.Instr)
	}
	return fmt.Sprintf("ir[%s] %s: %s", p.Code, loc, p.Msg)
}

// Verify checks the module's structural invariants and returns the first
// problem as an error, or nil. It is a thin wrapper over Check, kept so
// the many existing call sites (engine, pipeline, tests) stay one-line;
// the full battery — and the per-problem structured form the verification
// framework consumes — lives in Check.
func (m *Module) Verify() error {
	if ps := m.Check(); len(ps) > 0 {
		return fmt.Errorf("ir: %s", ps[0].String())
	}
	return nil
}

// Check runs the full IR well-formedness battery over the module:
//
//   - shape: every function has blocks, every block is non-empty and ends
//     in exactly one terminator, instruction IDs are unique, instructions
//     know their owner block, branch targets stay inside the function;
//   - CFG: each block's Preds list agrees (as a multiset) with the branch
//     edges actually pointing at it;
//   - phis: grouped at the block head, one incoming value per predecessor;
//   - SSA: no nil or void operands, every use is dominated by its
//     definition (same-block uses must follow the definition, phi
//     incoming values must dominate the corresponding predecessor);
//   - types: per-opcode operand counts and result types (comparisons
//     produce i1, loads i64, stores/branches void, ...).
//
// Problems are reported in deterministic order (function, block,
// instruction position). Unreachable blocks are exempt from dominance
// checking — dominator sets are only meaningful on reachable code.
//
// Check writes nothing into the module: its scratch is two ID-indexed
// tables local to the call, so a finished module may be checked from
// several goroutines at once.
func (m *Module) Check() []Problem {
	c := checker{seen: make([]*Instr, m.nextID+1), pos: make([]int32, m.nextID+1)}
	for _, f := range m.Funcs {
		c.checkFunc(f)
	}
	return c.ps
}

// checker is one Check call's state. seen[id] is the last instruction
// visited carrying that ID and pos[id] its position in the block that
// lists it — module-wide tables because IDs are module-unique.
type checker struct {
	ps   []Problem
	seen []*Instr
	pos  []int32
}

func (c *checker) add(f *Func, code string, b *Block, in *Instr, format string, args ...interface{}) {
	p := Problem{Code: code, Func: f.Name, Msg: fmt.Sprintf(format, args...)}
	if b != nil {
		p.Block = b.Name
	}
	if in != nil {
		p.Instr = in.ID
	}
	c.ps = append(c.ps, p)
}

func (c *checker) checkFunc(f *Func) {
	if len(f.Blocks) == 0 {
		c.add(f, "no-blocks", nil, nil, "function has no blocks")
		return
	}
	// Everything below (and every pass after the verifier) indexes
	// per-block tables by Block.Index; a function whose blocks do not sit
	// where they say cannot be checked further.
	for i, b := range f.Blocks {
		if b.Index != i {
			c.add(f, "block-index", b, nil, "block at position %d records index %d", i, b.Index)
			return
		}
	}

	for _, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			c.add(f, "empty-block", b, nil, "block is empty")
			continue
		}
		if b.Terminator() == nil {
			c.add(f, "no-terminator", b, nil, "block lacks a terminator")
		}
		for i, in := range b.Instrs {
			if in.ID < 0 || in.ID >= len(c.seen) {
				c.add(f, "id-range", b, in, "instruction ID outside the module's 0..%d", len(c.seen)-1)
			} else {
				if prev := c.seen[in.ID]; prev != nil {
					c.add(f, "dup-id", b, in, "duplicate instruction ID (%s and %s)", prev.Op, in.Op)
				}
				c.seen[in.ID], c.pos[in.ID] = in, int32(i)
			}
			if in.Block != b {
				c.add(f, "wrong-owner", b, in, "instruction records wrong owner block")
			}
			if in.Op.IsTerminator() && i != len(b.Instrs)-1 {
				c.add(f, "mid-terminator", b, in, "terminator %s mid-block", in.Op)
			}
			if in.Op == OpPhi {
				if i > 0 && b.Instrs[i-1].Op != OpPhi {
					c.add(f, "phi-not-at-head", b, in, "phi not at block head")
				}
				if len(in.Args) != len(b.Preds) {
					c.add(f, "phi-arity", b, in, "%d incoming values for %d preds", len(in.Args), len(b.Preds))
				}
			}
			for _, a := range in.Args {
				if a == nil {
					c.add(f, "nil-operand", b, in, "nil operand")
					continue
				}
				if a.Type == Void {
					c.add(f, "void-operand", b, in, "uses void value %%%d", a.ID)
				}
			}
			for _, tgt := range in.Targets {
				if !f.Owns(tgt) {
					c.add(f, "foreign-target", b, in, "targets block %s outside function", tgt.Name)
				}
			}
			if in.Invariant && !in.Op.IsLoad() {
				c.add(f, "invariant-non-load", b, in, "%s marked invariant", in.Op)
			}
			if msg := checkTypes(f, in); msg != "" {
				c.add(f, "type", b, in, "%s", msg)
			}
		}
	}

	// Preds agreement: the recorded predecessor list must be exactly the
	// incoming edge multiset (phi incoming values are parallel to Preds,
	// so a missing or surplus entry silently misroutes dataflow).
	recorded := make([]int32, len(f.Blocks))
	for _, b := range f.Blocks {
		for _, p := range b.Preds {
			if f.Owns(p) {
				recorded[p.Index]++
			}
		}
		for pi, p := range f.Blocks {
			want := int32(0)
			for _, tgt := range p.Succs() {
				if tgt == b {
					want++
				}
			}
			if recorded[pi] != want {
				c.add(f, "pred-mismatch", b, nil,
					"records %d preds from %s, CFG has %d edges", recorded[pi], p.Name, want)
			}
			recorded[pi] = 0
		}
	}

	c.checkDominance(f)
}

// checkTypes enforces the per-opcode operand/result shape. The type system
// is deliberately loose where the optimizer legitimately changes types
// (constant folding rewrites an i1 comparison into an i64 OpConst, so
// branch conditions and phi inputs only require non-void values).
func checkTypes(f *Func, in *Instr) string {
	argc := func(n int) string {
		if len(in.Args) != n {
			return fmt.Sprintf("%s expects %d operands, has %d", in.Op, n, len(in.Args))
		}
		return ""
	}
	switch in.Op {
	case OpConst:
		if len(in.Args) != 0 {
			return "const takes no operands"
		}
		if in.Type == Void {
			return "const produces no value"
		}
	case OpParam:
		if len(in.Args) != 0 {
			return "param takes no operands"
		}
		if in.Imm < 0 || int(in.Imm) >= f.NumParams {
			return fmt.Sprintf("param #%d out of range (function has %d)", in.Imm, f.NumParams)
		}
	case OpAdd, OpSub, OpMul, OpSDiv, OpSMod, OpAnd, OpOr, OpXor,
		OpShl, OpShr, OpRotr:
		if msg := argc(2); msg != "" {
			return msg
		}
		if in.Type != I64 {
			return fmt.Sprintf("%s must produce i64, produces %s", in.Op, in.Type)
		}
	case OpCrc32:
		// One operand plus Imm, or two operands (see the Op docs).
		if len(in.Args) != 1 && len(in.Args) != 2 {
			return fmt.Sprintf("crc32 expects 1 or 2 operands, has %d", len(in.Args))
		}
		if in.Type != I64 {
			return fmt.Sprintf("crc32 must produce i64, produces %s", in.Type)
		}
	case OpCmpEq, OpCmpNe, OpCmpLt, OpCmpLe, OpCmpGt, OpCmpGe:
		if msg := argc(2); msg != "" {
			return msg
		}
		if in.Type != I1 {
			return fmt.Sprintf("%s must produce i1, produces %s", in.Op, in.Type)
		}
	case OpLoad8, OpLoad16, OpLoad32, OpLoad64:
		if msg := argc(1); msg != "" {
			return msg
		}
		if in.Type != I64 {
			return fmt.Sprintf("%s must produce i64, produces %s", in.Op, in.Type)
		}
	case OpStore8, OpStore32, OpStore64:
		if msg := argc(2); msg != "" {
			return msg
		}
		if in.Type != Void {
			return "store must not produce a value"
		}
	case OpBr:
		if len(in.Args) != 0 || len(in.Targets) != 1 {
			return "br expects 0 operands and 1 target"
		}
	case OpCondBr:
		if len(in.Args) != 1 || len(in.Targets) != 2 {
			return "condbr expects 1 operand and 2 targets"
		}
	case OpRet:
		if len(in.Args) > 1 {
			return "ret expects at most 1 operand"
		}
	case OpCall:
		if in.Callee == "" {
			return "call without callee symbol"
		}
	case OpSetTag:
		if msg := argc(1); msg != "" {
			return msg
		}
		if in.Type != Void {
			return "settag must not produce a value"
		}
	case OpGetTag:
		if len(in.Args) != 0 {
			return "gettag takes no operands"
		}
		if in.Type != I64 {
			return "gettag must produce i64"
		}
	case OpHalt, OpTrap:
		if len(in.Args) != 0 {
			return fmt.Sprintf("%s takes no operands", in.Op)
		}
	}
	return ""
}

// checkDominance verifies the SSA rule: every use is dominated by its
// definition. Non-phi uses in the same block must come after the
// definition; phi incoming values must be defined in a block dominating
// the corresponding predecessor (the value flows along that edge).
func (c *checker) checkDominance(f *Func) {
	reach := f.Reachable()
	dom := f.Dominators()
	// posOf is a's position in b, the block it claims; an instruction the
	// shape pass did not index under its own ID (a duplicate ID, a stale
	// operand no block lists) is looked for the slow way.
	posOf := func(a *Instr, b *Block) int {
		if a.ID >= 0 && a.ID < len(c.seen) && c.seen[a.ID] == a {
			return int(c.pos[a.ID])
		}
		for i, x := range b.Instrs {
			if x == a {
				return i
			}
		}
		return 0
	}

	for bi, b := range f.Blocks {
		if !reach.Has(bi) {
			continue
		}
		for i, in := range b.Instrs {
			for ai, a := range in.Args {
				if a == nil || a.Block == nil {
					continue // reported by the shape checks
				}
				if in.Op == OpPhi {
					if ai >= len(b.Preds) {
						continue // reported as phi-arity
					}
					pred := b.Preds[ai]
					if !f.Owns(pred) || !reach.Has(pred.Index) {
						continue
					}
					if a.Block != pred && !dom.Dominates(a.Block, pred) {
						c.add(f, "dominance", b, in, "phi incoming %%%d (block %s) does not dominate pred %s",
							a.ID, a.Block.Name, pred.Name)
					}
					continue
				}
				if a.Block == b {
					if posOf(a, b) >= i {
						c.add(f, "use-before-def", b, in, "uses %%%d before its definition", a.ID)
					}
				} else if !dom.Dominates(a.Block, b) {
					c.add(f, "dominance", b, in, "definition %%%d in %s does not dominate use",
						a.ID, a.Block.Name)
				}
			}
		}
	}
}

// Reachable returns the set of block indices reachable from the entry.
// Edges to blocks outside the function (a foreign-target problem) are not
// followed.
func (f *Func) Reachable() Bitset {
	reach := NewBitset(len(f.Blocks))
	if len(f.Blocks) == 0 {
		return reach
	}
	reach.Set(0)
	stack := []*Block{f.Entry()}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs() {
			if f.Owns(s) && !reach.Has(s.Index) {
				reach.Set(s.Index)
				stack = append(stack, s)
			}
		}
	}
	return reach
}

// DomSets is a function's dominator relation as one bit matrix: row b is
// the set of block indices that dominate f.Blocks[b].
type DomSets struct {
	f     *Func
	words int
	rows  Bitset
}

// Dominates reports whether block a dominates block b. A block that is
// not one of the function's dominates nothing and is dominated by nothing.
func (d DomSets) Dominates(a, b *Block) bool {
	return d.f.Owns(a) && d.f.Owns(b) && d.rows.Row(b.Index, d.words).Has(a.Index)
}

// Dominators computes, for every block, the set of blocks that dominate it
// by iterating dom(b) = {b} ∪ ⋂ dom(preds) down from the full set over
// bitset rows, one allocation per function. Shared by the optimizer's
// code motion and the IR verifier. A predecessor that is not one of the
// function's blocks contributes the empty set.
func (f *Func) Dominators() DomSets {
	var d DomSets
	d.Compute(f)
	return d
}

// Compute recomputes d as f's dominator relation, reusing d's rows when
// they are large enough: a pass that visits every function of a module
// allocates them once.
func (d *DomSets) Compute(f *Func) {
	n := len(f.Blocks)
	w := BitsetWords(n)
	rows := d.rows[:0]
	if need := (n + 1) * w; cap(rows) >= need { // row n is the intersection being built
		rows = rows[:need]
		clear(rows)
	} else {
		rows = make(Bitset, need)
	}
	*d = DomSets{f: f, words: w, rows: rows}
	if n == 0 {
		return
	}
	rows.Row(0, w).Set(0)
	for bi := 1; bi < n; bi++ {
		row := rows.Row(bi, w)
		for i := 0; i < n; i++ {
			row.Set(i)
		}
	}
	inter := rows.Row(n, w)
	for changed := true; changed; {
		changed = false
		for bi := 1; bi < n; bi++ {
			clear(inter)
			for pi, p := range f.Blocks[bi].Preds {
				switch {
				case !f.Owns(p):
					clear(inter)
				case pi == 0:
					copy(inter, rows.Row(p.Index, w))
				default:
					for k, pw := range rows.Row(p.Index, w) {
						inter[k] &= pw
					}
				}
			}
			inter.Set(bi)
			row := rows.Row(bi, w)
			for k := range inter {
				if row[k] != inter[k] {
					row[k] = inter[k]
					changed = true
				}
			}
		}
	}
}

// Row returns the set of block indices that dominate f.Blocks[b].
func (d DomSets) Row(b int) Bitset { return d.rows.Row(b, d.words) }

// Tree fills depth and idom, both indexed by block and at least as long
// as the function's block list: depth[b] is the number of blocks
// dominating b (the entry's is 1), idom[b] the index of b's immediate
// dominator, or -1 for the entry and for unreachable blocks.
func (d DomSets) Tree(depth, idom []int32) {
	n := len(d.f.Blocks)
	for b := range n {
		c := 0
		for _, w := range d.Row(b) {
			c += bits.OnesCount64(w)
		}
		depth[b] = int32(c)
	}
	for b := range n {
		idom[b] = -1
		for wi, w := range d.Row(b) {
			for ; w != 0; w &= w - 1 {
				if x := wi<<6 + bits.TrailingZeros64(w); x != b && depth[x] == depth[b]-1 {
					idom[b] = int32(x)
				}
			}
		}
	}
}
