// Package tv implements translation validation for the iropt pipeline.
//
// Every optimizer pass is required to preserve the observable behavior of
// the module: the sequence of stores, calls, tag writes and control
// transfers each basic block performs, and the values they operate on.
// Rather than trusting each pass, tv recomputes a canonical symbolic
// summary of the module after every pass application (hooked into
// iropt.Options.AfterPass by the engine's VerifyArtifacts mode) and proves
// the new summary equal to the previous one. A mismatch is a
// miscompilation pinned to the exact pass, reported as a structured
// counterexample: function, block, event index, and the pre/post canonical
// forms that diverged.
//
// The summary is sound against the passes the repo actually runs:
//
//   - no pass adds, removes or renames functions or blocks, so blocks are
//     matched by name;
//   - pure instructions are named by their canonical expression, not
//     their block, so code motion (iropt.Hoist) may move them;
//   - calls, tag reads and unmarked loads are never moved or merged, so
//     they are named by their block plus the count of may-write events
//     (stores and calls for memory, tag writes and calls for the tag
//     register) preceding them — a stable "memory epoch";
//   - a load marked invariant (ir.Instr.Invariant) reads host-staged
//     memory no generated code writes, so code motion may move it and it
//     is named by its canonical address alone; the artifact suite's
//     ir/invariant-load check proves every marked load's region
//     read-only, which is what makes that name sound;
//   - phis are opaque symbols named by their never-reused instruction ID,
//     with their incoming edges checked as separate per-predecessor proof
//     obligations (restricted to phis the observable events depend on, so
//     dead-phi elimination does not raise a false alarm);
//   - pure expressions canonicalize by hash-consed structural value
//     numbering with constant folding (iropt.EvalBin), the algebraic
//     identities a rewrite may legally use (x+0, x*1, x*2^k→x<<k, x-0,
//     x<<0, x/1, x%1, x*0, x|0, x^0, x>>0), and commutative-operand sorting —
//     so every legal rewrite maps pre and post onto the same expression,
//     and anything else does not.
//
// Division is the one value instruction with an effect (the divide-by-zero
// trap). No pass removes or reorders it, and ConstFold only folds it with
// a non-zero constant divisor, so it needs no event of its own; an unused
// division mutated in place is the single defect class this layer cannot
// see (the native layers still can).
package tv

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/iropt"
)

// ---------------------------------------------------------------------------
// Hash-consed canonical expressions
// ---------------------------------------------------------------------------

// Interner assigns stable small integers to canonical expression keys. One
// Interner is shared across every summary a Validator builds, so equal ids
// mean structurally equal canonical expressions across pass boundaries,
// and keys stay O(1) in size (children are embedded by id, not by text).
type Interner struct {
	ids    map[string]int
	keys   []string
	deps   [][]int // phi IDs each expression transitively depends on
	consts map[int]int64
}

// NewInterner returns an empty interner; hand the same one to every
// Summarize call whose summaries will be Compared.
func NewInterner() *Interner {
	return &Interner{ids: map[string]int{}, consts: map[int]int64{}}
}

func (it *Interner) intern(key string, deps []int) int {
	if id, ok := it.ids[key]; ok {
		return id
	}
	id := len(it.keys)
	it.ids[key] = id
	it.keys = append(it.keys, key)
	it.deps = append(it.deps, deps)
	return id
}

func (it *Interner) constExpr(v int64) int {
	id := it.intern("k"+strconv.FormatInt(v, 10), nil)
	it.consts[id] = v
	return id
}

func (it *Interner) constVal(id int) (int64, bool) {
	v, ok := it.consts[id]
	return v, ok
}

// mergeDeps unions two sorted phi-ID slices.
func mergeDeps(a, b []int) []int {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// Render expands an interned expression to bounded depth for
// counterexample messages. Tokens that are all digits are child ids;
// literal immediates are prefixed with '!' when interned.
func (it *Interner) Render(id, depth int) string {
	if id < 0 || id >= len(it.keys) {
		return "?"
	}
	key := it.keys[id]
	if depth <= 0 || !strings.HasPrefix(key, "(") {
		return key
	}
	fields := strings.Fields(strings.Trim(key, "()"))
	for i := 1; i < len(fields); i++ {
		if n, err := strconv.Atoi(fields[i]); err == nil {
			fields[i] = it.Render(n, depth-1)
		}
	}
	return "(" + strings.Join(fields, " ") + ")"
}

// ---------------------------------------------------------------------------
// Module summaries
// ---------------------------------------------------------------------------

// Event is one observable action of a basic block: a store, a call, a tag
// write, or the terminator, in program order.
type Event struct {
	Expr int // interned canonical form
}

type blockSummary struct {
	events []Event
}

type funcSummary struct {
	blocks map[string]*blockSummary
}

// phiOb is one phi's proof obligation: its incoming value per predecessor.
type phiOb struct {
	fn, block string
	preds     []string
	exprs     []int
}

// Summary is the canonical observational summary of a module: per-block
// event sequences plus the live phis' incoming-edge obligations.
type Summary struct {
	funcs map[string]*funcSummary
	phis  map[int]phiOb // live phis only, keyed by instruction ID
}

// commutative ops get operand sorting in canonical form.
func commutative(op ir.Op) bool {
	switch op {
	case ir.OpAdd, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpCmpEq, ir.OpCmpNe:
		return true
	}
	return false
}

type summarizer struct {
	it       *Interner
	fn       string
	memo     map[*ir.Instr]int
	memEpoch map[*ir.Instr]int // loads: #stores+calls before it in its block
	tagEpoch map[*ir.Instr]int // gettag: #settags+calls before it in its block
	callIdx  map[*ir.Instr]int // calls: ordinal among calls in its block
}

// Summarize builds the canonical summary of m using the shared Interner.
func Summarize(m *ir.Module, it *Interner) *Summary {
	s := &Summary{funcs: map[string]*funcSummary{}, phis: map[int]phiOb{}}
	allPhis := map[int]phiOb{}
	phiDeps := map[int][]int{} // phi ID → phi deps of its incoming exprs
	var frontier []int

	for _, f := range m.Funcs {
		sz := &summarizer{
			it:       it,
			fn:       f.Name,
			memo:     map[*ir.Instr]int{},
			memEpoch: map[*ir.Instr]int{},
			tagEpoch: map[*ir.Instr]int{},
			callIdx:  map[*ir.Instr]int{},
		}
		// First walk: assign epochs. Loads and tag reads are named by how
		// many may-write events precede them in their block; both are
		// stable because no pass moves, merges or reorders effectful
		// instructions.
		for _, b := range f.Blocks {
			mem, tag, calls := 0, 0, 0
			for _, in := range b.Instrs {
				switch in.Op {
				case ir.OpLoad8, ir.OpLoad16, ir.OpLoad32, ir.OpLoad64:
					sz.memEpoch[in] = mem
				case ir.OpGetTag:
					sz.tagEpoch[in] = tag
				case ir.OpStore8, ir.OpStore32, ir.OpStore64:
					mem++
				case ir.OpSetTag:
					tag++
				case ir.OpCall:
					sz.callIdx[in] = calls
					calls++
					mem++
					tag++
				}
			}
		}
		fs := &funcSummary{blocks: map[string]*blockSummary{}}
		for _, b := range f.Blocks {
			bs := &blockSummary{}
			for _, in := range b.Instrs {
				if id, ok := sz.event(b, in); ok {
					bs.events = append(bs.events, Event{Expr: id})
					frontier = append(frontier, it.deps[id]...)
				}
			}
			fs.blocks[b.Name] = bs
		}
		s.funcs[f.Name] = fs

		// Collect every phi's obligation; liveness filtering happens below.
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op != ir.OpPhi {
					continue
				}
				ob := phiOb{fn: f.Name, block: b.Name}
				n := len(in.Args)
				if len(b.Preds) < n {
					n = len(b.Preds)
				}
				var deps []int
				for i := 0; i < n; i++ {
					e := sz.canon(in.Args[i])
					ob.preds = append(ob.preds, b.Preds[i].Name)
					ob.exprs = append(ob.exprs, e)
					deps = mergeDeps(deps, it.deps[e])
				}
				allPhis[in.ID] = ob
				phiDeps[in.ID] = deps
			}
		}
	}

	// Live phis: reachable from the events through canonical expressions
	// and other live phis' incoming edges. Dead phis may legally be
	// removed by DCE, so they carry no obligation.
	for len(frontier) > 0 {
		id := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		if _, seen := s.phis[id]; seen {
			continue
		}
		ob, ok := allPhis[id]
		if !ok {
			continue
		}
		s.phis[id] = ob
		frontier = append(frontier, phiDeps[id]...)
	}
	return s
}

// event canonicalizes one observable instruction, or reports ok=false for
// a non-observable one.
func (s *summarizer) event(b *ir.Block, in *ir.Instr) (int, bool) {
	it := s.it
	switch in.Op {
	case ir.OpStore8, ir.OpStore32, ir.OpStore64:
		a, v := s.canon(in.Args[0]), s.canon(in.Args[1])
		key := fmt.Sprintf("(%s %d %d)", in.Op, a, v)
		return it.intern(key, mergeDeps(it.deps[a], it.deps[v])), true
	case ir.OpCall:
		var sb strings.Builder
		fmt.Fprintf(&sb, "(call %s", in.Callee)
		var deps []int
		for _, arg := range in.Args {
			e := s.canon(arg)
			fmt.Fprintf(&sb, " %d", e)
			deps = mergeDeps(deps, it.deps[e])
		}
		sb.WriteString(")")
		return it.intern(sb.String(), deps), true
	case ir.OpSetTag:
		v := s.canon(in.Args[0])
		return it.intern(fmt.Sprintf("(settag %d)", v), it.deps[v]), true
	case ir.OpBr:
		return it.intern("(br "+in.Targets[0].Name+")", nil), true
	case ir.OpCondBr:
		c := s.canon(in.Args[0])
		key := fmt.Sprintf("(condbr %d %s %s)", c, in.Targets[0].Name, in.Targets[1].Name)
		return it.intern(key, it.deps[c]), true
	case ir.OpRet:
		if len(in.Args) == 0 {
			return it.intern("(ret)", nil), true
		}
		v := s.canon(in.Args[0])
		return it.intern(fmt.Sprintf("(ret %d)", v), it.deps[v]), true
	case ir.OpHalt:
		return it.intern("(halt)", nil), true
	case ir.OpTrap:
		return it.intern(fmt.Sprintf("(trap !%d)", in.Imm), nil), true
	}
	return 0, false
}

// canon computes the canonical expression id of a value instruction.
func (s *summarizer) canon(in *ir.Instr) int {
	if id, ok := s.memo[in]; ok {
		return id
	}
	id := s.canon1(in)
	s.memo[in] = id
	return id
}

func (s *summarizer) canon1(in *ir.Instr) int {
	it := s.it
	switch in.Op {
	case ir.OpConst:
		return it.constExpr(in.Imm)
	case ir.OpParam:
		return it.intern("p"+strconv.FormatInt(in.Imm, 10), nil)
	case ir.OpPhi:
		return it.intern("phi"+strconv.Itoa(in.ID), []int{in.ID})
	case ir.OpLoad8, ir.OpLoad16, ir.OpLoad32, ir.OpLoad64:
		a := s.canon(in.Args[0])
		if in.Invariant {
			// No generated code writes what it reads (the verify suite's
			// invariant-load check proves its region read-only), so its
			// value is its address's wherever it runs.
			return it.intern(fmt.Sprintf("(%s %d inv)", in.Op, a), it.deps[a])
		}
		key := fmt.Sprintf("(%s %d @%s/%s#%d)", in.Op, a, s.fn, in.Block.Name, s.memEpoch[in])
		return it.intern(key, it.deps[a])
	case ir.OpGetTag:
		key := fmt.Sprintf("(tag @%s/%s#%d)", s.fn, in.Block.Name, s.tagEpoch[in])
		return it.intern(key, nil)
	case ir.OpCall:
		var sb strings.Builder
		fmt.Fprintf(&sb, "(callv @%s/%s#%d %s", s.fn, in.Block.Name, s.callIdx[in], in.Callee)
		var deps []int
		for _, arg := range in.Args {
			e := s.canon(arg)
			fmt.Fprintf(&sb, " %d", e)
			deps = mergeDeps(deps, it.deps[e])
		}
		sb.WriteString(")")
		return it.intern(sb.String(), deps)
	}

	// Binary operators, including the 1-arg crc32 form (Imm is the second
	// operand) and the non-pure-but-value div/mod.
	if len(in.Args) == 2 || (in.Op == ir.OpCrc32 && len(in.Args) == 1) {
		a := s.canon(in.Args[0])
		var b int
		if len(in.Args) == 2 {
			b = s.canon(in.Args[1])
		} else {
			b = it.constExpr(in.Imm)
		}
		return s.binop(in.Op, a, b)
	}

	// Unknown shape: opaque by ID (keeps the validator total; the IR
	// well-formedness checker owns structural complaints).
	return it.intern("op"+strconv.Itoa(in.ID), nil)
}

// binop folds and normalizes a binary expression with exactly the algebra
// an optimizer pass is allowed to use.
func (s *summarizer) binop(op ir.Op, a, b int) int {
	it := s.it
	av, aConst := it.constVal(a)
	bv, bConst := it.constVal(b)
	if aConst && bConst {
		if !((op == ir.OpSDiv || op == ir.OpSMod) && bv == 0) {
			if v, ok := iropt.EvalBin(op, av, bv); ok {
				return it.constExpr(v)
			}
		}
	}
	switch op {
	case ir.OpAdd, ir.OpOr, ir.OpXor:
		if aConst && av == 0 {
			return b
		}
		if bConst && bv == 0 {
			return a
		}
	case ir.OpSub, ir.OpShl, ir.OpShr, ir.OpRotr:
		if bConst && bv == 0 {
			return a
		}
	case ir.OpSDiv:
		if bConst && bv == 1 {
			return a
		}
	case ir.OpSMod:
		if bConst && bv == 1 {
			return it.constExpr(0)
		}
	case ir.OpMul:
		c, x, hasConst := int64(0), 0, false
		if aConst {
			c, x, hasConst = av, b, true
		} else if bConst {
			c, x, hasConst = bv, a, true
		}
		if hasConst {
			switch {
			case c == 0:
				return it.constExpr(0)
			case c == 1:
				return x
			case c > 0 && c&(c-1) == 0:
				k := int64(0)
				for v := c; v > 1; v >>= 1 {
					k++
				}
				return s.binop(ir.OpShl, x, it.constExpr(k))
			}
		}
	}
	if commutative(op) && b < a {
		a, b = b, a
	}
	key := fmt.Sprintf("(%s %d %d)", op, a, b)
	return it.intern(key, mergeDeps(it.deps[a], it.deps[b]))
}

// ---------------------------------------------------------------------------
// Comparison and counterexamples
// ---------------------------------------------------------------------------

const renderDepth = 4

// Compare proves pre and post observationally equal, returning the
// counterexamples where the proof fails: one IR-level diagnostic for each
// smallest observable unit on which the summaries diverge, its check
// "tv/" and the unit's kind — "func-set", "block-set", "event-count",
// "event", "phi-set" or "phi". Both summaries must come from the same
// Interner.
func Compare(pre, post *Summary, it *Interner) []core.Diag {
	var out []core.Diag
	add := func(kind, fn, block string, event, phi int, pre, post string) {
		locus := fn
		if block != "" {
			locus += "." + block
		}
		if event >= 0 {
			locus += fmt.Sprintf(" event#%d", event)
		}
		if phi != 0 {
			locus += fmt.Sprintf(" %%%d", phi)
		}
		out = append(out, core.Diagf("tv/"+kind, core.LevelIR, locus, "pre=%s post=%s", pre, post))
	}
	var fnames []string
	for name := range pre.funcs {
		fnames = append(fnames, name)
	}
	sort.Strings(fnames)
	for _, name := range fnames {
		pf := pre.funcs[name]
		qf, ok := post.funcs[name]
		if !ok {
			add("func-set", name, "", -1, 0, "present", "missing")
			continue
		}
		var bnames []string
		for bn := range pf.blocks {
			bnames = append(bnames, bn)
		}
		sort.Strings(bnames)
		for _, bn := range bnames {
			pb := pf.blocks[bn]
			qb, ok := qf.blocks[bn]
			if !ok {
				add("block-set", name, bn, -1, 0, "present", "missing")
				continue
			}
			n := len(pb.events)
			if len(qb.events) < n {
				n = len(qb.events)
			}
			for i := 0; i < n; i++ {
				pe, qe := pb.events[i], qb.events[i]
				if pe.Expr != qe.Expr {
					add("event", name, bn, i, 0, it.Render(pe.Expr, renderDepth), it.Render(qe.Expr, renderDepth))
				}
			}
			if len(pb.events) != len(qb.events) {
				add("event-count", name, bn, n, 0, strconv.Itoa(len(pb.events))+" events", strconv.Itoa(len(qb.events))+" events")
			}
		}
		for bn := range qf.blocks {
			if _, ok := pf.blocks[bn]; !ok {
				add("block-set", name, bn, -1, 0, "missing", "present")
			}
		}
	}
	for name := range post.funcs {
		if _, ok := pre.funcs[name]; !ok {
			add("func-set", name, "", -1, 0, "missing", "present")
		}
	}

	var phiIDs []int
	for id := range pre.phis {
		phiIDs = append(phiIDs, id)
	}
	sort.Ints(phiIDs)
	for _, id := range phiIDs {
		pp := pre.phis[id]
		qp, ok := post.phis[id]
		if !ok {
			add("phi-set", pp.fn, pp.block, -1, id, renderPhi(pp, it), "missing")
			continue
		}
		if !phiEqual(pp, qp) {
			add("phi", pp.fn, pp.block, -1, id, renderPhi(pp, it), renderPhi(qp, it))
		}
	}
	for id, qp := range post.phis {
		if _, ok := pre.phis[id]; !ok {
			add("phi-set", qp.fn, qp.block, -1, id, "missing", renderPhi(qp, it))
		}
	}
	return out
}

func phiEqual(a, b phiOb) bool {
	if a.fn != b.fn || a.block != b.block || len(a.preds) != len(b.preds) {
		return false
	}
	for i := range a.preds {
		if a.preds[i] != b.preds[i] || a.exprs[i] != b.exprs[i] {
			return false
		}
	}
	return true
}

func renderPhi(ob phiOb, it *Interner) string {
	var sb strings.Builder
	sb.WriteString("[")
	for i := range ob.preds {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s:%s", ob.preds[i], it.Render(ob.exprs[i], renderDepth-1))
	}
	sb.WriteString("]")
	return sb.String()
}

// ---------------------------------------------------------------------------
// Validator
// ---------------------------------------------------------------------------

// Validator carries the checkpointed summary across pass applications.
// Each Step compares the module's current summary against the previous
// checkpoint, so a mismatch is attributed to exactly the pass that ran in
// between — equivalence is transitive, so the chain of accepted steps
// proves the final module equivalent to the initial one.
type Validator struct {
	it        *Interner
	prev      *Summary
	prevPhase string
	steps     int
}

// NewValidator summarizes the freshly lowered module as the baseline.
func NewValidator(m *ir.Module) *Validator {
	it := NewInterner()
	return &Validator{it: it, prev: Summarize(m, it), prevPhase: "pipeline"}
}

// Steps returns how many pass applications have been validated.
func (v *Validator) Steps() int { return v.steps }

// Step validates the module state after the named pass against the
// previous checkpoint and advances the checkpoint. Each returned
// diagnostic is a counterexample of Compare, its message naming the pass.
func (v *Validator) Step(m *ir.Module, pass string) []core.Diag {
	cur := Summarize(m, v.it)
	ds := Compare(v.prev, cur, v.it)
	for i := range ds {
		ds[i].Msg = fmt.Sprintf("pass %q broke observational equivalence (baseline %q): %s", pass, v.prevPhase, ds[i].Msg)
	}
	v.prev, v.prevPhase = cur, pass
	v.steps++
	return ds
}
