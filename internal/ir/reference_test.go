package ir

// The verifier as it stood before the lowering stack moved to dense
// indices, kept verbatim as the oracle: pointer-keyed block sets, a
// map-of-sets dominator fixpoint, a recursive reachability walk. The
// differential tests and FuzzDominators below hold Check, Reachable and
// Dominators to it — same Problems in the same order, same sets.

import (
	"fmt"
	"strings"
)

func refCheck(m *Module) []Problem {
	var ps []Problem
	seen := make(map[int]*Instr, m.InstrCount())
	for _, f := range m.Funcs {
		ps = append(ps, refCheckFunc(f, seen)...)
	}
	return ps
}

func refCheckFunc(f *Func, seen map[int]*Instr) []Problem {
	var ps []Problem
	add := func(code string, b *Block, in *Instr, format string, args ...interface{}) {
		p := Problem{Code: code, Func: f.Name, Msg: fmt.Sprintf(format, args...)}
		if b != nil {
			p.Block = b.Name
		}
		if in != nil {
			p.Instr = in.ID
		}
		ps = append(ps, p)
	}

	if len(f.Blocks) == 0 {
		add("no-blocks", nil, nil, "function has no blocks")
		return ps
	}
	blockSet := make(map[*Block]bool, len(f.Blocks))
	for _, b := range f.Blocks {
		blockSet[b] = true
	}

	// Edge multiset: how many terminator edges point at each block from
	// each predecessor.
	type edge struct{ from, to *Block }
	edges := map[edge]int{}

	for _, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			add("empty-block", b, nil, "block is empty")
			continue
		}
		if b.Terminator() == nil {
			add("no-terminator", b, nil, "block lacks a terminator")
		}
		pos := make(map[*Instr]int, len(b.Instrs))
		for i, in := range b.Instrs {
			pos[in] = i
			if prev, dup := seen[in.ID]; dup {
				add("dup-id", b, in, "duplicate instruction ID (%s and %s)", prev.Op, in.Op)
			}
			seen[in.ID] = in
			if in.Block != b {
				add("wrong-owner", b, in, "instruction records wrong owner block")
			}
			if in.Op.IsTerminator() && i != len(b.Instrs)-1 {
				add("mid-terminator", b, in, "terminator %s mid-block", in.Op)
			}
			if in.Op == OpPhi {
				if i > 0 && b.Instrs[i-1].Op != OpPhi {
					add("phi-not-at-head", b, in, "phi not at block head")
				}
				if len(in.Args) != len(b.Preds) {
					add("phi-arity", b, in, "%d incoming values for %d preds", len(in.Args), len(b.Preds))
				}
			}
			for _, a := range in.Args {
				if a == nil {
					add("nil-operand", b, in, "nil operand")
					continue
				}
				if a.Type == Void {
					add("void-operand", b, in, "uses void value %%%d", a.ID)
				}
			}
			for _, tgt := range in.Targets {
				if !blockSet[tgt] {
					add("foreign-target", b, in, "targets block %s outside function", tgt.Name)
				}
			}
			if msg := checkTypes(f, in); msg != "" {
				add("type", b, in, "%s", msg)
			}
		}
		if t := b.Terminator(); t != nil {
			for _, tgt := range t.Targets {
				if blockSet[tgt] {
					edges[edge{b, tgt}]++
				}
			}
		}
	}

	// Preds agreement: the recorded predecessor list must be exactly the
	// incoming edge multiset (phi incoming values are parallel to Preds,
	// so a missing or surplus entry silently misroutes dataflow).
	for _, b := range f.Blocks {
		recorded := map[*Block]int{}
		for _, p := range b.Preds {
			recorded[p]++
		}
		for _, p := range f.Blocks {
			want := edges[edge{p, b}]
			if recorded[p] != want {
				add("pred-mismatch", b, nil,
					"records %d preds from %s, CFG has %d edges", recorded[p], p.Name, want)
			}
		}
	}

	ps = append(ps, refCheckDominance(f)...)
	return ps
}

// refCheckDominance verifies the SSA rule: every use is dominated by its
// definition. Non-phi uses in the same block must come after the
// definition; phi incoming values must be defined in a block dominating
// the corresponding predecessor (the value flows along that edge).
func refCheckDominance(f *Func) []Problem {
	var ps []Problem
	reach := refReachable(f)
	dom := refDominators(f)
	pos := map[*Instr]int{}
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			pos[in] = i
		}
	}
	dominates := func(def *Block, use *Block) bool { return dom[use][def] }

	for _, b := range f.Blocks {
		if !reach[b] {
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
					if !reach[pred] {
						continue
					}
					if a.Block != pred && !dominates(a.Block, pred) {
						ps = append(ps, Problem{
							Code: "dominance", Func: f.Name, Block: b.Name, Instr: in.ID,
							Msg: fmt.Sprintf("phi incoming %%%d (block %s) does not dominate pred %s",
								a.ID, a.Block.Name, pred.Name),
						})
					}
					continue
				}
				if a.Block == b {
					if pos[a] >= i {
						ps = append(ps, Problem{
							Code: "use-before-def", Func: f.Name, Block: b.Name, Instr: in.ID,
							Msg: fmt.Sprintf("uses %%%d before its definition", a.ID),
						})
					}
				} else if !dominates(a.Block, b) {
					ps = append(ps, Problem{
						Code: "dominance", Func: f.Name, Block: b.Name, Instr: in.ID,
						Msg: fmt.Sprintf("definition %%%d in %s does not dominate use",
							a.ID, a.Block.Name),
					})
				}
			}
		}
	}
	return ps
}

// refReachable returns the blocks reachable from the entry.
func refReachable(f *Func) map[*Block]bool {
	reach := map[*Block]bool{}
	var walk func(b *Block)
	walk = func(b *Block) {
		if reach[b] {
			return
		}
		reach[b] = true
		for _, s := range b.Succs() {
			walk(s)
		}
	}
	if len(f.Blocks) > 0 {
		walk(f.Entry())
	}
	return reach
}

// refDominators computes, for every block, the set of blocks that dominate it
// (iterative dataflow; the CFGs here are tiny). Shared by the optimizer's
// loop-invariant code motion and the IR verifier.
func refDominators(f *Func) map[*Block]map[*Block]bool {
	entry := f.Entry()
	dom := make(map[*Block]map[*Block]bool, len(f.Blocks))
	for _, b := range f.Blocks {
		if b == entry {
			dom[b] = map[*Block]bool{b: true}
			continue
		}
		s := make(map[*Block]bool, len(f.Blocks))
		for _, x := range f.Blocks {
			s[x] = true
		}
		dom[b] = s
	}
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			if b == entry {
				continue
			}
			var inter map[*Block]bool
			for _, p := range b.Preds {
				if inter == nil {
					inter = make(map[*Block]bool, len(dom[p]))
					for k := range dom[p] {
						inter[k] = true
					}
					continue
				}
				for k := range inter {
					if !dom[p][k] {
						delete(inter, k)
					}
				}
			}
			if inter == nil {
				inter = map[*Block]bool{}
			}
			inter[b] = true
			// Sets only shrink, so a length change means a real change.
			if len(inter) != len(dom[b]) {
				dom[b] = inter
				changed = true
			}
		}
	}
	return dom
}

// DiffDominators holds f's dense Reachable and Dominators to the oracle:
// the same reachable blocks, and for every ordered pair of blocks the same
// answer to "does a dominate b". Exported (from a test file) so the
// external suite test can run it over every compiled suite function.
func DiffDominators(f *Func) error {
	reach, refReach := f.Reachable(), refReachable(f)
	dom, refDom := f.Dominators(), refDominators(f)
	for bi, b := range f.Blocks {
		if reach.Has(bi) != refReach[b] {
			return fmt.Errorf("%s.%s: reachable = %v, oracle says %v", f.Name, b.Name, reach.Has(bi), refReach[b])
		}
		for _, a := range f.Blocks {
			if got, want := dom.Dominates(a, b), refDom[b][a]; got != want {
				return fmt.Errorf("%s: %s dominates %s = %v, oracle says %v", f.Name, a.Name, b.Name, got, want)
			}
		}
	}
	return nil
}

// DiffCheck holds Check to the oracle: the same Problems in the same order.
func DiffCheck(m *Module) error {
	got, want := m.Check(), refCheck(m)
	for i := 0; i < len(got) || i < len(want); i++ {
		switch {
		case i >= len(got):
			return fmt.Errorf("problem %d missing: oracle reports %s", i, want[i])
		case i >= len(want):
			return fmt.Errorf("problem %d surplus: %s", i, got[i])
		case got[i] != want[i]:
			return fmt.Errorf("problem %d: got %s, oracle reports %s", i, got[i], want[i])
		}
	}
	return nil
}

// The listing printer as it stood before it appended into one buffer,
// kept verbatim as the oracle (only its names changed): fmt.Sprintf per
// instruction and fmt's rune-counted padding. TestPrintMatchesReference
// holds Func.Print, Module.Print, AppendTo and FormatInstr to it.

// RefAnnotator is the string-returning Annotator the oracle printer takes.
type RefAnnotator interface {
	Prefix(in *Instr) string
	Suffix(in *Instr) string
	BlockHeader(b *Block) string
}

func refPrintFunc(f *Func, a RefAnnotator) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s(%d args):\n", f.Name, f.NumParams)
	for _, b := range f.Blocks {
		hdr := ""
		if a != nil {
			hdr = a.BlockHeader(b)
		}
		if hdr != "" {
			fmt.Fprintf(&sb, "%s: %s\n", b.Name, hdr)
		} else {
			fmt.Fprintf(&sb, "%s:\n", b.Name)
		}
		for _, in := range b.Instrs {
			prefix, suffix := "", ""
			if a != nil {
				prefix = a.Prefix(in)
				suffix = a.Suffix(in)
			}
			line := refFormatInstr(in)
			if in.Comment != "" {
				line += " ; " + in.Comment
			}
			if suffix != "" {
				fmt.Fprintf(&sb, "  %8s %-60s %s\n", prefix, line, suffix)
			} else if prefix != "" {
				fmt.Fprintf(&sb, "  %8s %s\n", prefix, line)
			} else {
				fmt.Fprintf(&sb, "  %s\n", line)
			}
		}
	}
	return sb.String()
}

func refPrintModule(m *Module, a RefAnnotator) string {
	var sb strings.Builder
	for _, f := range m.Funcs {
		sb.WriteString(refPrintFunc(f, a))
		sb.WriteString("\n")
	}
	return sb.String()
}

func refFormatInstr(in *Instr) string {
	ref := func(a *Instr) string { return fmt.Sprintf("%%%d", a.ID) }
	args := make([]string, len(in.Args))
	for i, a := range in.Args {
		args[i] = ref(a)
	}
	switch in.Op {
	case OpConst:
		return fmt.Sprintf("%%%d = const i64 %d", in.ID, in.Imm)
	case OpParam:
		return fmt.Sprintf("%%%d = param %d", in.ID, in.Imm)
	case OpPhi:
		parts := make([]string, len(in.Args))
		for i, a := range in.Args {
			name := "?"
			if i < len(in.Block.Preds) {
				name = in.Block.Preds[i].Name
			}
			parts[i] = fmt.Sprintf("[%s, %%%s]", ref(a), name)
		}
		return fmt.Sprintf("%%%d = phi %s", in.ID, strings.Join(parts, " "))
	case OpBr:
		return fmt.Sprintf("br %%%s", in.Targets[0].Name)
	case OpCondBr:
		return fmt.Sprintf("condbr %s %%%s %%%s", args[0], in.Targets[0].Name, in.Targets[1].Name)
	case OpRet:
		if len(in.Args) == 0 {
			return "ret"
		}
		return fmt.Sprintf("ret %s", args[0])
	case OpCall:
		if in.Type == Void {
			return fmt.Sprintf("call @%s(%s)", in.Callee, strings.Join(args, ", "))
		}
		return fmt.Sprintf("%%%d = call @%s(%s)", in.ID, in.Callee, strings.Join(args, ", "))
	case OpStore8, OpStore32, OpStore64:
		return fmt.Sprintf("%s %s, %s", in.Op, args[0], args[1])
	case OpSetTag:
		return fmt.Sprintf("settag %s", args[0])
	case OpGetTag:
		return fmt.Sprintf("%%%d = gettag", in.ID)
	case OpHalt:
		return "halt"
	case OpTrap:
		return fmt.Sprintf("trap %d", in.Imm)
	default:
		return fmt.Sprintf("%%%d = %s %s %s", in.ID, in.Op, in.Type, strings.Join(args, ", "))
	}
}

// appending adapts a RefAnnotator to the appending Annotator.
type appending struct{ a RefAnnotator }

func (s appending) AppendPrefix(dst []byte, in *Instr) []byte { return append(dst, s.a.Prefix(in)...) }
func (s appending) AppendSuffix(dst []byte, in *Instr) []byte { return append(dst, s.a.Suffix(in)...) }
func (s appending) AppendBlockHeader(dst []byte, b *Block) []byte {
	return append(dst, s.a.BlockHeader(b)...)
}

// GenModule exports dense_test.go's generator of one-function modules to
// the external suite test.
var GenModule = cfgFromBytes

// DiffPrint holds every printer entry point to the oracle on m, under a
// (nil for a plain listing): Module.Print, each Func.Print, AppendTo onto
// a non-empty buffer, and FormatInstr of every instruction.
func DiffPrint(m *Module, a RefAnnotator) error {
	var ann Annotator
	if a != nil {
		ann = appending{a}
	}
	if got, want := m.Print(ann), refPrintModule(m, a); got != want {
		return fmt.Errorf("Module.Print differs from the oracle:\n got %q\nwant %q", got, want)
	}
	for _, f := range m.Funcs {
		want := refPrintFunc(f, a)
		if got := f.Print(ann); got != want {
			return fmt.Errorf("%s: Func.Print differs from the oracle:\n got %q\nwant %q", f.Name, got, want)
		}
		if got := string(f.AppendTo([]byte("kept"), ann)); got != "kept"+want {
			return fmt.Errorf("%s: AppendTo does not append the listing to what dst holds:\n got %q", f.Name, got)
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if got, want := FormatInstr(in), refFormatInstr(in); got != want {
					return fmt.Errorf("%s: FormatInstr = %q, oracle %q", f.Name, got, want)
				}
			}
		}
	}
	return nil
}
