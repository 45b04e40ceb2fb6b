// Package absint abstractly interprets emitted native code against the
// declared heap layout, proving memory safety and tag-register discipline
// properties the structural checks in internal/verify cannot see.
//
// The analysis walks each function of the ISA stream with a forward
// dataflow fixpoint over three domains per register:
//
//   - interval: a [lo, hi] range, refined at fused compare-and-branch
//     edges (the loop bound i < rows tightens i on the taken edge) and
//     seeded from the MemModel's staged-cell facts (a load of a column
//     base slot yields that column's exact base address);
//   - alignment: a congruence value ≡ res (mod 2^bits), which proves
//     8-byte accesses aligned even when the interval is unknown;
//   - tag dataflow: whether the reserved tag register definitely holds a
//     freshly written task tag on every path — the flow-sensitive form of
//     the shared-call protocol that checkers.go approximates with a
//     fixed-window scan.
//
// Every memory access is classified: proved (address provably inside one
// declared region, aligned to its width), unproven (too abstract to
// decide — never an error, the runtime bounds checks still guard it), or
// a definite violation (constant or fully bounded address outside every
// region / crossing a region it may not touch / misaligned congruence /
// a column region read at a width other than the one it is staged at).
// Only definite violations produce diagnostics, so a clean compile
// reports nothing: the gate for wiring this into VerifyArtifacts.
package absint

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/verify"
)

const (
	negInf = math.MinInt64
	posInf = math.MaxInt64
	// alignBits caps the congruence modulus at 2^6 = 64, the layout's
	// region alignment.
	alignBits = 6
	// widenAfter bounds how many times a block's input may be refined
	// before unstable interval bounds are widened to infinity.
	widenAfter = 10
)

// aval is the abstract value of one register: an interval plus an
// alignment congruence (value ≡ res mod 2^bits).
type aval struct {
	lo, hi int64
	bits   uint8
	res    int64
}

func top() aval            { return aval{negInf, posInf, 0, 0} }
func cst(v int64) aval     { return aval{v, v, alignBits, v & 63} }
func (a aval) exact() bool { return a.lo == a.hi }
func (a aval) bounded() bool {
	return a.lo != negInf && a.hi != posInf
}

func mask(bits uint8) int64 { return (1 << bits) - 1 }

// joinv is the lattice join (union).
func joinv(a, b aval) aval {
	o := aval{lo: min64(a.lo, b.lo), hi: max64(a.hi, b.hi)}
	bits := a.bits
	if b.bits < bits {
		bits = b.bits
	}
	for bits > 0 && a.res&mask(bits) != b.res&mask(bits) {
		bits--
	}
	o.bits, o.res = bits, a.res&mask(bits)
	return o
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func satAdd(a, b int64) int64 {
	if a == negInf || b == negInf {
		return negInf
	}
	if a == posInf || b == posInf {
		return posInf
	}
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		if b > 0 {
			return posInf
		}
		return negInf
	}
	return s
}

func addv(a, b aval) aval {
	o := aval{lo: satAdd(a.lo, b.lo), hi: satAdd(a.hi, b.hi)}
	bits := a.bits
	if b.bits < bits {
		bits = b.bits
	}
	o.bits, o.res = bits, (a.res+b.res)&mask(bits)
	return o
}

func subv(a, b aval) aval {
	o := aval{lo: satAdd(a.lo, neg(b.hi)), hi: satAdd(a.hi, neg(b.lo))}
	bits := a.bits
	if b.bits < bits {
		bits = b.bits
	}
	o.bits, o.res = bits, (a.res-b.res)&mask(bits)
	return o
}

func neg(v int64) int64 {
	switch v {
	case negInf:
		return posInf
	case posInf:
		return negInf
	}
	return -v
}

// mulcst multiplies an abstract value by a constant.
func mulcst(a aval, c int64) aval {
	if c == 0 {
		return cst(0)
	}
	lo, hi := mulSat(a.lo, c), mulSat(a.hi, c)
	if c < 0 {
		lo, hi = hi, lo
	}
	o := aval{lo: lo, hi: hi}
	tz := trailingZeros(c)
	bits := a.bits + tz
	if bits > alignBits {
		bits = alignBits
	}
	o.bits, o.res = bits, (a.res*c)&mask(bits)
	return o
}

func trailingZeros(c int64) uint8 {
	if c == 0 {
		return alignBits
	}
	var n uint8
	for u := uint64(c); u&1 == 0 && n < alignBits; u >>= 1 {
		n++
	}
	return n
}

func mulSat(a, c int64) int64 {
	if a == negInf || a == posInf {
		if c < 0 {
			return neg(a)
		}
		return a
	}
	p := a * c
	if a != 0 && (p/a != c || (a == -1 && c == negInf)) {
		if (a > 0) == (c > 0) {
			return posInf
		}
		return negInf
	}
	return p
}

// meetRange intersects a with [lo, hi]; ok=false means contradiction
// (the edge is unreachable).
func meetRange(a aval, lo, hi int64) (aval, bool) {
	a.lo, a.hi = max64(a.lo, lo), min64(a.hi, hi)
	return a, a.lo <= a.hi
}

// ---------------------------------------------------------------------------
// Machine state
// ---------------------------------------------------------------------------

type state struct {
	regs   [isa.NumGPR]aval
	tagged bool // tag register definitely freshly written on all paths
	reach  bool
}

func entryState() state {
	var st state
	for i := range st.regs {
		st.regs[i] = top()
	}
	st.reach = true
	return st
}

func joinState(a, b state) state {
	if !a.reach {
		return b
	}
	if !b.reach {
		return a
	}
	o := state{reach: true, tagged: a.tagged && b.tagged}
	for i := range o.regs {
		o.regs[i] = joinv(a.regs[i], b.regs[i])
	}
	return o
}

func eqState(a, b state) bool {
	if a.reach != b.reach || a.tagged != b.tagged {
		return false
	}
	return a.regs == b.regs
}

// widenState pins unstable interval bounds of new against old to ±inf.
func widenState(old, new state) state {
	if !old.reach {
		return new
	}
	for i := range new.regs {
		if new.regs[i].lo < old.regs[i].lo {
			new.regs[i].lo = negInf
		}
		if new.regs[i].hi > old.regs[i].hi {
			new.regs[i].hi = posInf
		}
	}
	return new
}

// ---------------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------------

// Report summarizes one analysis run.
type Report struct {
	Funcs    int
	Accesses int // memory operands inspected in generated + routine code
	Proved   int // provably in-bounds, in-region and aligned
	Unproven int // too abstract to decide (guarded by the VM at runtime)
	Diags    []verify.Diag
}

type analyzer struct {
	prog   *isa.Program
	nmap   *core.NativeMap
	mem    *verify.MemModel
	regTag bool
	rep    *Report
}

// Analyze interprets the program against the memory model and returns the
// report. Diagnostics are definite violations only.
func Analyze(code *codegen.Result, mem *verify.MemModel, registerTagging bool) *Report {
	rep := &Report{}
	if code == nil || code.Program == nil || code.NMap == nil || mem == nil {
		return rep
	}
	if len(code.NMap.Region) != len(code.Program.Code) {
		// NativeInvariants owns this complaint; nothing sound to do here.
		return rep
	}
	a := &analyzer{prog: code.Program, nmap: code.NMap, mem: mem, regTag: registerTagging, rep: rep}
	for i := range code.Program.Funcs {
		a.analyzeFunc(&code.Program.Funcs[i])
		rep.Funcs++
	}
	return rep
}

// Checker adapts Analyze to the verify suite.
type Checker struct{}

// Name implements verify.Checker.
func (Checker) Name() string { return "absint" }

// Check implements verify.Checker.
func (Checker) Check(art *verify.Artifact) []verify.Diag {
	if art.Code == nil || art.Mem == nil {
		return nil
	}
	return Analyze(art.Code, art.Mem, art.RegisterTagging).Diags
}

func (a *analyzer) bad(rule string, pos int, format string, args ...interface{}) {
	a.rep.Diags = append(a.rep.Diags, verify.Diag{
		Check:    "absint/" + rule,
		Severity: verify.Error,
		Level:    core.LevelNative,
		Locus:    fmt.Sprintf("native@%d", pos),
		Msg:      fmt.Sprintf(format, args...),
	})
}

// blockOf maps instruction positions to block leader positions.
func (a *analyzer) leaders(sym *isa.FuncSym) map[int]bool {
	lead := map[int]bool{sym.Entry: true}
	for pos := sym.Entry; pos < sym.End; pos++ {
		in := &a.prog.Code[pos]
		if in.IsBranch() {
			tgt := int(branchTarget(in))
			if tgt >= sym.Entry && tgt < sym.End {
				lead[tgt] = true
			}
			if pos+1 < sym.End {
				lead[pos+1] = true
			}
		}
	}
	return lead
}

func branchTarget(in *isa.Instr) int64 {
	switch in.Op {
	case isa.JMP, isa.JNZ, isa.JZ:
		return in.Imm
	default: // fused Jcc
		return in.Imm2
	}
}

func (a *analyzer) analyzeFunc(sym *isa.FuncSym) {
	if sym.End <= sym.Entry || sym.End > len(a.prog.Code) {
		return
	}
	lead := a.leaders(sym)
	// Block extent: leader → one past last instruction.
	blockEnd := func(start int) int {
		for pos := start; pos < sym.End; pos++ {
			in := &a.prog.Code[pos]
			if in.IsBranch() || in.Op == isa.RET || in.Op == isa.HALT || in.Op == isa.TRAP {
				return pos + 1
			}
			if lead[pos+1] {
				return pos + 1
			}
		}
		return sym.End
	}

	in := map[int]state{sym.Entry: entryState()}
	visits := map[int]int{}
	work := []int{sym.Entry}
	inWork := map[int]bool{sym.Entry: true}

	flow := func(from state, start int, record bool) (state, []edge) {
		st := from
		end := blockEnd(start)
		for pos := start; pos < end; pos++ {
			st = a.transfer(st, pos, record)
			if !st.reach {
				return st, nil
			}
		}
		last := end - 1
		return st, a.edges(st, last, sym)
	}

	for len(work) > 0 {
		start := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[start] = false
		_, edges := flow(in[start], start, false)
		for _, e := range edges {
			if !e.st.reach {
				continue
			}
			if e.to < sym.Entry || e.to >= sym.End {
				// Branch escapes the function; NativeInvariants owns
				// that complaint.
				continue
			}
			old, ok := in[e.to]
			joined := e.st
			if ok {
				joined = joinState(old, joined)
			}
			visits[e.to]++
			if visits[e.to] > widenAfter {
				joined = widenState(old, joined)
			}
			if !ok || !eqState(old, joined) {
				in[e.to] = joined
				if !inWork[e.to] {
					work = append(work, e.to)
					inWork[e.to] = true
				}
			}
		}
	}

	starts := make([]int, 0, len(lead))
	for start := range lead {
		starts = append(starts, start)
	}
	sort.Ints(starts)

	// Narrowing: widening may have destroyed refined bounds at blocks fed
	// by a not-yet-stable loop head (the body's index interval gets pinned
	// to +inf before the head's branch refinement settles). Recompute each
	// block's input once per round from its predecessors' stabilized
	// outputs, without widening. Transfers are monotone and the widened
	// state is a post-fixpoint, so the decreasing iteration stays sound.
	for round := 0; round < 2; round++ {
		next := map[int]state{sym.Entry: entryState()}
		for _, start := range starts {
			st, ok := in[start]
			if !ok || !st.reach {
				continue
			}
			_, edges := flow(st, start, false)
			for _, e := range edges {
				if !e.st.reach || e.to < sym.Entry || e.to >= sym.End {
					continue
				}
				if old, ok := next[e.to]; ok {
					next[e.to] = joinState(old, e.st)
				} else {
					next[e.to] = e.st
				}
			}
		}
		in = next
	}

	// Stable: replay each reachable block once in address order (so the
	// diagnostic order is deterministic), recording checks.
	for _, start := range starts {
		if st, ok := in[start]; ok && st.reach {
			flow(st, start, true)
		}
	}
}

type edge struct {
	to int
	st state
}

// edges computes successor states of a block ending at last, applying
// branch refinement per edge.
func (a *analyzer) edges(st state, last int, sym *isa.FuncSym) []edge {
	in := &a.prog.Code[last]
	next := last + 1
	switch in.Op {
	case isa.RET, isa.HALT, isa.TRAP:
		return nil
	case isa.JMP:
		return []edge{{int(in.Imm), st}}
	case isa.JNZ, isa.JZ:
		tgt := int(in.Imm)
		taken, fall := st, st
		zeroOn := &fall // JNZ falls through when the register is zero
		nonzOn := &taken
		if in.Op == isa.JZ {
			zeroOn, nonzOn = &taken, &fall
		}
		if v, ok := meetRange(zeroOn.regs[in.Src1], 0, 0); ok {
			zeroOn.regs[in.Src1] = v
		} else {
			zeroOn.reach = false
		}
		// Exclude zero on the nonzero edge when it sits on a bound.
		r := nonzOn.regs[in.Src1]
		if r.lo == 0 && r.hi > 0 {
			r.lo = 1
			nonzOn.regs[in.Src1] = r
		} else if r.hi == 0 && r.lo < 0 {
			r.hi = -1
			nonzOn.regs[in.Src1] = r
		} else if r.exact() && r.lo == 0 {
			nonzOn.reach = false
		}
		out := []edge{{tgt, taken}}
		if next < sym.End {
			out = append(out, edge{next, fall})
		}
		return out
	case isa.JEQ, isa.JNE, isa.JLT, isa.JGE:
		tgt := int(in.Imm2)
		y := cst(in.Imm)
		if !in.UseImm {
			y = st.regs[in.Src2]
		}
		taken, fall := st, st
		refine := func(s *state, rel string) {
			x := s.regs[in.Src1]
			var ok bool
			switch rel {
			case "eq":
				x, ok = meetRange(x, y.lo, y.hi)
			case "lt":
				x, ok = meetRange(x, negInf, satAdd(y.hi, -1))
			case "ge":
				x, ok = meetRange(x, y.lo, posInf)
			default: // "ne": no interval refinement
				ok = true
			}
			if !ok {
				s.reach = false
				return
			}
			s.regs[in.Src1] = x
		}
		switch in.Op {
		case isa.JEQ:
			refine(&taken, "eq")
			refine(&fall, "ne")
		case isa.JNE:
			refine(&taken, "ne")
			refine(&fall, "eq")
		case isa.JLT:
			refine(&taken, "lt")
			refine(&fall, "ge")
		case isa.JGE:
			refine(&taken, "ge")
			refine(&fall, "lt")
		}
		out := []edge{{tgt, taken}}
		if next < sym.End {
			out = append(out, edge{next, fall})
		}
		return out
	default:
		if next < sym.End {
			return []edge{{next, st}}
		}
		return nil
	}
}

// transfer interprets one instruction. With record set, memory and
// protocol checks are evaluated and tallied.
func (a *analyzer) transfer(st state, pos int, record bool) state {
	in := &a.prog.Code[pos]
	gen := a.nmap.Region[pos] == core.RegionGenerated

	setReg := func(r isa.Reg, v aval) {
		if int(r) < len(st.regs) {
			st.regs[r] = v
			if r == isa.TagReg {
				st.tagged = true
			}
		}
	}
	reg := func(r isa.Reg) aval {
		if int(r) < len(st.regs) {
			return st.regs[r]
		}
		return top()
	}

	switch in.Op {
	case isa.NOP:
	case isa.MOVRR:
		setReg(in.Dst, reg(in.Src1))
	case isa.MOVRI:
		setReg(in.Dst, cst(in.Imm))
	case isa.LOAD8, isa.LOAD16, isa.LOAD32, isa.LOAD64:
		addr := a.memAddr(st, in)
		if record {
			a.checkAccess(pos, in, addr, false)
		}
		setReg(in.Dst, a.loadVal(in, addr))
	case isa.STORE8, isa.STORE32, isa.STORE64:
		addr := a.memAddr(st, in)
		if record {
			a.checkAccess(pos, in, addr, true)
		}
	case isa.CALL:
		if record && a.regTag && gen {
			tgt := in.Imm
			if tgt >= 0 && tgt < int64(len(a.nmap.Region)) &&
				a.nmap.Region[tgt] == core.RegionShared && !st.tagged {
				a.bad("untagged-shared-call", pos,
					"call into shared routine %q reachable without a live tag write",
					a.nmap.Routine[tgt])
			}
		}
		callee := in.Imm
		calleeGen := callee >= 0 && callee < int64(len(a.nmap.Region)) &&
			a.nmap.Region[callee] == core.RegionGenerated
		if calleeGen {
			// Generated callees make no preservation promise and write
			// their own tags.
			for i := range st.regs {
				st.regs[i] = top()
			}
			st.tagged = false
		} else {
			// Runtime routines restrict themselves to r0..r4 and never
			// touch the tag register.
			for i := isa.Reg(0); i <= isa.LastClobbered; i++ {
				st.regs[i] = top()
			}
		}
	case isa.JMP, isa.JNZ, isa.JZ, isa.JEQ, isa.JNE, isa.JLT, isa.JGE,
		isa.RET, isa.HALT, isa.TRAP:
		// Handled at block edges.
	default:
		// Binary ALU / compare.
		x := reg(in.Src1)
		y := cst(in.Imm)
		if !in.UseImm {
			y = reg(in.Src2)
		}
		if record && (in.Op == isa.DIV || in.Op == isa.MOD) && y.exact() && y.lo == 0 {
			a.bad("div-zero", pos, "%s by a provably zero divisor", in.Op)
		}
		setReg(in.Dst, alu(in.Op, x, y))
	}
	return st
}

// alu transfers one binary operation.
func alu(op isa.Op, x, y aval) aval {
	switch op {
	case isa.ADD:
		return addv(x, y)
	case isa.SUB:
		return subv(x, y)
	case isa.MUL:
		if y.exact() {
			return mulcst(x, y.lo)
		}
		if x.exact() {
			return mulcst(y, x.lo)
		}
	case isa.SHL:
		if y.exact() && y.lo >= 0 && y.lo < 63 {
			return mulcst(x, int64(1)<<uint(y.lo))
		}
	case isa.SHR:
		if y.exact() && y.lo >= 0 && y.lo < 64 && x.lo >= 0 && x.hi != posInf {
			return aval{lo: int64(uint64(x.lo) >> uint(y.lo)), hi: int64(uint64(x.hi) >> uint(y.lo))}
		}
	case isa.AND:
		if y.exact() && y.lo >= 0 {
			return aval{lo: 0, hi: y.lo, bits: trailingZeros(y.lo), res: 0}
		}
		if x.exact() && x.lo >= 0 {
			return aval{lo: 0, hi: x.lo, bits: trailingZeros(x.lo), res: 0}
		}
		if x.lo >= 0 && y.lo >= 0 {
			return aval{lo: 0, hi: min64(x.hi, y.hi)}
		}
	case isa.DIV:
		if y.exact() && y.lo > 0 && x.lo >= 0 && x.hi != posInf {
			return aval{lo: x.lo / y.lo, hi: x.hi / y.lo}
		}
	case isa.MOD:
		if y.exact() && y.lo > 0 {
			if x.lo >= 0 {
				return aval{lo: 0, hi: y.lo - 1}
			}
			return aval{lo: -(y.lo - 1), hi: y.lo - 1}
		}
	case isa.CMPEQ, isa.CMPNE, isa.CMPLT, isa.CMPLE, isa.CMPGT, isa.CMPGE:
		return aval{lo: 0, hi: 1}
	}
	return top()
}

// memAddr computes the abstract address of a memory operand.
func (a *analyzer) memAddr(st state, in *isa.Instr) aval {
	var addr aval
	if in.Abs {
		addr = cst(in.Imm)
	} else {
		base := top()
		if int(in.Src1) < len(st.regs) {
			base = st.regs[in.Src1]
		}
		addr = addv(base, cst(in.Imm))
	}
	if in.Scaled {
		idx := top()
		if int(in.Src2) < len(st.regs) {
			idx = st.regs[in.Src2]
		}
		addr = addv(addr, mulcst(idx, in.Width()))
	}
	return addr
}

// loadVal resolves the value a load produces: a staged-cell fact for an
// exact 64-bit address, else a width bound.
func (a *analyzer) loadVal(in *isa.Instr, addr aval) aval {
	if in.Op == isa.LOAD64 && addr.exact() {
		if f, ok := a.mem.Cells[addr.lo]; ok {
			v := aval{lo: f.Lo, hi: f.Hi}
			if f.Lo == f.Hi {
				return cst(f.Lo)
			}
			if f.Align > 1 {
				v.bits = trailingZeros(f.Align)
			}
			return v
		}
	}
	switch in.Op {
	case isa.LOAD8:
		return aval{lo: 0, hi: 255}
	case isa.LOAD16:
		return aval{lo: 0, hi: 65535}
	case isa.LOAD32:
		return aval{lo: math.MinInt32, hi: math.MaxInt32}
	}
	return top()
}

// colRegion returns the column region an access provably addresses, or
// nil: the region a constant-base scaled access indexes from, else the one
// holding every address the access may reach.
func (a *analyzer) colRegion(in *isa.Instr, addr aval) *verify.MemRegion {
	var r *verify.MemRegion
	switch {
	case in.Abs && in.Scaled:
		r = a.mem.RegionAt(in.Imm, 1)
	case addr.bounded():
		if r = a.mem.RegionAt(addr.lo, 1); r != nil && !r.Contains(addr.hi, 1) {
			r = nil
		}
	}
	if r == nil || r.Width == 0 {
		return nil
	}
	return r
}

// checkAccess classifies one memory access.
func (a *analyzer) checkAccess(pos int, in *isa.Instr, addr aval, isStore bool) {
	a.rep.Accesses++
	w := in.Width()

	// Alignment: a congruence covering the width decides definitively.
	if w > 1 && addr.bits > 0 && int64(1)<<addr.bits >= w && addr.res%w != 0 {
		a.bad("misaligned", pos, "%s address ≡ %d (mod %d), not %d-byte aligned",
			in.Op, addr.res, int64(1)<<addr.bits, w)
		return
	}

	// A column region holds values of one width, so a load from it at
	// another reads half a value or a neighbour's bytes whatever its index.
	// (A store into one is a readonly-store, below.)
	if r := a.colRegion(in, addr); !isStore && r != nil && r.Width != w {
		a.bad("access-width", pos, "%s reads %d bytes from column region [%d,%d), staged at %d bytes per value",
			in.Op, w, r.Lo, r.Hi, r.Width)
		return
	}

	// A constant-base scaled access indexes the region its base names:
	// generated code addresses an array from its first element. A store
	// whose base lies in read-only data is therefore a definite violation
	// whatever its index, even one too abstract to bound the address.
	if isStore && in.Abs && in.Scaled {
		if r := a.mem.RegionAt(in.Imm, w); r != nil && !r.Writable {
			a.bad("readonly-store", pos, "%s indexes from %d inside read-only region %q",
				in.Op, in.Imm, r.Name)
			return
		}
	}

	if addr.exact() {
		r := a.mem.RegionAt(addr.lo, w)
		if r == nil {
			a.bad("oob", pos, "%s targets address %d, inside no declared region (heap %d)",
				in.Op, addr.lo, a.mem.HeapSize)
			return
		}
		if isStore && !r.Writable {
			a.bad("readonly-store", pos, "%s writes address %d inside read-only region %q",
				in.Op, addr.lo, r.Name)
			return
		}
		if addr.lo%w != 0 {
			a.bad("misaligned", pos, "%s targets %d, not %d-byte aligned", in.Op, addr.lo, w)
			return
		}
		a.rep.Proved++
		return
	}

	if addr.bounded() {
		if addr.hi < 0 || addr.lo >= a.mem.HeapSize {
			a.bad("oob", pos, "%s address range [%d,%d] lies entirely outside the heap (%d)",
				in.Op, addr.lo, addr.hi, a.mem.HeapSize)
			return
		}
		if r := a.mem.RegionAt(addr.lo, w); r != nil && r.Contains(addr.hi, w) {
			if isStore && !r.Writable {
				a.bad("readonly-store", pos, "%s writes [%d,%d] inside read-only region %q",
					in.Op, addr.lo, addr.hi, r.Name)
				return
			}
			aligned := addr.lo%w == 0 && addr.hi%w == 0 &&
				(w == 1 || (addr.bits > 0 && int64(1)<<addr.bits >= w && addr.res%w == 0))
			if aligned {
				a.rep.Proved++
				return
			}
		}
	}
	a.rep.Unproven++
}
