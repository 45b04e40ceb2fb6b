package codegen

// Liveness as the register allocator computed it before the lowering
// stack moved to dense indices, kept verbatim as the oracle: operand
// lists allocated per instruction, a map[vreg]bool per block for gen,
// kill, live-in and live-out, and a fixpoint that walks map keys. The
// differential tests and FuzzLiveness hold liveness() to it. Since
// constant bases became immediates, refOperands also knows the scaled
// memory operands without a base register, and the absolute ones.

import (
	"fmt"
	"slices"

	"repro/internal/ir"
	"repro/internal/isa"
)

// refOperands returns the vregs defined and used by one LIR instruction.
func (l *lins) refOperands() (defs, uses []vreg) {
	switch l.pseudo {
	case pParam:
		return []vreg{l.dst}, nil
	case pRetVal:
		return nil, []vreg{l.a}
	case pCall:
		if l.hasRes {
			defs = []vreg{l.dst}
		}
		return defs, l.args
	}
	switch l.op {
	case isa.MOVRI:
		if l.tagWrite {
			return nil, nil
		}
		return []vreg{l.dst}, nil
	case isa.MOVRR:
		if l.tagWrite {
			return nil, []vreg{l.a}
		}
		if l.tagRead {
			return []vreg{l.dst}, nil
		}
		return []vreg{l.dst}, []vreg{l.a}
	case isa.LOAD8, isa.LOAD16, isa.LOAD32, isa.LOAD64:
		if l.scaled && l.a == 0 { // constant base: no base register
			return []vreg{l.dst}, []vreg{l.b}
		}
		if l.scaled {
			return []vreg{l.dst}, []vreg{l.a, l.b}
		}
		if l.a == 0 { // absolute address: no register
			return []vreg{l.dst}, nil
		}
		return []vreg{l.dst}, []vreg{l.a}
	case isa.STORE8, isa.STORE32, isa.STORE64:
		if l.scaled { // always a constant base
			return nil, []vreg{l.b, l.dst}
		}
		if l.a == 0 { // absolute address
			return nil, []vreg{l.dst}
		}
		return nil, []vreg{l.a, l.dst}
	case isa.JMP, isa.RET, isa.HALT, isa.TRAP, isa.NOP, isa.CALL:
		return nil, nil
	case isa.JNZ, isa.JZ:
		return nil, []vreg{l.a}
	case isa.JEQ, isa.JNE, isa.JLT, isa.JGE:
		if l.useImm {
			return nil, []vreg{l.a}
		}
		return nil, []vreg{l.a, l.b}
	default: // binary ALU / compare
		if l.useImm {
			return []vreg{l.dst}, []vreg{l.a}
		}
		return []vreg{l.dst}, []vreg{l.a, l.b}
	}
}

// refLiveness returns each block's live-in and live-out vreg sets.
func refLiveness(fn *lfunc) (liveIn, liveOut []map[vreg]bool) {
	// Per-block gen/kill.
	gen := make([]map[vreg]bool, len(fn.blocks))
	kill := make([]map[vreg]bool, len(fn.blocks))
	for bi, b := range fn.blocks {
		g, k := map[vreg]bool{}, map[vreg]bool{}
		for i := range b.ins {
			defs, uses := b.ins[i].refOperands()
			for _, u := range uses {
				if u != 0 && !k[u] {
					g[u] = true
				}
			}
			for _, d := range defs {
				if d != 0 {
					k[d] = true
				}
			}
		}
		gen[bi], kill[bi] = g, k
	}

	// Backward fixpoint for live-in/out.
	liveIn = make([]map[vreg]bool, len(fn.blocks))
	liveOut = make([]map[vreg]bool, len(fn.blocks))
	for i := range liveIn {
		liveIn[i], liveOut[i] = map[vreg]bool{}, map[vreg]bool{}
	}
	for changed := true; changed; {
		changed = false
		for bi := len(fn.blocks) - 1; bi >= 0; bi-- {
			out := liveOut[bi]
			for _, s := range fn.blocks[bi].succs {
				for v := range liveIn[s] {
					if !out[v] {
						out[v] = true
						changed = true
					}
				}
			}
			in := liveIn[bi]
			for v := range gen[bi] {
				if !in[v] {
					in[v] = true
					changed = true
				}
			}
			for v := range out {
				if !kill[bi][v] && !in[v] {
					in[v] = true
					changed = true
				}
			}
		}
	}

	return liveIn, liveOut
}

// diffLiveness holds the bit-matrix liveness of fn to the oracle's sets.
func diffLiveness(fn *lfunc) error {
	var scratch ir.Bitset
	liveIn, liveOut, w := liveness(fn, &scratch)
	refIn, refOut := refLiveness(fn)
	var buf [2]vreg
	for bi, b := range fn.blocks {
		for i := range b.ins {
			def, uses := b.ins[i].operands(&buf)
			refDefs, refUses := b.ins[i].refOperands()
			if len(refDefs) > 1 || (len(refDefs) == 1 && refDefs[0] != def) || (len(refDefs) == 0 && def != 0) ||
				!slices.Equal(uses, refUses) {
				return fmt.Errorf("%s.%s[%d]: operands = v%d, %v; oracle has %v, %v", fn.name, b.name, i, def, uses, refDefs, refUses)
			}
		}
		for _, side := range []struct {
			name string
			got  ir.Bitset
			want map[vreg]bool
		}{{"live-in", liveIn.Row(bi, w), refIn[bi]}, {"live-out", liveOut.Row(bi, w), refOut[bi]}} {
			n := 0
			side.got.ForEach(func(int) { n++ })
			if n != len(side.want) {
				return fmt.Errorf("%s.%s: %d vregs %s, oracle has %d", fn.name, b.name, n, side.name, len(side.want))
			}
			for v := range side.want {
				if !side.got.Has(int(v)) {
					return fmt.Errorf("%s.%s: v%d %s in the oracle only", fn.name, b.name, v, side.name)
				}
			}
		}
	}
	return nil
}

// DiffLiveness lowers every function of m the way Compile does and holds
// each one's liveness to the oracle. Exported (from a test file) for the
// external suite test, which can reach compiled suite modules.
func DiffLiveness(m *ir.Module, cfg Config) error {
	lo := newLowerer(m, &cfg)
	for _, f := range m.Funcs {
		lf, err := lo.lowerFunc(f)
		if err != nil {
			return err
		}
		lo.layoutFunc(lf)
		if err := diffLiveness(lf); err != nil {
			return err
		}
	}
	return nil
}

// diffCoalesce coalesces a copy of fn's LIR and holds every merge to the
// oracle, which walks each block of the original backwards from the map
// liveness above: wherever an instruction defines v, no other vreg merged
// with v may be live afterwards unless the instruction is the copy from
// it (then both hold one value). Apart from the deleted self-copies the
// coalesced code must be the original renamed, and its liveness must
// still match the oracle's.
func diffCoalesce(fn *lfunc) error {
	orig := cloneLIR(fn)
	lo := &lowerer{}
	lo.coalesce(fn)
	rep := func(v vreg) vreg {
		if v == 0 || int(v) >= len(lo.cidx) || lo.cidx[v] == 0 || len(lo.root) < len(lo.cands) {
			return v
		}
		return lo.cands[lo.find(lo.cidx[v]-1)]
	}
	_, refOut := refLiveness(orig)
	for bi, b := range orig.blocks {
		live := map[vreg]bool{}
		for v := range refOut[bi] {
			live[v] = true
		}
		for i := len(b.ins) - 1; i >= 0; i-- {
			l := &b.ins[i]
			defs, uses := l.refOperands()
			for _, d := range defs {
				if d == 0 {
					continue
				}
				for y := range live {
					if y != d && rep(y) == rep(d) && !(l.isCopy() && l.a == y) {
						return fmt.Errorf("%s.%s[%d]: v%d and v%d share v%d, but v%d is live with another value where v%d is defined",
							fn.name, b.name, i, d, y, rep(d), y, d)
					}
				}
				delete(live, d)
			}
			for _, u := range uses {
				if u != 0 {
					live[u] = true
				}
			}
		}
	}
	for bi, b := range orig.blocks {
		got := fn.blocks[bi].ins
		k := 0
		for i := range b.ins {
			want := b.ins[i]
			for _, v := range []*vreg{&want.dst, &want.a, &want.b} {
				*v = rep(*v)
			}
			want.args = slices.Clone(want.args)
			for j := range want.args {
				want.args[j] = rep(want.args[j])
			}
			if want.isCopy() && want.dst == want.a {
				continue // a merged copy is deleted
			}
			if k >= len(got) || got[k].op != want.op || got[k].dst != want.dst || got[k].a != want.a ||
				got[k].b != want.b || !slices.Equal(got[k].args, want.args) {
				return fmt.Errorf("%s.%s[%d]: coalesced code differs from the renamed original", fn.name, b.name, i)
			}
			k++
		}
		if k != len(got) {
			return fmt.Errorf("%s.%s: coalesced block has %d instructions, the renamed original %d", fn.name, b.name, len(got), k)
		}
	}
	return diffLiveness(fn)
}

// cloneLIR deep-copies fn's blocks, instructions and call arguments.
func cloneLIR(fn *lfunc) *lfunc {
	out := &lfunc{name: fn.name, nvreg: fn.nvreg}
	for _, b := range fn.blocks {
		nb := &lblock{name: b.name, freq: b.freq, succs: slices.Clone(b.succs), ins: slices.Clone(b.ins)}
		for i := range nb.ins {
			nb.ins[i].args = slices.Clone(nb.ins[i].args)
		}
		out.blocks = append(out.blocks, nb)
	}
	return out
}
