package iropt

// CSE and DCE as they stood before the lowering stack moved to dense
// indices, kept verbatim as oracles: string value-numbering keys in a
// table copied per block with one whole-function rewrite per merged
// instruction, and pointer-keyed use counts rebuilt per DCE round. The
// differential tests hold the dense passes to them — same survivors, same
// instruction IDs, same lineage reports in the same order. Exported (from
// a test file) for the external suite test.

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/ir"
)

func RefDCE(m *ir.Module, lin core.Lineage) int {
	removed := 0
	for {
		uses := refCountUses(m)
		n := 0
		for _, f := range m.Funcs {
			for _, b := range f.Blocks {
				kept := b.Instrs[:0]
				for _, in := range b.Instrs {
					if removable(in) && uses[in] == 0 {
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

func RefCSE(m *ir.Module, lin core.Lineage) int {
	merged := 0
	var keyBuf []byte // reused across instructions; see exprKey
	for _, f := range m.Funcs {
		avail := make(map[*ir.Block]map[string]*ir.Instr, len(f.Blocks))
		for _, b := range f.Blocks {
			// Inherit available expressions from a unique predecessor
			// (which, in a chain, dominates this block).
			table := map[string]*ir.Instr{}
			if len(b.Preds) == 1 {
				for k, v := range avail[b.Preds[0]] {
					table[k] = v
				}
			}
			kept := b.Instrs[:0]
			var replaced []refReplacement
			for _, in := range b.Instrs {
				if !in.Op.IsPure() {
					kept = append(kept, in)
					continue
				}
				keyBuf = refExprKey(keyBuf[:0], in)
				// map[string([]byte)] lookups don't allocate; only a
				// first-seen insert materializes the key as a string.
				if prev, ok := table[string(keyBuf)]; ok {
					replaced = append(replaced, refReplacement{old: in, new: prev})
					lin.Replaced(in.ID, prev.ID)
					merged++
					continue
				}
				table[string(keyBuf)] = in
				kept = append(kept, in)
			}
			b.Instrs = kept
			avail[b] = table
			for _, r := range replaced {
				rewriteUses(f, r.old, r.new)
			}
		}
	}
	return merged
}

type refReplacement struct{ old, new *ir.Instr }

// refExprKey canonicalizes an expression for value numbering, appending the
// key to buf and returning the extended slice. Constants are keyed by
// value (distinct OpConst instructions holding the same literal are
// equal), so repeated address computations like tid*8 merge even though
// each occurrence materialized its own constant. The byte-slice form
// exists so CSE can reuse one buffer for every instruction instead of
// building throwaway strings — compilation shows up in the profiler too.
func refExprKey(buf []byte, in *ir.Instr) []byte {
	if in.Op == ir.OpConst {
		buf = append(buf, 'k')
		return strconv.AppendInt(buf, in.Imm, 10)
	}
	buf = strconv.AppendInt(buf, int64(in.Op), 10)
	buf = append(buf, ':')
	for _, a := range in.Args {
		if a.Op == ir.OpConst {
			buf = append(buf, 'k')
			buf = strconv.AppendInt(buf, a.Imm, 10)
		} else {
			buf = strconv.AppendInt(buf, int64(a.ID), 10)
		}
		buf = append(buf, ',')
	}
	return buf
}

func refCountUses(m *ir.Module) map[*ir.Instr]int {
	uses := make(map[*ir.Instr]int)
	m.ForEachInstr(func(_ *ir.Func, _ *ir.Block, in *ir.Instr) {
		for _, a := range in.Args {
			uses[a]++
		}
	})
	return uses
}

// DiffCountUses holds the ID-indexed use counts to the pointer-keyed ones.
func DiffCountUses(m *ir.Module) error {
	dense := make([]int32, m.MaxID()+1)
	countUses(m, dense)
	ref := refCountUses(m)
	var err error
	m.ForEachInstr(func(f *ir.Func, _ *ir.Block, in *ir.Instr) {
		if int(dense[in.ID]) != ref[in] && err == nil {
			err = fmt.Errorf("%s %%%d: %d uses, oracle counts %d", f.Name, in.ID, dense[in.ID], ref[in])
		}
	})
	return err
}

func rewriteUses(f *ir.Func, old, new *ir.Instr) {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for i, a := range in.Args {
				if a == old {
					in.Args[i] = new
				}
			}
		}
	}
}
