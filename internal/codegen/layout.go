package codegen

// Basic-block layout from the plan's block counts. The emitter elides an
// unconditional JMP whose target is the next block in layout order, so the
// goal is to chain each block directly into its most frequent successor:
// one cycle saved per elided JMP per execution, and cold blocks (trap
// paths, flush tails, phi edges off the hot path) sink to the end of the
// function. Every compile runs it; the weights are the
// estimated execution counts the pipeline generator stamps on each IR
// block (ir.Block.Freq, lblock.freq), never a profile's cycle samples —
// one block with a DRAM load must not outweigh a loop header that runs a
// hundred times more often.
//
// Conditional branches lower as a Jcc-then / JMP-else pair where only the
// JMP can become a fallthrough. When the Jcc target's count exceeds the
// JMP target's, the branch sense is inverted — the condition is negated
// and the targets swap — so the frequent successor moves to the JMP and
// can be laid out next. Inverted branches are flagged in the native map,
// where native/stale-inverted checks the flag against the emitted code.

import "repro/internal/isa"

// invertedOp maps each conditional branch to its negation (isa.NOP, the
// zero value, for everything else).
var invertedOp = [isa.TRAP + 1]isa.Op{
	isa.JEQ: isa.JNE, isa.JNE: isa.JEQ,
	isa.JLT: isa.JGE, isa.JGE: isa.JLT,
	isa.JNZ: isa.JZ, isa.JZ: isa.JNZ,
}

// layoutFunc inverts lf's branches and reorders its blocks by their
// counts. It runs after phi lowering (so edge blocks participate) and
// before register allocation (which re-derives liveness from the new
// order). Purely a code-motion pass: no instruction is added or removed
// and all irIDs are preserved. Its scratch is the lowerer's, sized for
// the module's largest function, so it allocates nothing.
func (lo *lowerer) layoutFunc(lf *lfunc) {
	invertBranches(lf)
	n := len(lf.blocks)
	if n <= 2 {
		return
	}
	if len(lo.lay) < n {
		lo.lay = make([]int32, n)
	}
	remap := lo.lay[:n] // old index → new index, -1 while unplaced
	for i := range remap {
		remap[i] = -1
	}
	// Greedy chaining: start at the entry, repeatedly follow the current
	// block's fallthrough successor; when the chain closes, restart from
	// the most frequent unplaced block (ties: the lowest index).
	placed := int32(0)
	for cur := 0; cur >= 0; placed++ {
		remap[cur] = placed
		next := chainNext(lf.blocks[cur])
		if next >= 0 && remap[next] >= 0 {
			next = -1
		}
		if next < 0 {
			for bi, b := range lf.blocks {
				if remap[bi] < 0 && (next < 0 || b.freq > lf.blocks[next].freq) {
					next = bi
				}
			}
		}
		cur = next
	}

	mapTargets(lf, func(t int) int { return int(remap[t]) })
	// Permute the blocks in place, one cycle of remap at a time.
	for i := range lf.blocks {
		for j := int(remap[i]); j != i; j = int(remap[i]) {
			lf.blocks[i], lf.blocks[j] = lf.blocks[j], lf.blocks[i]
			remap[i], remap[j] = remap[j], remap[i]
		}
	}
}

// invertBranches flips the sense of each conditional branch whose Jcc
// target runs more often than its JMP target, except a loop's bottom
// test, which is taken back into the loop on purpose.
func invertBranches(lf *lfunc) {
	for _, b := range lf.blocks {
		k := len(b.ins) - 1
		if k < 1 || b.ins[k].op != isa.JMP || b.ins[k].pseudo != pNone {
			continue
		}
		jcc := &b.ins[k-1]
		inv := invertedOp[jcc.op]
		if inv == isa.NOP || jcc.pseudo != pNone || jcc.keep {
			continue
		}
		if lf.blocks[jcc.tgt].freq <= lf.blocks[jcc.tgt2].freq {
			continue
		}
		jcc.op = inv
		jcc.tgt, jcc.tgt2 = jcc.tgt2, jcc.tgt
		jcc.inverted = true
		b.ins[k].tgt = jcc.tgt2
	}
}

// chainNext returns the block index that should follow b in layout to
// make its trailing JMP a fallthrough, or -1.
func chainNext(b *lblock) int {
	if len(b.ins) == 0 {
		return -1
	}
	l := &b.ins[len(b.ins)-1]
	if l.op == isa.JMP && l.pseudo == pNone {
		return l.tgt
	}
	return -1
}
