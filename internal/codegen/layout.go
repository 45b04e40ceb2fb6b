package codegen

// Profile-guided basic-block layout. The emitter elides an uncondi-
// tional JMP whose target is the next block in layout order, so the goal
// is to chain each hot block directly into its hottest successor: one
// cycle saved per elided JMP per iteration, and cold blocks (trap
// paths, flush tails) sink to the end of the function.
//
// Conditional branches lower as a Jcc-then / JMP-else pair where only
// the JMP can become a fallthrough. When the profile's branch-outcome
// statistics (LBR) say the Jcc side is the common one, the branch sense
// is inverted — the condition is negated and the targets swap — so the
// hot successor moves to the JMP and can be laid out next. Inverted
// branches are flagged in the native map: a re-profile of the recompiled
// binary flips their recorded outcomes back, keeping taken fractions
// normalized to the source branch's then-direction across generations.

import "repro/internal/isa"

// invertedOp maps each conditional branch to its negation (isa.NOP, the
// zero value, for everything else).
var invertedOp = [isa.TRAP + 1]isa.Op{
	isa.JEQ: isa.JNE, isa.JNE: isa.JEQ,
	isa.JLT: isa.JGE, isa.JGE: isa.JLT,
	isa.JNZ: isa.JZ, isa.JZ: isa.JNZ,
}

// layoutFunc reorders lf's blocks and inverts branch senses using the
// profile. It runs after phi lowering (so edge blocks participate) and
// before register allocation (which re-derives liveness from the new
// order). Purely a code-motion pass: no instruction is added or removed
// and all irIDs are preserved.
func layoutFunc(lf *lfunc, hot Hotness) {
	weight := blockWeights(lf, hot)
	invertBranches(lf, hot, weight)

	n := len(lf.blocks)
	if n <= 2 {
		return
	}
	// Greedy chaining: start at the entry, repeatedly follow the current
	// block's preferred (fallthrough) successor; when the chain closes,
	// restart from the heaviest unplaced block.
	order := make([]int, 0, n)
	placed := make([]bool, n)
	cur := 0
	for {
		order = append(order, cur)
		placed[cur] = true
		next := -1
		if t := chainNext(lf.blocks[cur]); t >= 0 && !placed[t] {
			next = t
		}
		if next < 0 {
			for bi := range lf.blocks { // heaviest unplaced, ties by index
				if !placed[bi] && (next < 0 || weight[bi] > weight[next]) {
					next = bi
				}
			}
			if next < 0 {
				break
			}
		}
		cur = next
	}

	remap := make([]int, n) // old index → new index
	for newIx, oldIx := range order {
		remap[oldIx] = newIx
	}
	blocks := make([]*lblock, n)
	for newIx, oldIx := range order {
		blocks[newIx] = lf.blocks[oldIx]
	}
	lf.blocks = blocks
	for _, b := range lf.blocks {
		for i := range b.ins {
			l := &b.ins[i]
			if isTerminatorIns(l) {
				l.tgt = remap[l.tgt]
				l.tgt2 = remap[l.tgt2]
			}
		}
		for i, s := range b.succs {
			b.succs[i] = remap[s]
		}
	}
}

// blockWeights sums the profile weight of each block's instructions.
func blockWeights(lf *lfunc, hot Hotness) []float64 {
	w := make([]float64, len(lf.blocks))
	for bi, b := range lf.blocks {
		for i := range b.ins {
			w[bi] += hot.WeightOf(b.ins[i].irIDs)
		}
	}
	return w
}

// invertBranches flips the sense of each conditional branch whose Jcc
// side is the common one. The outcome statistics decide when available;
// otherwise the successors' own weights do (an LBR-less profile still
// knows which side's block burned cycles).
func invertBranches(lf *lfunc, hot Hotness, weight []float64) {
	for _, b := range lf.blocks {
		k := len(b.ins) - 1
		if k < 1 || b.ins[k].op != isa.JMP || b.ins[k].pseudo != pNone {
			continue
		}
		jcc := &b.ins[k-1]
		inv := invertedOp[jcc.op]
		if inv == isa.NOP || jcc.pseudo != pNone {
			continue
		}
		hotThen := false
		if frac, known := hot.TakenFraction(jcc.irIDs); known {
			hotThen = frac > 0.5
		} else {
			hotThen = weight[jcc.tgt] > weight[jcc.tgt2]
		}
		if !hotThen {
			continue
		}
		jcc.op = inv
		jcc.tgt, jcc.tgt2 = jcc.tgt2, jcc.tgt
		jcc.inverted = !jcc.inverted
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
