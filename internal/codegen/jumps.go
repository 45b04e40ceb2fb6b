package codegen

// Control-flow rewrites between phi lowering and layout. Once copies are
// coalesced, most phi edge blocks hold nothing but a JMP, and every pass
// through one costs a cycle; threadJumps sends their predecessors straight
// to the target. bottomTest then gives a loop one branch per iteration: a
// header that only compares and branches is copied into the blocks that
// jump to it, so the latch tests the condition itself and is taken back
// into the body, where the top-tested loop ran the header's branch and
// the latch's JMP. Both delete the blocks nothing reaches any more, so
// layout and allocation see only code that can run.

import "repro/internal/isa"

// jumpOnly reports whether b holds nothing but an unconditional JMP.
func jumpOnly(b *lblock) bool {
	return len(b.ins) == 1 && b.ins[0].op == isa.JMP && b.ins[0].pseudo == pNone
}

// threadJumps retargets every branch into a block that holds only a JMP
// to where that JMP goes, and deletes the blocks that leaves unreached.
func (lo *lowerer) threadJumps(fn *lfunc) {
	final := func(t int) int {
		for steps := 0; steps < len(fn.blocks) && jumpOnly(fn.blocks[t]); steps++ {
			t = fn.blocks[t].ins[0].tgt
		}
		return t
	}
	mapTargets(fn, final)
	lo.prune(fn)
}

// mapTargets sends every branch target and successor of fn's blocks
// through to.
func mapTargets(fn *lfunc, to func(int) int) {
	for _, b := range fn.blocks {
		for i := range b.ins {
			l := &b.ins[i]
			if l.pseudo != pNone {
				continue
			}
			if l.op == isa.JMP || invertedOp[l.op] != isa.NOP {
				l.tgt = to(l.tgt)
			}
			if invertedOp[l.op] != isa.NOP {
				l.tgt2 = to(l.tgt2)
			}
		}
		for i, s := range b.succs {
			b.succs[i] = to(s)
		}
	}
}

// bottomTest copies every block that holds only a compare-and-branch (a
// Jcc and its JMP) — a top-tested loop's header — into each predecessor
// that jumps to it, and deletes it once nothing jumps to it any more. A
// copy that closes the loop — one successor is a DFS back edge, as in the
// latch — is taken towards that successor, back into the body, and marked
// keep, so the layout does not invert it into a branch and a JMP back.
// The other copies (the preheader's) are laid out like any branch.
func (lo *lowerer) bottomTest(fn *lfunc) {
	copied := false
	for hi, h := range fn.blocks {
		if hi == 0 || len(h.ins) != 2 || invertedOp[h.ins[0].op] == isa.NOP || h.ins[0].pseudo != pNone ||
			h.ins[1].op != isa.JMP || h.ins[1].pseudo != pNone || h.ins[0].tgt == hi || h.ins[0].tgt2 == hi {
			continue
		}
		for _, p := range fn.blocks {
			k := len(p.ins) - 1
			if p == h || len(p.succs) != 1 || p.succs[0] != hi || p.ins[k].op != isa.JMP || p.ins[k].pseudo != pNone {
				continue
			}
			p.ins = append(p.ins[:k], h.ins...)
			p.ins[k].keep = true // a candidate until its edges are classified
			p.succs = append(p.succBuf[:0], h.succs...)
			copied = true
		}
	}
	if !copied {
		return
	}
	lo.prune(fn)
	pre, post := lo.dfs(fn)
	for bi, b := range fn.blocks {
		k := len(b.ins) - 1
		if k < 1 || !b.ins[k-1].keep {
			continue
		}
		jcc := &b.ins[k-1]
		back, fwd := within(pre, post, jcc.tgt, bi), within(pre, post, jcc.tgt2, bi)
		jcc.keep = back != fwd
		if fwd && !back {
			jcc.op = invertedOp[jcc.op]
			jcc.tgt, jcc.tgt2 = jcc.tgt2, jcc.tgt
			jcc.inverted = !jcc.inverted
			b.ins[k].tgt = jcc.tgt2
		}
	}
}

// within reports whether block a is b or one of its DFS ancestors.
func within(pre, post []int32, a, b int) bool {
	return pre[a] >= 0 && pre[a] <= pre[b] && post[b] <= post[a]
}

// dfs numbers fn's blocks in a depth-first walk from the entry along
// succs: pre and post order, -1 for a block nothing reaches. Both live in
// the lowerer's block scratch, valid until the next dfs or layout.
func (lo *lowerer) dfs(fn *lfunc) (pre, post []int32) {
	n := len(fn.blocks)
	lo.lay = grow(lo.lay, max(len(lo.lay), 4*n))
	pre, post = lo.lay[:n:n], lo.lay[n:2*n:2*n]
	stack, next := lo.lay[2*n:3*n:3*n], lo.lay[3*n:4*n:4*n]
	for i := range pre {
		pre[i], post[i], next[i] = -1, -1, 0
	}
	clock := int32(0)
	pre[0], stack[0], clock = 0, 0, 1
	for top := 0; top >= 0; {
		b := fn.blocks[stack[top]]
		if i := next[stack[top]]; int(i) < len(b.succs) {
			next[stack[top]]++
			if s := b.succs[i]; pre[s] < 0 {
				pre[s], clock = clock, clock+1
				top++
				stack[top] = int32(s)
			}
			continue
		}
		post[stack[top]], clock = clock, clock+1
		top--
	}
	return pre, post
}

// prune deletes the blocks the entry does not reach and renumbers the
// rest, keeping their order.
func (lo *lowerer) prune(fn *lfunc) {
	pre, _ := lo.dfs(fn)
	remap := pre // reused: reached blocks get their new index
	kept := 0
	for bi := range fn.blocks {
		if pre[bi] >= 0 {
			remap[bi] = int32(kept)
			fn.blocks[kept] = fn.blocks[bi]
			kept++
		}
	}
	if kept == len(fn.blocks) {
		return
	}
	clear(fn.blocks[kept:])
	fn.blocks = fn.blocks[:kept]
	mapTargets(fn, func(t int) int { return int(remap[t]) })
}
