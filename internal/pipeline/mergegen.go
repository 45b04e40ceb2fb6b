package pipeline

import (
	"strconv"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/plan"
)

// Partitioned-merge kernel generation (DESIGN.md §5). Every sink that
// materializes a hash table gets up to three extra generated functions,
// lowered through the exact same builder + Tagging Dictionary path as the
// pipelines themselves, so merge cycles are profiled code. Compile
// registers their tasks; Kernels generates them, on an artifact's first
// parallel run:
//
//   - scatter<i>: runs on the worker right after each morsel, radix-
//     partitioning the just-produced segment by the stored entry hash via
//     a counting sort into ScatterOut. The within-segment index of each
//     entry is stamped into its (dead) next word so the host can rebase
//     it into a global sequence number with one addition.
//   - merge<i>: runs once per partition, fanned out across workers. For
//     insert sinks (join / group-join builds) it replays the staged
//     entries seq-ascending into the partition's directory slot range at
//     host-computed destination addresses; for group-by sinks it upserts
//     staged partial groups, combining aggregate state and recording each
//     group's first-occurrence sequence number.
//   - place<i> (group-by only): a second insert-kernel round, also fanned
//     out per partition. Once the host has sorted the deduplicated groups
//     by first-occurrence seq, every group's final arena address is known
//     (Arena + rank·EntrySize), and since a group's directory slot
//     determines its partition, chains are partition-local — so placement
//     parallelizes exactly like a join build. Nothing in the merge phase
//     runs serially on the coordinator.
//
// A partition owns the directory slot range [p<<SlotShift, (p+1)<<SlotShift),
// so concurrent merge kernels never touch the same slot or entry.

// registerMerge registers the merge tasks of p's sink and returns its
// MergeInfo, or nil when the sink is not partitioned. The kernels
// themselves are left to Kernels: only a parallel run calls them.
func (c *Compiler) registerMerge(p *pipe) *MergeInfo {
	switch p.sinkKind {
	case SinkJoinBuild, SinkGJBuild, SinkGroupAgg:
	default:
		return nil
	}
	ht := c.lay.HT[p.sinkNode]
	if ht == nil || ht.Partitions == 0 {
		return nil
	}
	k := kernelSpec{pipe: p.index, op: c.ops[p.sinkNode], n: entries(p.sinkNode)}
	idx := strconv.Itoa(p.index)
	mi := &MergeInfo{Partitions: ht.Partitions, PlaceTask: core.NoComponent}
	mi.ScatterFunc = "scatter" + idx
	mi.ScatterTask = c.registerTask(p, p.sinkNode, roleMergeScatter, k.op)
	mi.MergeFunc = "merge" + idx
	if p.sinkKind == SinkGroupAgg {
		k.staged = stagedGroups(p.sinkNode)
		mi.MergeTask = c.registerTask(p, p.sinkNode, roleMergeUpsert, k.op)
		mi.PlaceFunc = "place" + idx
		mi.PlaceTask = c.registerTask(p, p.sinkNode, roleMergePlace, k.op)
	} else {
		mi.MergeTask = c.registerTask(p, p.sinkNode, roleMergeInsert, k.op)
	}
	c.kernels = append(c.kernels, k)
	return mi
}

// kernelSpec is one partitioned sink as Compile registered it: what
// Kernels needs beyond the pipeline's PipelineInfo.
type kernelSpec struct {
	pipe   int              // index in Compiled.Pipelines
	op     core.ComponentID // the sink's operator
	n      float64          // the sink's entries, which the kernels' loops walk
	staged float64          // group-by sinks: the partial groups the morsels stage
}

// HasKernels reports whether the plan has a partitioned sink, and so
// merge kernels for Kernels to generate.
func (pc *Compiled) HasKernels() bool { return len(pc.kernels) > 0 }

// Kernels generates the scatter, merge and place kernels of every
// partitioned sink into an extension of pc.Module (ir.Module.Extension)
// and returns it; dict receives their Log B links, to the tasks Compile
// registered. pc is left as it is: a caller that shares pc passes a copy
// of its dictionary (core.Dictionary.Clone). A kernel's instructions do
// not depend on when it is generated; only their IDs do, which follow
// main's.
func (pc *Compiled) Kernels(dict *core.Dictionary) *ir.Module {
	c := &Compiler{
		dict:        dict,
		opTracker:   core.NewTracker(core.LevelOperator),
		taskTracker: core.NewTracker(core.LevelTask),
		module:      pc.Module.Extension(),
	}
	for _, k := range pc.kernels {
		info := &pc.Pipelines[k.pipe]
		mi, ht := info.Merge, info.Sink.HT
		c.genScatterKernel(mi.ScatterFunc, k.op, mi.ScatterTask, ht, k.n)
		if info.Sink.Kind == SinkGroupAgg {
			c.genMergeUpsert(mi.MergeFunc, k.op, mi.MergeTask, ht, info.Sink, k.n, k.staged)
			// Placement reuses the insert-kernel body: staged entries are the
			// deduplicated groups (seq-ascending within a partition) and the
			// destination vector carries their rank-derived arena addresses.
			c.genMergeInsert(mi.PlaceFunc, k.op, mi.PlaceTask, ht, k.n)
		} else {
			c.genMergeInsert(mi.MergeFunc, k.op, mi.MergeTask, ht, k.n)
		}
	}
	return c.module
}

// JoinKernels generates pc's merge kernels into pc's own dictionary and
// makes pc.Module the whole unoptimized program a parallel run's kernels
// are built from: the pipelines, then the kernels. It is for a pc that no
// one else reads, such as a fresh Compile of a plan whose artifact is
// shared; a compile's own pc stays serial, and Kernels extends a copy.
func (pc *Compiled) JoinKernels() {
	pc.Module = pc.Module.Joined(pc.Kernels(pc.Dict))
}

// startFunc begins a new generated function with the dictionary's Log B
// hook installed, like genPipeline does.
func (c *Compiler) startFunc(name string) {
	f := c.module.NewFunc(name, 0)
	c.b = ir.NewBuilder(f)
	c.b.OnCreate = func(in *ir.Instr) {
		c.dict.LinkIR(in.ID, c.taskTracker.Active())
	}
}

// copyEntryWords copies every entry word except the next pointer (word 0,
// rewritten by the consumer) from src to dst. EntrySize is a compile-time
// constant, so the copy unrolls fully.
func (c *Compiler) copyEntryWords(dst, src *ir.Instr, es int64) {
	for off := int64(8); off < es; off += 8 {
		v := c.b.Load(64, c.b.Add(src, c.b.Const(off)))
		c.b.Store(64, c.b.Add(dst, c.b.Const(off)), v)
	}
}

// genScatterKernel emits the per-morsel counting-sort scatter: histogram
// over the fresh segment [Arena, cursor), prefix sum into per-partition
// write cursors, then a packed scatter into ScatterOut with the local
// entry index stamped into the copied entry's next word. ScatterOut is
// exactly segment-sized, so overflow is impossible by construction.
func (c *Compiler) genScatterKernel(name string, opID, task core.ComponentID, ht *HTLayout, n float64) {
	c.startFunc(name)
	es := ht.EntrySize
	c.withTask(opID, task, func() {
		b := c.b
		b.Call(codegen.SymMemset64, false,
			b.Const(ht.MergeCnt), b.Const(0), b.Const(ht.Partitions*8))
		arena := b.Const(ht.Arena)
		cursor := b.Load(64, b.Const(ht.Desc+codegen.HTDescCursor))
		cursor.Comment = "segment cursor"
		mask := b.Const(ht.DirSlots - 1)
		zero := b.Const(0)
		scatterOut := b.Const(ht.ScatterOut)

		histHead := b.NewBlock("histHead")
		histBody := b.NewBlock("histBody")
		prefHead := b.NewBlock("prefixHead")
		prefBody := b.NewBlock("prefixBody")
		scatHead := b.NewBlock("scatterHead")
		scatBody := b.NewBlock("scatterBody")
		exit := b.NewBlock("scatterDone")
		stamp(n, histHead, histBody, scatHead, scatBody)
		stamp(float64(ht.Partitions), prefHead, prefBody)
		b.Br(histHead)

		b.SetBlock(histHead)
		ptr := b.Phi()
		ptr.Comment = "histPtr"
		ir.AddIncoming(ptr, arena)
		b.CondBr(b.Bin(ir.OpCmpLt, ptr, cursor), histBody, prefHead)

		b.SetBlock(histBody)
		h := b.Load(64, b.Add(ptr, b.Const(codegen.HTEntryHash)))
		part := b.Shr(b.And(h, mask), b.Const(ht.SlotShift))
		cntAddr := b.Add(b.Const(ht.MergeCnt), b.Shl(part, b.Const(3)))
		b.Store(64, cntAddr, b.Add(b.Load(64, cntAddr), b.Const(1)))
		ir.AddIncoming(ptr, b.Add(ptr, b.Const(es)))
		b.Br(histHead)

		b.SetBlock(prefHead)
		pidx := b.Phi()
		pidx.Comment = "partIdx"
		ir.AddIncoming(pidx, zero)
		cur := b.Phi()
		cur.Comment = "scatterCursor"
		ir.AddIncoming(cur, scatterOut)
		b.CondBr(b.Bin(ir.OpCmpLt, pidx, b.Const(ht.Partitions)), prefBody, scatHead)

		b.SetBlock(prefBody)
		slot8 := b.Shl(pidx, b.Const(3))
		b.Store(64, b.Add(b.Const(ht.MergeCur), slot8), cur)
		cnt := b.Load(64, b.Add(b.Const(ht.MergeCnt), slot8))
		ir.AddIncoming(pidx, b.Add(pidx, b.Const(1)))
		ir.AddIncoming(cur, b.Add(cur, b.Mul(cnt, b.Const(es))))
		b.Br(prefHead)

		b.SetBlock(scatHead)
		sptr := b.Phi()
		sptr.Comment = "scatPtr"
		ir.AddIncoming(sptr, arena)
		lidx := b.Phi()
		lidx.Comment = "localIdx"
		ir.AddIncoming(lidx, zero)
		b.CondBr(b.Bin(ir.OpCmpLt, sptr, cursor), scatBody, exit)

		b.SetBlock(scatBody)
		h2 := b.Load(64, b.Add(sptr, b.Const(codegen.HTEntryHash)))
		part2 := b.Shr(b.And(h2, mask), b.Const(ht.SlotShift))
		curAddr := b.Add(b.Const(ht.MergeCur), b.Shl(part2, b.Const(3)))
		dst := b.Load(64, curAddr)
		c.copyEntryWords(dst, sptr, es)
		// Stamp the within-segment index into the dead next word; the host
		// rebases it to a global sequence number with the morsel's prefix.
		b.Store(64, b.Add(dst, b.Const(codegen.HTEntryNext)), lidx)
		b.Store(64, curAddr, b.Add(dst, b.Const(es)))
		ir.AddIncoming(sptr, b.Add(sptr, b.Const(es)))
		ir.AddIncoming(lidx, b.Add(lidx, b.Const(1)))
		b.Br(scatHead)

		b.SetBlock(exit)
		b.Ret(nil)
	})
}

// genMergeInsert emits the per-partition insert merge (join and group-join
// builds, and the group-by placement round): clear the partition's
// directory slot range, then replay the staged entries in global sequence
// order, copying each to its host-computed destination address and
// head-inserting it — the identical insertion sequence the serial run
// performs for this slot range, so chains and directory come out
// byte-identical.
func (c *Compiler) genMergeInsert(name string, opID, task core.ComponentID, ht *HTLayout, n float64) {
	c.startFunc(name)
	es := ht.EntrySize
	c.withTask(opID, task, func() {
		b := c.b
		param := b.Const(ht.MergeParam)
		src := b.Load(64, b.Add(param, b.Const(MPSrc)))
		src.Comment = "staged base"
		end := b.Load(64, b.Add(param, b.Const(MPEnd)))
		vp0 := b.Load(64, b.Add(param, b.Const(MPVec)))
		part := b.Load(64, b.Add(param, b.Const(MPPart)))
		dirBase := b.Add(b.Const(ht.Dir), b.Shl(part, b.Const(ht.SlotShift+3)))
		b.Call(codegen.SymMemset64, false,
			dirBase, b.Const(0), b.Const(ht.DirSlots/ht.Partitions*8))
		mask := b.Const(ht.DirSlots - 1)
		dir := b.Const(ht.Dir)

		loopHead := b.NewBlock("mergeHead")
		body := b.NewBlock("mergeBody")
		exit := b.NewBlock("mergeDone")
		stamp(n, loopHead, body)
		b.Br(loopHead)

		b.SetBlock(loopHead)
		ptr := b.Phi()
		ptr.Comment = "stagedPtr"
		ir.AddIncoming(ptr, src)
		vp := b.Phi()
		vp.Comment = "vecPtr"
		ir.AddIncoming(vp, vp0)
		b.CondBr(b.Bin(ir.OpCmpLt, ptr, end), body, exit)

		b.SetBlock(body)
		dst := b.Load(64, vp)
		dst.Comment = "destination (Arena + seq*EntrySize)"
		c.copyEntryWords(dst, ptr, es)
		h := b.Load(64, b.Add(ptr, b.Const(codegen.HTEntryHash)))
		slotAddr := b.Add(dir, b.Shl(b.And(h, mask), b.Const(3)))
		head := b.Load(64, slotAddr)
		b.Store(64, b.Add(dst, b.Const(codegen.HTEntryNext)), head)
		b.Store(64, slotAddr, dst)
		ir.AddIncoming(ptr, b.Add(ptr, b.Const(es)))
		ir.AddIncoming(vp, b.Add(vp, b.Const(8)))
		b.Br(loopHead)

		b.SetBlock(exit)
		b.Ret(nil)
	})
}

// genMergeUpsert emits the per-partition group upsert: staged partial
// groups arrive seq-ascending; existing groups combine aggregate state,
// new groups are appended to MergeOut with their first-occurrence global
// sequence number recorded in MergeSeq (the canonical ordering key the
// host sorts by to schedule the placement round). The final output cursor
// is written back through the parameter block so the host learns the
// deduplicated group count.
func (c *Compiler) genMergeUpsert(name string, opID, task core.ComponentID, ht *HTLayout, si SinkInfo, n, staged float64) {
	c.startFunc(name)
	es := ht.EntrySize
	c.withTask(opID, task, func() {
		b := c.b
		param := b.Const(ht.MergeParam)
		src := b.Load(64, b.Add(param, b.Const(MPSrc)))
		src.Comment = "staged base"
		end := b.Load(64, b.Add(param, b.Const(MPEnd)))
		vp0 := b.Load(64, b.Add(param, b.Const(MPVec)))
		part := b.Load(64, b.Add(param, b.Const(MPPart)))
		out0 := b.Const(ht.MergeOut)
		sq0 := b.Const(ht.MergeSeq)
		dirBase := b.Add(b.Const(ht.Dir), b.Shl(part, b.Const(ht.SlotShift+3)))
		b.Call(codegen.SymMemset64, false,
			dirBase, b.Const(0), b.Const(ht.DirSlots/ht.Partitions*8))
		mask := b.Const(ht.DirSlots - 1)
		dir := b.Const(ht.Dir)

		loopHead := b.NewBlock("upsertHead")
		body := b.NewBlock("upsertBody")
		findHead := b.NewBlock("findGroup")
		findCont := b.NewBlock("contFind")
		foundBlk := b.NewBlock("groupFound")
		insertBlk := b.NewBlock("groupInsert")
		nextBlk := b.NewBlock("nextStaged")
		exit := b.NewBlock("upsertDone")
		// The loop walks every staged partial group: the first partial of
		// a group inserts it and every later one finds it, and a lookup
		// steps past about as many chain entries as a slot holds groups.
		stamp(staged, loopHead, body, nextBlk)
		stamp(staged-n, findHead, foundBlk)
		stamp(staged*min(1, n/float64(ht.DirSlots)), findCont)
		stamp(n, insertBlk)
		b.Br(loopHead)

		b.SetBlock(loopHead)
		ptr := b.Phi()
		ptr.Comment = "stagedPtr"
		ir.AddIncoming(ptr, src)
		vp := b.Phi()
		vp.Comment = "seqVecPtr"
		ir.AddIncoming(vp, vp0)
		out := b.Phi()
		out.Comment = "groupOut"
		ir.AddIncoming(out, out0)
		sq := b.Phi()
		sq.Comment = "seqOut"
		ir.AddIncoming(sq, sq0)
		b.CondBr(b.Bin(ir.OpCmpLt, ptr, end), body, exit)

		b.SetBlock(body)
		h := b.Load(64, b.Add(ptr, b.Const(codegen.HTEntryHash)))
		slotAddr := b.Add(dir, b.Shl(b.And(h, mask), b.Const(3)))
		head := b.Load(64, slotAddr)
		head.Comment = "partition chain head"
		b.CondBr(b.Bin(ir.OpCmpNe, head, b.Const(0)), findHead, insertBlk)

		b.SetBlock(findHead)
		e := b.Phi()
		e.Comment = "groupEntry"
		ir.AddIncoming(e, head)
		for i := 0; i < si.NKeys; i++ {
			off := si.KeyOff + 8*int64(i)
			ekey := b.Load(64, b.Add(e, b.Const(off)))
			skey := b.Load(64, b.Add(ptr, b.Const(off)))
			eq := b.Bin(ir.OpCmpEq, ekey, skey)
			if i == si.NKeys-1 {
				b.CondBr(eq, foundBlk, findCont)
			} else {
				more := b.NewBlock("cmpKey" + strconv.Itoa(i+1))
				b.CondBr(eq, more, findCont)
				b.SetBlock(more)
			}
		}

		b.SetBlock(findCont)
		next := b.Load(64, b.Add(e, b.Const(codegen.HTEntryNext)))
		ir.AddIncoming(e, next)
		b.CondBr(b.Bin(ir.OpCmpNe, next, b.Const(0)), findHead, insertBlk)

		// nextBlk's phis first, so both arms can append matching incomings.
		b.SetBlock(nextBlk)
		outN := b.Phi()
		outN.Comment = "groupOut'"
		sqN := b.Phi()
		sqN.Comment = "seqOut'"

		b.SetBlock(foundBlk)
		c.genAggCombine(e, ptr, si)
		ir.AddIncoming(outN, out)
		ir.AddIncoming(sqN, sq)
		b.Br(nextBlk)

		b.SetBlock(insertBlk)
		c.copyEntryWords(out, ptr, es)
		// head is 0 from upsertBody or the surviving chain head from
		// contFind; either way this is the serial head-insert.
		b.Store(64, b.Add(out, b.Const(codegen.HTEntryNext)), head)
		b.Store(64, slotAddr, out)
		b.Store(64, sq, b.Load(64, vp))
		ir.AddIncoming(outN, b.Add(out, b.Const(es)))
		ir.AddIncoming(sqN, b.Add(sq, b.Const(8)))
		b.Br(nextBlk)

		b.SetBlock(nextBlk)
		ir.AddIncoming(ptr, b.Add(ptr, b.Const(es)))
		ir.AddIncoming(vp, b.Add(vp, b.Const(8)))
		ir.AddIncoming(out, outN)
		ir.AddIncoming(sq, sqN)
		b.Br(loopHead)

		b.SetBlock(exit)
		b.Store(64, b.Add(param, b.Const(MPOut)), out)
		b.Ret(nil)
	})
}

// genAggCombine folds a staged entry's partial aggregate state into an
// existing group entry, one state slot at a time. Both sides share the
// sink's entry layout, so sums and counts add and min/max fold —
// associative and commutative, hence exact regardless of how morsels were
// split.
func (c *Compiler) genAggCombine(entry, src *ir.Instr, si SinkInfo) {
	for _, s := range si.Slots {
		addr := c.b.Add(entry, c.b.Const(s.Off))
		srcAddr := c.b.Add(src, c.b.Const(s.Off))
		switch s.Fn {
		case plan.AggSum, plan.AggCount:
			c.b.Store(64, addr, c.b.Add(c.b.Load(64, addr), c.b.Load(64, srcAddr)))
		case plan.AggMin:
			c.genMinMax(addr, c.b.Load(64, srcAddr), ir.OpCmpLt)
		case plan.AggMax:
			c.genMinMax(addr, c.b.Load(64, srcAddr), ir.OpCmpGt)
		}
	}
}

// stagedGroups estimates the partial groups a group-by's morsels stage
// for the merge: each morsel stages one per group it saw, so at least the
// groups and at most the input rows. The estimate is the latter.
func stagedGroups(n plan.Node) float64 {
	g := n.(*plan.GroupBy)
	return max(entries(g), g.Input.EstRows())
}
