package pipeline

import (
	"fmt"
	"reflect"
	"strconv"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/plan"
)

// row passes tuples between fused operators: one lazy generator per output
// column. A consumer invoking a generator emits the column load at its own
// position in the code — which is why, exactly as in the paper's Listing 1,
// the loads of aggregation inputs are attributed to the group-by operator
// and the key load to the join.
type row struct {
	cols []func() *ir.Instr
}

// genPipeline generates one pipeline's IR function.
func (c *Compiler) genPipeline(p *pipe) error {
	f := c.module.NewFunc(funcName(p.index), 0)
	c.b = ir.NewBuilder(f)
	c.b.OnCreate = func(in *ir.Instr) {
		c.dict.LinkIR(in.ID, c.taskTracker.Active())
	}
	switch d := p.driver.(type) {
	case *plan.Scan:
		c.genScanLoop(d, p.index)
	case *plan.GroupBy:
		c.genGroupScanLoop(d, p.index)
	case *plan.GroupJoin:
		c.genGroupJoinScanLoop(d, p.index)
	default:
		return fmt.Errorf("pipeline: node %T cannot drive a pipeline", p.driver)
	}
	return nil
}

// genScanLoop drives a pipeline from a base-table scan: the tight tuple
// loop of Listing 1 (loopTuples / nextTuple). The loop bounds come from
// the pipeline's morsel slots — [start, end) tuple indices — so the same
// code serves the serial driver (which stages the full table) and the
// morsel scheduler (which stages one morsel per invocation).
func (c *Compiler) genScanLoop(s *plan.Scan, pipeIdx int) {
	scanTask := c.task(s, roleScan)
	opID := c.ops[s]

	loopHead := c.b.NewBlock("loopTuples")
	body := c.b.NewBlock("tupleBody")
	next := c.b.NewBlock("nextTuple")
	exit := c.b.NewBlock("scanDone")
	stamp(max(s.RowsEst, s.Est), loopHead, body, next)

	regions := make([]ColRegion, len(s.Cols))
	for j, ci := range s.Cols {
		reg, ok := c.lay.Cols[ColKey{Alias: s.Alias, Col: ci}]
		if !ok {
			bug("no layout region for " + s.Alias + " column " + strconv.Itoa(ci))
		}
		regions[j] = reg
	}
	var nrows, start, tid *ir.Instr

	c.withTask(opID, scanTask, func() {
		start = c.b.Load(64, c.b.Const(c.lay.MorselStart(pipeIdx)))
		start.Comment = "morsel start " + s.Alias
		nrows = c.b.Load(64, c.b.Const(c.lay.MorselEnd(pipeIdx)))
		nrows.Comment = "morsel end " + s.Alias
		c.b.Br(loopHead)

		c.b.SetBlock(loopHead)
		tid = c.b.Phi()
		tid.Comment = "localTid"
		ir.AddIncoming(tid, start)
		cond := c.b.Bin(ir.OpCmpLt, tid, nrows)
		c.b.CondBr(cond, body, exit)
	})

	c.b.SetBlock(body)
	c.withTask(opID, scanTask, func() { c.bump(scanTask) })
	// Row tid of a column is at Addr + tid×Width, loaded at its width: a
	// 1-byte column needs no multiply.
	load := func(j int) *ir.Instr {
		reg := regions[j]
		off := tid
		if reg.Width > 1 {
			off = c.b.Mul(tid, c.b.Const(reg.Width))
		}
		v := c.b.InvariantLoad(int(reg.Width)*8, c.b.Add(c.b.Const(reg.Addr), off))
		v.Comment = "column " + s.Alias + "." + s.Table.Cols[s.Cols[j]].Name
		return v
	}
	r := row{}
	if c.opts.EagerColumnLoads {
		c.withTask(opID, scanTask, func() {
			for j := range s.Cols {
				v := load(j)
				r.cols = append(r.cols, func() *ir.Instr { return v })
			}
		})
	} else {
		// A column read twice in one block under one task is loaded once;
		// another task reloads it, so each load stays its consumer's.
		for j := range s.Cols {
			var last *ir.Instr
			var lastTask core.ComponentID
			r.cols = append(r.cols, func() *ir.Instr {
				if last == nil || last.Block != c.b.Cur || lastTask != c.taskTracker.Active() {
					last, lastTask = load(j), c.taskTracker.Active()
				}
				return last
			})
		}
	}

	c.skipBlock = next
	if s.Filter != nil {
		c.withTask(c.filts[s], c.task(s, roleFilter), func() {
			filterTask := c.task(s, roleFilter)
			pass := c.evalExpr(s.Filter, r)
			cont := c.b.NewBlock("filterPass")
			cont.Freq = min(s.Est, c.b.Cur.Freq)
			c.b.CondBr(pass, cont, next)
			c.b.SetBlock(cont)
			c.bump(filterTask)
		})
	}

	c.consumeUp(s, r)

	c.withTask(opID, scanTask, func() {
		if c.b.Cur.Terminator() == nil {
			c.b.Br(next)
		}
		c.b.SetBlock(next)
		tid2 := c.b.Add(tid, c.b.Const(1))
		ir.AddIncoming(tid, tid2)
		c.b.Br(loopHead)

		c.b.SetBlock(exit)
		c.b.Ret(nil)
	})
}

// consumeUp generates the parent operator's consume code for a row
// produced by n (the produce/consume chain of §5.2).
func (c *Compiler) consumeUp(n plan.Node, r row) {
	parent := c.parent[n]
	switch pn := parent.(type) {
	case *plan.Join:
		if n == pn.Probe {
			c.genJoinProbe(pn, r)
		} else {
			c.genJoinBuild(pn, r)
		}
	case *plan.GroupBy:
		c.genGroupByAgg(pn, r)
	case *plan.GroupJoin:
		if n == pn.Probe {
			c.genGroupJoinProbe(pn, r)
		} else {
			c.genGroupJoinBuild(pn, r)
		}
	case *plan.Output:
		c.genOutput(pn, r)
	default:
		bug("cannot consume into " + reflect.TypeOf(parent).String())
	}
}

// sharedCall calls a shared pre-compiled routine with Register Tagging
// (Listing 2): save the previous tag, store the active task's tag, call,
// restore — handling nested shared code locations.
func (c *Compiler) sharedCall(sym string, args ...*ir.Instr) *ir.Instr {
	if !c.opts.RegisterTagging {
		return c.b.Call(sym, true, args...)
	}
	prev := c.b.GetTag()
	c.b.SetTag(c.b.Const(int64(c.taskTracker.Active())))
	res := c.b.Call(sym, true, args...)
	c.b.SetTag(prev)
	return res
}

// bump emits the EXPLAIN ANALYZE tuple counter for a task: one
// load/add/store on the task's counter slot per emitted row. Enabled by
// Options.TupleCounters; the counter code is linked to the task like any
// other generated instruction, so its (small) cost shows up honestly in
// profiles.
func (c *Compiler) bump(task core.ComponentID) {
	if !c.opts.TupleCounters || c.lay.CounterBase == 0 {
		return
	}
	addr := c.b.Const(c.lay.CounterBase + int64(task)*8)
	cur := c.b.Load(64, addr)
	c.b.Store(64, addr, c.b.Add(cur, c.b.Const(1)))
}

// genJoinBuild materializes the build side into the join's hash table
// (terminal task of a build pipeline).
func (c *Compiler) genJoinBuild(j *plan.Join, r row) {
	ht := c.lay.HT[j]
	c.withTask(c.ops[j], c.task(j, roleBuild), func() {
		c.bump(c.task(j, roleBuild))
		key := c.evalExpr(j.BuildKey, r)
		h := c.hashOf(key)
		desc := c.b.Const(ht.Desc)
		entry := c.sharedCall(codegen.SymHTInsert, desc, h, c.b.Const(ht.EntrySize))
		c.b.Store(64, c.b.Add(entry, c.b.Const(entryKeyOff)), key)
		for k, pi := range j.Payload {
			v := r.cols[pi]()
			c.b.Store(64, c.b.Add(entry, c.b.Const(entryValOff+8*int64(k))), v)
		}
	})
}

// genJoinProbe probes the join hash table and, per match, passes the
// widened row upward — the loopHashChain structure of Listing 1.
func (c *Compiler) genJoinProbe(j *plan.Join, r row) {
	ht := c.lay.HT[j]
	opID, probeTask := c.ops[j], c.task(j, roleProbe)

	var entry *ir.Instr
	var chainHead, match, cont *ir.Block

	c.withTask(opID, probeTask, func() {
		key := c.evalExpr(j.ProbeKey, r)
		h := c.hashOf(key)
		// Directory base and mask are compile-time constants, exactly as
		// the paper's generated code addresses the directory relative to
		// the query state without extra loads (Listing 1).
		dir := c.b.Const(ht.Dir)
		mask := c.b.Const(ht.DirSlots - 1)
		slot := c.b.And(h, mask)
		slotAddr := c.b.Add(dir, c.b.Mul(slot, c.b.Const(8)))
		head := c.b.Load(64, slotAddr)
		head.Comment = "hash-table directory lookup"

		chainHead = c.b.NewBlock("loopHashChain")
		// A probe row matches at most fanout times: under a unique build
		// key only if the build kept its key, else up to the plan's own
		// bound on the join's output.
		fanout := keyShare(j.Build)
		if !j.BuildUnique {
			fanout = float64(j.BoundRows()) / float64(max(1, j.Probe.BoundRows()))
		}
		match = c.b.NewBlock("chainMatch")
		match.Freq = min(j.Est, c.b.Cur.Freq*fanout)
		cont = c.b.NewBlock("contProbe")
		// The chain walk visits every matching entry at least.
		stamp(max(c.b.Cur.Freq, match.Freq), chainHead, cont)

		nonNull := c.b.Bin(ir.OpCmpNe, head, c.b.Const(0))
		c.b.CondBr(nonNull, chainHead, c.skipBlock)

		c.b.SetBlock(chainHead)
		entry = c.b.Phi()
		entry.Comment = "hashEntry"
		ir.AddIncoming(entry, head)
		ekey := c.b.Load(64, c.b.Add(entry, c.b.Const(entryKeyOff)))
		eq := c.b.Bin(ir.OpCmpEq, ekey, key)
		c.b.CondBr(eq, match, cont)
	})

	c.b.SetBlock(match)
	c.withTask(opID, probeTask, func() { c.bump(probeTask) })
	merged := row{cols: append([]func() *ir.Instr{}, r.cols...)}
	for k := range j.Payload {
		off := entryValOff + 8*int64(k)
		merged.cols = append(merged.cols, func() *ir.Instr {
			return c.b.Load(64, c.b.Add(entry, c.b.Const(off)))
		})
	}
	// Within the match, "this row is done" goes where no further entry can
	// match. A non-unique build side can still have matches pending on this
	// chain, so the walk resumes at contProbe. A unique build key matches
	// once (the catalog refuses an append that would repeat it), so the
	// probe row is finished: the walk exits to the outer continuation, the
	// next tuple or an enclosing join's contProbe, and contProbe is reached
	// only on a key mismatch.
	outerSkip, done := c.skipBlock, cont
	if j.BuildUnique {
		done = outerSkip
	}
	c.skipBlock = done
	c.consumeUp(j, merged)
	c.skipBlock = outerSkip

	c.withTask(opID, probeTask, func() {
		if c.b.Cur.Terminator() == nil {
			c.b.Br(done)
		}
		c.b.SetBlock(cont)
		next := c.b.Load(64, c.b.Add(entry, c.b.Const(codegen.HTEntryNext)))
		ir.AddIncoming(entry, next)
		nz := c.b.Bin(ir.OpCmpNe, next, c.b.Const(0))
		c.b.CondBr(nz, chainHead, c.skipBlock)
	})
}

// genGroupByAgg updates (or creates) the group's aggregate state — the
// "else" section of Listing 1, with the aggregation inputs evaluated first
// and the insert path calling the shared ht_insert under Register Tagging.
func (c *Compiler) genGroupByAgg(g *plan.GroupBy, r row) {
	ht := c.lay.HT[g]
	st := c.state(g)
	nKeys := len(g.Keys)
	c.withTask(c.ops[g], c.task(g, roleAgg), func() {
		vals := c.evalStateArgs(st, r)
		keys := make([]*ir.Instr, nKeys)
		for i, ke := range g.Keys {
			keys[i] = c.evalExpr(ke, r)
		}
		h := c.hashOf(keys[0])
		for _, k := range keys[1:] {
			// Mix further keys into the hash (one crc32 step each).
			h = c.b.Crc32(h, k)
		}
		desc := c.b.Const(ht.Desc)
		dir := c.b.Const(ht.Dir)
		mask := c.b.Const(ht.DirSlots - 1)
		slotAddr := c.b.Add(dir, c.b.Mul(c.b.And(h, mask), c.b.Const(8)))
		head := c.b.Load(64, slotAddr)
		head.Comment = "group directory lookup"

		// Constant keys make one group: a non-null slot is that group, and
		// there is no chain to walk.
		var findHead, findCont *ir.Block
		if !constKeys(g) {
			findHead = c.b.NewBlock("findGroup")
			findCont = c.b.NewBlock("contFind")
		}
		found := c.b.NewBlock("groupFound")
		insert := c.b.NewBlock("groupInsert")
		insert.Freq = min(entries(g), c.b.Cur.Freq)
		done := c.b.NewBlock("groupDone")

		nonNull := c.b.Bin(ir.OpCmpNe, head, c.b.Const(0))
		entry := head
		if findHead == nil {
			c.b.CondBr(nonNull, found, insert)
		} else {
			c.b.CondBr(nonNull, findHead, insert)

			c.b.SetBlock(findHead)
			entry = c.b.Phi()
			entry.Comment = "groupEntry"
			ir.AddIncoming(entry, head)
			// Compare all key parts; any mismatch continues the chain walk.
			for i, k := range keys {
				ekey := c.b.Load(64, c.b.Add(entry, c.b.Const(entryKeyOff+8*int64(i))))
				eq := c.b.Bin(ir.OpCmpEq, ekey, k)
				if i == nKeys-1 {
					c.b.CondBr(eq, found, findCont)
				} else {
					more := c.b.NewBlock("cmpKey" + strconv.Itoa(i+1))
					c.b.CondBr(eq, more, findCont)
					c.b.SetBlock(more)
				}
			}

			c.b.SetBlock(findCont)
			next := c.b.Load(64, c.b.Add(entry, c.b.Const(codegen.HTEntryNext)))
			ir.AddIncoming(entry, next)
			nz := c.b.Bin(ir.OpCmpNe, next, c.b.Const(0))
			c.b.CondBr(nz, findHead, insert)
		}

		c.b.SetBlock(found)
		c.genAggUpdate(entry, st, vals)
		c.b.Br(done)

		c.b.SetBlock(insert)
		c.bump(c.task(g, roleAgg))
		entry2 := c.sharedCall(codegen.SymHTInsert, desc, h, c.b.Const(ht.EntrySize))
		for i, k := range keys {
			c.b.Store(64, c.b.Add(entry2, c.b.Const(entryKeyOff+8*int64(i))), k)
		}
		c.genAggInitFirst(entry2, st, vals)
		c.b.Br(done)

		c.b.SetBlock(done)
	})
}

// genGroupJoinBuild materializes the build side of a group join with
// zero-initialized aggregate state, its match count included.
func (c *Compiler) genGroupJoinBuild(gj *plan.GroupJoin, r row) {
	ht := c.lay.HT[gj]
	st := c.state(gj)
	c.withTask(c.ops[gj], c.task(gj, roleBuild), func() {
		c.bump(c.task(gj, roleBuild))
		key := c.evalExpr(gj.BuildKey, r)
		h := c.hashOf(key)
		desc := c.b.Const(ht.Desc)
		entry := c.sharedCall(codegen.SymHTInsert, desc, h, c.b.Const(ht.EntrySize))
		c.b.Store(64, c.b.Add(entry, c.b.Const(entryKeyOff)), key)
		c.genAggInitZero(entry, st)
	})
}

// genGroupJoinProbe walks the chain in the groupjoin-join section and
// updates aggregates in the groupjoin-groupby section — the two-tracker
// split of §5.4 that lets samples map back to the original unfused
// operators.
func (c *Compiler) genGroupJoinProbe(gj *plan.GroupJoin, r row) {
	ht := c.lay.HT[gj]
	st := c.state(gj)
	opID := c.ops[gj]
	joinTask, aggTask := c.task(gj, roleGJJoin), c.task(gj, roleGJAgg)

	var entry *ir.Instr
	var found *ir.Block

	c.withTask(opID, joinTask, func() {
		key := c.evalExpr(gj.ProbeKey, r)
		h := c.hashOf(key)
		dir := c.b.Const(ht.Dir)
		mask := c.b.Const(ht.DirSlots - 1)
		slotAddr := c.b.Add(dir, c.b.Mul(c.b.And(h, mask), c.b.Const(8)))
		head := c.b.Load(64, slotAddr)
		head.Comment = "groupjoin directory lookup"

		chainHead := c.b.NewBlock("gjChain")
		cont := c.b.NewBlock("gjCont")
		found = c.b.NewBlock("gjFound")
		found.Freq = c.b.Cur.Freq * keyShare(gj.Build)

		nonNull := c.b.Bin(ir.OpCmpNe, head, c.b.Const(0))
		c.b.CondBr(nonNull, chainHead, c.skipBlock)

		c.b.SetBlock(chainHead)
		entry = c.b.Phi()
		ir.AddIncoming(entry, head)
		ekey := c.b.Load(64, c.b.Add(entry, c.b.Const(entryKeyOff)))
		eq := c.b.Bin(ir.OpCmpEq, ekey, key)
		c.b.CondBr(eq, found, cont)

		c.b.SetBlock(cont)
		next := c.b.Load(64, c.b.Add(entry, c.b.Const(codegen.HTEntryNext)))
		ir.AddIncoming(entry, next)
		nz := c.b.Bin(ir.OpCmpNe, next, c.b.Const(0))
		c.b.CondBr(nz, chainHead, c.skipBlock)
	})

	c.b.SetBlock(found)
	c.withTask(opID, joinTask, func() { c.bump(joinTask) })
	c.withTask(opID, aggTask, func() {
		// The match count is the state's count slot.
		c.genAggUpdate(entry, st, c.evalStateArgs(st, r))
	})
	// The build key is unique: one match per probe tuple, done.
	c.withTask(opID, joinTask, func() {
		c.b.Br(c.skipBlock)
	})
}

// genGroupScanLoop drives the output pipeline of a group-by: a linear scan
// over the contiguous entry arena.
func (c *Compiler) genGroupScanLoop(g *plan.GroupBy, pipeIdx int) {
	c.genArenaScan(g, pipeIdx, c.lay.HT[g], c.state(g), g.Aggs, len(g.Keys), false)
}

// genGroupJoinScanLoop drives the output pipeline of a group join,
// skipping unmatched build entries (inner-join semantics).
func (c *Compiler) genGroupJoinScanLoop(gj *plan.GroupJoin, pipeIdx int) {
	c.genArenaScan(gj, pipeIdx, c.lay.HT[gj], c.state(gj), gj.Aggs, 1, true)
}

// genArenaScan emits the loop over a hash table's entries that passes each
// group upward: its keys, then each aggregate read from its state slots
// (an avg divides the shared sum by the shared count).
func (c *Compiler) genArenaScan(n plan.Node, pipeIdx int, ht *HTLayout, st []StateSlot, aggs []plan.AggSpec, nKeys int, skipUnmatched bool) {
	opID, task := c.ops[n], c.task(n, roleHTScan)

	loopHead := c.b.NewBlock("loopGroups")
	body := c.b.NewBlock("groupBody")
	next := c.b.NewBlock("nextGroup")
	exit := c.b.NewBlock("groupsDone")
	stamp(entries(n), loopHead, body, next)

	var ptr *ir.Instr
	c.withTask(opID, task, func() {
		// Entry-address bounds from the morsel slots: the serial driver
		// stages [arena base, cursor), the morsel scheduler one slice.
		base := c.b.Load(64, c.b.Const(c.lay.MorselStart(pipeIdx)))
		base.Comment = "morsel start (arena)"
		end := c.b.Load(64, c.b.Const(c.lay.MorselEnd(pipeIdx)))
		end.Comment = "morsel end (arena cursor)"
		c.b.Br(loopHead)

		c.b.SetBlock(loopHead)
		ptr = c.b.Phi()
		ptr.Comment = "entryPtr"
		ir.AddIncoming(ptr, base)
		cond := c.b.Bin(ir.OpCmpLt, ptr, end)
		c.b.CondBr(cond, body, exit)

		c.b.SetBlock(body)
		if skipUnmatched {
			mc := c.b.Load(64, c.b.Add(ptr, c.b.Const(st[slotOf(st, plan.AggCount, nil)].Off)))
			nz := c.b.Bin(ir.OpCmpNe, mc, c.b.Const(0))
			matched := c.b.NewBlock("matchedGroup")
			matched.Freq = min(n.EstRows(), c.b.Cur.Freq)
			c.b.CondBr(nz, matched, next)
			c.b.SetBlock(matched)
		}
		c.bump(task)
	})

	r := row{}
	for ki := 0; ki < nKeys; ki++ {
		off := entryKeyOff + 8*int64(ki)
		r.cols = append(r.cols, func() *ir.Instr {
			return c.b.Load(64, c.b.Add(ptr, c.b.Const(off)))
		})
	}
	for _, a := range aggs {
		fn, arg := piece(a)
		off := st[slotOf(st, fn, arg)].Off
		if a.Fn != plan.AggAvg {
			r.cols = append(r.cols, func() *ir.Instr {
				return c.b.Load(64, c.b.Add(ptr, c.b.Const(off)))
			})
			continue
		}
		cntOff := st[slotOf(st, plan.AggCount, nil)].Off
		r.cols = append(r.cols, func() *ir.Instr {
			sum := c.b.Load(64, c.b.Add(ptr, c.b.Const(off)))
			cnt := c.b.Load(64, c.b.Add(ptr, c.b.Const(cntOff)))
			return c.b.SDiv(sum, cnt)
		})
	}

	c.skipBlock = next
	c.consumeUp(n, r)

	c.withTask(opID, task, func() {
		if c.b.Cur.Terminator() == nil {
			c.b.Br(next)
		}
		c.b.SetBlock(next)
		ptr2 := c.b.Add(ptr, c.b.Const(ht.EntrySize))
		ir.AddIncoming(ptr, ptr2)
		c.b.Br(loopHead)

		c.b.SetBlock(exit)
		c.b.Ret(nil)
	})
}

// entries estimates the hash-table entries sink n makes: a join or group
// join inserts its build rows, a group-by one entry per group.
func entries(n plan.Node) float64 {
	switch x := n.(type) {
	case *plan.GroupBy:
		return min(x.Est, float64(x.BoundRows()))
	case *plan.Join:
		return x.Build.EstRows()
	case *plan.GroupJoin:
		return x.Build.EstRows()
	}
	return n.EstRows()
}

// constKeys reports whether every grouping key of g is a literal: the
// group-by then has exactly one group.
func constKeys(g *plan.GroupBy) bool {
	for _, k := range g.Keys {
		if _, ok := k.(*plan.PConst); !ok {
			return false
		}
	}
	return true
}

// keyShare estimates the share of a unique build key's values that the
// build side keeps: a probe row finds its key only if the build's filter
// passed the key's row. It needs no column statistics.
func keyShare(build plan.Node) float64 {
	if s, ok := build.(*plan.Scan); ok {
		return min(1, s.Est/max(1, s.RowsEst))
	}
	return 1
}

// stamp sets the estimated execution count (ir.Block.Freq) of blocks.
func stamp(freq float64, blocks ...*ir.Block) {
	for _, b := range blocks {
		b.Freq = freq
	}
}

// genOutput writes one result row through the (untagged) bumpalloc
// library routine.
func (c *Compiler) genOutput(o *plan.Output, r row) {
	c.withTask(c.ops[o], c.task(o, roleOutput), func() {
		c.bump(c.task(o, roleOutput))
		vals := make([]*ir.Instr, len(o.Exprs))
		for i, e := range o.Exprs {
			vals[i] = c.evalExpr(e, r)
		}
		rowBytes := int64(len(o.Exprs)) * 8
		ptr := c.b.Call(codegen.SymBumpAlloc, true, c.b.Const(c.lay.ResultDesc), c.b.Const(rowBytes))
		for i, v := range vals {
			c.b.Store(64, c.b.Add(ptr, c.b.Const(int64(i)*8)), v)
		}
	})
}

// PreludeFunc names the generated function that prepares runtime state
// (hash-table directory memsets). It is separate from main so a parallel
// coordinator can run just the preparation on the canonical heap and then
// dispatch the pipeline functions morsel by morsel.
const PreludeFunc = "prelude"

// genPrelude emits the runtime preparation: clear every hash-table
// directory (kernel work).
func (c *Compiler) genPrelude() {
	f := c.module.NewFunc(PreludeFunc, 0)
	c.b = ir.NewBuilder(f)
	c.b.OnCreate = func(in *ir.Instr) {
		c.dict.LinkIR(in.ID, c.taskTracker.Active())
	}
	c.withTask(c.reg.KernelOperator, c.reg.KernelTask, func() {
		for _, n := range c.htOrder {
			ht := c.lay.HT[n]
			c.b.Call(codegen.SymMemset64, false,
				c.b.Const(ht.Dir), c.b.Const(0), c.b.Const(ht.DirSlots*8))
		}
		c.b.Ret(nil)
	})
}

// genMain emits the serial driver: run the prelude, then for each pipeline
// (in creation order) stage its full input range into the morsel slots and
// call it; halt. The bound staging is scheduler work, so it is tagged as a
// kernel task like the memsets.
func (c *Compiler) genMain() {
	c.genPrelude()
	f := c.module.NewFunc("main", 0)
	c.b = ir.NewBuilder(f)
	c.b.OnCreate = func(in *ir.Instr) {
		c.dict.LinkIR(in.ID, c.taskTracker.Active())
	}
	c.withTask(c.reg.KernelOperator, c.reg.KernelTask, func() {
		c.b.Call(PreludeFunc, false)
		for _, p := range c.pipes {
			c.stageFullMorsel(p)
			c.b.Call(funcName(p.index), false)
		}
		c.b.Halt()
	})
}

// stageFullMorsel writes the pipeline's whole input domain into its morsel
// slots: [0, row count) for table scans, [arena base, cursor) for
// hash-table scans (the cursor is read *here*, after the producing
// pipeline ran).
func (c *Compiler) stageFullMorsel(p *pipe) {
	switch d := p.driver.(type) {
	case *plan.Scan:
		c.b.Store(64, c.b.Const(c.lay.MorselStart(p.index)), c.b.Const(0))
		rslot := c.lay.RowsSlots[d.Alias]
		n := c.b.InvariantLoad(64, c.b.Const(c.lay.StateBase+int64(rslot)*8))
		n.Comment = "row count " + d.Alias
		c.b.Store(64, c.b.Const(c.lay.MorselEnd(p.index)), n)
	default:
		ht := c.lay.HT[p.driver]
		c.b.Store(64, c.b.Const(c.lay.MorselStart(p.index)), c.b.Const(ht.Arena))
		cur := c.b.Load(64, c.b.Const(ht.Desc+codegen.HTDescCursor))
		cur.Comment = "arena cursor"
		c.b.Store(64, c.b.Const(c.lay.MorselEnd(p.index)), cur)
	}
}
