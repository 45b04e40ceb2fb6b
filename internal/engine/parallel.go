package engine

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/plan"
	"repro/internal/pmu"
	"repro/internal/vm"
)

// Morsel-driven parallel execution (Umbra's execution model, which the
// paper's profiling explicitly supports: one PEBS buffer per hardware
// thread, merged bottom-up into one profile).
//
// The engine splits every pipeline's input domain into fixed-size morsels
// and runs them on N simulated worker CPUs. Each worker owns a *private*
// CPU — registers, tag register, branch predictor, caches, TSC — and a
// private heap whose prefix below the merge area is refreshed from the
// canonical heap at every pipeline barrier, so build-side structures are
// effectively shared read-only while each morsel's writes land in a
// private partition. At the barrier the partitions are merged back into
// the canonical heap *in global morsel order*, which makes the canonical
// state — hash-table arenas, chain links, result rows — independent of
// the worker count and identical to what a single worker produces:
//
//   - join/group-join build entries and group-by partial groups are radix-
//     scattered by the hash stored in each entry header and merged by
//     generated, profiled kernels fanned out across the workers
//     (mergePartitioned, DESIGN.md §11): builds replay in morsel order,
//     groups upsert (sum/count add, min/max fold — all integer, so
//     order-exact) and are placed in first-occurrence order;
//   - result rows append in morsel order;
//   - group-join probes update build entries in place, so workers' deltas
//     against the phase-start snapshot are folded commutatively.
//
// Sampling: every worker carries its own PMU buffer stamped with its
// worker ID. The sampling countdown is re-armed per morsel with a seed
// derived from the global morsel index, so for deterministic count events
// (instructions retired, loads) the set of sampled instructions per morsel
// is a function of the morsel alone — any worker count yields the same
// merged per-operator counts, which the determinism suite asserts exactly.

// parWorker is one simulated core of the morsel scheduler.
type parWorker struct {
	id  int
	cpu *vm.CPU
	pmu *pmu.PMU
	err error
	// kernelPeak is the most instructions one scatter, merge or place
	// kernel call retired on this core (Result.MergePeakInstrs).
	kernelPeak uint64
	// slab holds what this core's morsels of the current phase produced,
	// one morsel after the other: scatter segments or result rows (see
	// parStage.bounds). It is emptied at every barrier and keeps its
	// capacity, across runs too when the parStage is a session's.
	slab []byte
}

// parStage is the host side of a parallel run: the workers with their
// morsel slabs, and the scratch the merges stage through. A Session keeps
// one in its cpuPool and every parallel run of the session reuses it, so
// once its slices have grown to a statement's sizes a run allocates none
// of them; an Engine run builds its own. No Result refers to it.
type parStage struct {
	all []*parWorker // every worker the stage has held; a run uses a prefix
	ws  []*parWorker // this run's workers: morsel m runs on ws[m%len(ws)]

	// bounds locates the current phase's morsel output: morsel m produced
	// blocks j = 0..stride-2, block j being its worker's
	// slab[bounds[m*stride+j] : bounds[m*stride+j+1]] — partition j of its
	// scatter segment, or (stride 2) its result rows.
	bounds []int64
	stride int

	costs  []uint64 // per morsel: its simulated cycles
	sched  lpt
	clocks []uint64 // per worker: one merge round's kernel cycles

	// The partitioned merge: per partition, its staged entries, their
	// offset among all staged entries, and (group-by) its groups. A
	// group-by's round-1 output is kept at the partition's staged offset,
	// which bounds its groups: outs holds the group entries, seqs their
	// first-occurrence sequence numbers, dsts their arena addresses; refs
	// indexes seqs in global rank order.
	staged, groups   []uint64
	first            []int64
	outs             []byte
	seqs, dsts, refs []int64

	// probeBase holds a group-join probe phase's build entries as the
	// phase found them: the state mergePhase folds the workers' deltas
	// against.
	probeBase []byte
}

// staging returns the run's parStage with its first workers entries
// ready for reuse: the session's, or a new one for an Engine run.
func (x *executor) staging(workers int) *parStage {
	var st *parStage
	if p := x.pool; p == nil {
		st = new(parStage)
	} else {
		if p.stage == nil {
			p.stage = new(parStage)
		}
		st = p.stage
	}
	for len(st.all) < workers {
		st.all = append(st.all, new(parWorker))
	}
	st.ws = st.all[:workers]
	return st
}

// block returns block j of morsel m's output.
func (st *parStage) block(m, j int) []byte {
	b := st.bounds[m*st.stride+j:]
	return st.ws[m%len(st.ws)].slab[b[0]:b[1]]
}

// resize returns s with length n, reusing its array when it is big
// enough. The elements are not cleared.
func resize[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// callKernel calls a merge-phase kernel (re-armed by the caller) and
// notes how many instructions it retired.
func (w *parWorker) callKernel(entry int, budget uint64) error {
	i0 := w.cpu.Stats.Instructions
	_, err := w.cpu.CallFunction(entry, budget)
	w.kernelPeak = max(w.kernelPeak, w.cpu.Stats.Instructions-i0)
	return err
}

// Sampling-epoch phases: each generated-code invocation re-arms the PMU
// with a seed derived from (pipeline, index, phase) only — never the
// worker — so count-event sample streams are worker-count invariant.
// phaseRun keeps the exact seed formula of the original morsel scheduler.
const (
	phaseRun uint64 = iota
	phaseScatter
	phaseMerge
	phasePlace
)

func epochSeed(pipeIdx, idx int, phase uint64) uint64 {
	return uint64(pipeIdx)<<32 ^ uint64(idx)*0x9e3779b97f4a7c15 ^ phase<<56
}

// SinkOverflowError reports that a sink's output region cannot hold the
// merge's worst case. The merge pre-validates headroom before writing
// anything, so the canonical heap is untouched when this is returned.
type SinkOverflowError struct {
	Sink     string // pipeline name
	Region   string // "result buffer", "hash-table arena" or "hash-table merge source"
	Needed   int64  // bytes the worst-case merge requires
	Capacity int64  // bytes the region holds
}

func (e *SinkOverflowError) Error() string {
	return fmt.Sprintf("engine: %s overflow merging sink of pipeline %q: need %d bytes, capacity %d",
		e.Region, e.Sink, e.Needed, e.Capacity)
}

// RegionFullError reports that generated code trapped because a region
// sized at compile time was full: a hash-table arena (ht_insert's
// codegen.TrapHTArenaFull) or the result buffer (bumpalloc's
// codegen.TrapAllocFull). It wraps the trap, so errors.As still finds the
// *vm.TrapError.
type RegionFullError struct {
	Region   string // "hash-table arena" or "result buffer"
	Operator string // the hash table's operator; "" for the result buffer
	Capacity int64  // bytes the region holds
	Trap     *vm.TrapError
}

func (e *RegionFullError) Error() string {
	region := e.Region
	if e.Operator != "" {
		region += " of " + e.Operator
	}
	return fmt.Sprintf("engine: %s full at %d bytes (%v)", region, e.Capacity, e.Trap)
}

func (e *RegionFullError) Unwrap() error { return e.Trap }

// regionFull maps an arena-full or result-full trap of cq's program prog
// on cpu to a *RegionFullError; every other error passes through.
// ht_insert traps before it writes r0, so r0 still names the full table's
// descriptor.
func regionFull(cq *Compiled, prog *isa.Program, cpu *vm.CPU, err error) error {
	var trap *vm.TrapError
	if !errors.As(err, &trap) || trap.IP < 0 || trap.IP >= len(prog.Code) {
		return err
	}
	in := prog.Code[trap.IP]
	if in.Op != isa.TRAP {
		return err
	}
	// The capacity is the end the routine compared against, read from the
	// staged descriptor.
	switch in.Imm {
	case codegen.TrapHTArenaFull:
		for n, ht := range cq.Layout.HT {
			if ht.Desc == cpu.Regs[0] {
				end := cpu.ReadI64(ht.Desc + codegen.HTDescEnd)
				return &RegionFullError{Region: "hash-table arena", Operator: n.Describe(), Capacity: end - ht.Arena, Trap: trap}
			}
		}
	case codegen.TrapAllocFull:
		end := cpu.ReadI64(cq.Layout.ResultDesc + codegen.AllocDescEnd)
		return &RegionFullError{Region: "result buffer", Capacity: end - cq.resultBase, Trap: trap}
	}
	return err
}

// runParallel executes a compiled query with morsel-driven parallelism on
// the given number of worker CPUs (at least 1; see executor.run). cfg arms
// one PMU per core (plus the coordinator's), merged into Result.Samples.
func (x *executor) runParallel(cq *Compiled, rs *RunState, workers int, cfg *pmu.Config) (*Result, error) {
	morselSize := int64(x.Opts.MorselRows) // <= 0: PartitionMorsels' default
	par, err := cq.Parallel()
	if err != nil {
		return nil, err
	}
	prog := par.Code.Program
	preludeEntry, err := funcEntry(prog, pipeline.PreludeFunc)
	if err != nil {
		return nil, err
	}

	// Coordinator: owns the canonical heap, runs the kernel prelude
	// (directory memsets) serially, then only merges. Its heap binds the
	// run's storage snapshot and parameters; workers inherit both with
	// every per-barrier heap refresh.
	r, err := x.stage(cq, *par, rs, cfg, cq.heapSize)
	if err != nil {
		return nil, err
	}
	coord, snap, params, budget := r.cpu, r.snap, r.params, r.budget
	r.restage()
	if _, err := coord.CallFunction(preludeEntry, budget); err != nil {
		return nil, fmt.Errorf("engine: prelude failed: %w", err)
	}

	st := x.staging(workers)
	ws := st.ws
	for i, w := range ws {
		cpu := x.machine(cq.heapSize)
		cpu.Load(prog)
		*w = parWorker{id: i + 1, cpu: cpu, pmu: attachPMU(cpu, cfg, i+1), slab: w.slab}
	}

	wall := coord.TSC() // the prelude is serial coordinator work
	var mergeCycles uint64

	// Cross-shard coordination (DESIGN.md §13): scan pipelines execute
	// the canonical surviving-morsel list of their table's zone map, with
	// per-shard journals recording each zone's verdict.
	var shardStates []ShardState

	for pi := range cq.Pipe.Pipelines {
		info := &cq.Pipe.Pipelines[pi]
		entry, err := funcEntry(prog, info.Func)
		if err != nil {
			return nil, err
		}
		scatterEntry, mergeEntry, placeEntry := 0, 0, 0
		if info.Merge != nil {
			if scatterEntry, err = funcEntry(prog, info.Merge.ScatterFunc); err != nil {
				return nil, err
			}
			if mergeEntry, err = funcEntry(prog, info.Merge.MergeFunc); err != nil {
				return nil, err
			}
			if info.Merge.PlaceFunc != "" {
				if placeEntry, err = funcEntry(prog, info.Merge.PlaceFunc); err != nil {
					return nil, err
				}
			}
		}
		var spans []Span
		var shardOf []int
		if x.Opts.Shards >= 1 && info.Driver.Kind == pipeline.DriverScan {
			se, err := buildShardExec(cq, coord, info, snap, params, x.Opts.Shards, x.Opts.ShardPruning, morselSize)
			if err != nil {
				return nil, err
			}
			spans, shardOf = se.spans, se.shardOf
			shardStates = append(shardStates, se.states...)
		} else {
			spans = PartitionMorsels(pipeDomain(cq, coord, info), morselSize)
		}
		if len(spans) == 0 {
			continue
		}
		st.stride = 2 // result rows
		if info.Merge != nil {
			st.stride = int(info.Sink.HT.Partitions) + 1
		}
		st.bounds = resize(st.bounds, len(spans)*st.stride)
		st.costs = resize(st.costs, len(spans))

		// Barrier entry: refresh every worker's private heap from the
		// canonical one (build sides become visible; sinks start clean).
		// Only the prefix below the merge area: every scatter, merge and
		// place kernel writes its merge-area bytes before reading them.
		for _, w := range ws {
			copy(w.cpu.Heap, coord.Heap[:cq.mergeBase])
			w.slab = w.slab[:0]
		}

		// Morsels are striped round-robin over the workers: morsel m runs
		// on core m mod N. A deterministic assignment keeps each worker's
		// microarchitectural history — and therefore its sample stream —
		// reproducible on any host; the scheduling discipline is modeled
		// in simulated time by the lpt schedule below.
		var wg sync.WaitGroup
		for wi, w := range ws {
			wg.Add(1)
			go func(wi int, w *parWorker) {
				defer wg.Done()
				for m := wi; m < len(spans); m += len(ws) {
					if w.err != nil {
						return
					}
					// Shard stamp: samples of this morsel land in the
					// owning shard's logical sub-buffer (0 = unsharded).
					stamp := 0
					if shardOf != nil {
						stamp = shardOf[m] + 1
					}
					t0 := w.cpu.TSC()
					bounds := st.bounds[m*st.stride : (m+1)*st.stride]
					if err := runMorsel(cq, w, info, entry, scatterEntry, pi, spans[m], m, stamp, budget, bounds); err != nil {
						w.err = regionFull(cq, prog, w.cpu, err)
						return
					}
					st.costs[m] = w.cpu.TSC() - t0
				}
			}(wi, w)
		}
		wg.Wait()
		for _, w := range ws {
			if w.err != nil {
				return nil, fmt.Errorf("engine: parallel execution failed: %w", w.err)
			}
		}

		// Wall clock: the phase takes as long as the schedule's makespan
		// in simulated time.
		wall += st.sched.assign(st.costs, workers)

		if info.Merge != nil {
			mw, err := mergePartitioned(cq, coord, info, mergeEntry, placeEntry, st, budget)
			if err != nil {
				return nil, err
			}
			wall += mw
			mergeCycles += mw
		} else if err := mergePhase(cq, coord, info, st); err != nil {
			return nil, err
		}

		foldCounters(cq, coord, ws)
	}

	res := &Result{
		Stats: coord.Stats, Workers: workers, WallCycles: wall, MergeCycles: mergeCycles,
		Shards: x.Opts.Shards, ShardStates: shardStates,
	}
	for _, w := range ws {
		addStats(&res.Stats, &w.cpu.Stats)
		res.MergePeakInstrs = max(res.MergePeakInstrs, w.kernelPeak)
	}
	if r.pmu != nil {
		bufs := [][]core.Sample{r.pmu.Samples()}
		for _, w := range ws {
			bufs = append(bufs, w.pmu.Samples())
		}
		res.Samples = core.MergeSamples(bufs...)
	}
	return r.finish(res), nil
}

// lpt is the scheduling model: it distributes task costs over workers
// with the LPT heuristic (longest processing time first). Tasks are
// sorted by cost descending — stably, so equal costs keep index order and
// the assignment is deterministic — and each goes to the least-loaded
// worker. LPT's makespan is within 4/3 of optimal, versus 2 for
// arbitrary-order greedy, which matters exactly when costs are skewed (a
// giant morsel arriving last lands on the least-loaded worker instead of
// stacking onto a busy one). Its slices are reused from call to call.
//
// The morsel scheduler's wall clock is the makespan of the per-morsel
// costs: the phase ends when the busiest worker finishes. Deriving it
// from simulated costs instead of host scheduling keeps it meaningful on
// any host core count. The merge rounds assign partitions the same way.
type lpt struct {
	order  []int    // task indices, costliest first
	owner  []int    // the worker of each task
	clocks []uint64 // per worker: the costs assigned to it
}

// assign schedules costs on workers (at least 1) and returns the
// makespan. Worker w runs the tasks t of s.order with s.owner[t] == w, in
// that order.
func (s *lpt) assign(costs []uint64, workers int) uint64 {
	s.order = resize(s.order, len(costs))
	for i := range s.order {
		s.order[i] = i
	}
	slices.SortStableFunc(s.order, func(a, b int) int { return cmp.Compare(costs[b], costs[a]) })
	s.owner = resize(s.owner, len(costs))
	s.clocks = resize(s.clocks, workers)
	clear(s.clocks)
	for _, t := range s.order {
		lo := 0
		for i := 1; i < workers; i++ {
			if s.clocks[i] < s.clocks[lo] {
				lo = i
			}
		}
		s.owner[t] = lo
		s.clocks[lo] += costs[t]
	}
	return slices.Max(s.clocks)
}

// pipeDomain returns the size of a pipeline's input domain: the staged
// row-count slot for scan drivers (the snapshot's visible rows — NOT the
// compile-time count, which an append may have outgrown), materialized
// entry count for arena drivers (read from the canonical heap, i.e. after
// the producing pipelines merged).
func pipeDomain(cq *Compiled, coord *vm.CPU, info *pipeline.PipelineInfo) int64 {
	if info.Driver.Kind == pipeline.DriverScan {
		// buildLayout gives every scan a row-count slot.
		return coord.ReadI64(cq.Layout.StateBase + int64(cq.Layout.RowsSlots[info.Driver.Alias])*8)
	}
	ht := info.Driver.HT
	cursor := coord.ReadI64(ht.Desc + codegen.HTDescCursor)
	return (cursor - ht.Arena) / ht.EntrySize
}

// runMorsel executes one morsel on a worker: stage the bounds, reset the
// sink partition, re-arm sampling deterministically, call the pipeline
// function, and append what the morsel produced to the worker's slab: its
// result rows, or — for a materializing sink, after running the generated
// scatter kernel on the same worker — the radix-scattered segment, whose
// partitions' blocks it records in bounds (see parStage.bounds).
func runMorsel(cq *Compiled, w *parWorker, info *pipeline.PipelineInfo, entry, scatterEntry, pipeIdx int, sp Span, morsel, shardStamp int, budget uint64, bounds []int64) error {
	lay := cq.Layout
	heap := w.cpu.Heap
	if w.pmu != nil {
		w.pmu.SetShard(shardStamp)
	}

	lo, hi := sp.Lo, sp.Hi
	if info.Driver.Kind == pipeline.DriverArena {
		ht := info.Driver.HT
		lo = ht.Arena + sp.Lo*ht.EntrySize
		hi = ht.Arena + sp.Hi*ht.EntrySize
	}
	codegen.PutHeapI64(heap, lay.MorselStart(pipeIdx), lo)
	codegen.PutHeapI64(heap, lay.MorselEnd(pipeIdx), hi)

	sink := &info.Sink
	switch sink.Kind {
	case pipeline.SinkOutput:
		codegen.PutHeapI64(heap, lay.ResultDesc+codegen.AllocDescCursor, cq.resultBase)
	case pipeline.SinkJoinBuild, pipeline.SinkGJBuild:
		// Nothing reads the worker's directory of a build: the scatter
		// kernel reads the arena and each merge kernel clears and rebuilds
		// its partition's slot range. A zero mask links every insert into
		// slot 0, one hot line, instead of a cold slot per entry.
		codegen.PutHeapI64(heap, sink.HT.Desc+codegen.HTDescCursor, sink.HT.Arena)
		codegen.PutHeapI64(heap, sink.HT.Desc+codegen.HTDescMask, 0)
	case pipeline.SinkGroupAgg:
		// Per-morsel private group table: clean directory + empty arena.
		codegen.PutHeapI64(heap, sink.HT.Desc+codegen.HTDescCursor, sink.HT.Arena)
		clear(heap[sink.HT.Dir : sink.HT.Dir+sink.HT.DirSlots*8])
	}

	// The sampling epoch depends only on (pipeline, global morsel index):
	// count-event sample positions are then worker-independent.
	w.cpu.ReArm(epochSeed(pipeIdx, morsel, phaseRun))

	if _, err := w.cpu.CallFunction(entry, budget); err != nil {
		return fmt.Errorf("pipeline %d morsel %d (worker %d): %w", pipeIdx, morsel, w.id, err)
	}

	if info.Merge != nil {
		// Scatter the fresh segment by hash partition (generated code, its
		// own deterministic sampling epoch; the cost lands in this morsel's
		// TSC window, so the run-phase makespan includes it).
		ht := sink.HT
		w.cpu.ReArm(epochSeed(pipeIdx, morsel, phaseScatter))
		if err := w.callKernel(scatterEntry, budget); err != nil {
			return fmt.Errorf("pipeline %d morsel %d scatter (worker %d): %w", pipeIdx, morsel, w.id, err)
		}
		off := int64(len(w.slab))
		bounds[0] = off
		for p := int64(0); p < ht.Partitions; p++ {
			off += codegen.HeapI64(heap, ht.MergeCnt+p*8) * ht.EntrySize
			bounds[p+1] = off
		}
		cur := codegen.HeapI64(heap, ht.Desc+codegen.HTDescCursor)
		w.slab = append(w.slab, heap[ht.ScatterOut:ht.ScatterOut+(cur-ht.Arena)]...)
		return nil
	}

	bounds[0] = int64(len(w.slab))
	if sink.Kind == pipeline.SinkOutput {
		cur := codegen.HeapI64(heap, lay.ResultDesc+codegen.AllocDescCursor)
		w.slab = append(w.slab, heap[cq.resultBase:cur]...)
	} // SinkGJProbe: in-place updates, merged from the heap
	bounds[1] = int64(len(w.slab))
	return nil
}

// mergePartitioned fans the merge of a partitioned sink out across the
// workers as generated partition-merge kernels (DESIGN.md §11). Each
// partition owns a disjoint directory slot range and a disjoint set of
// destination entries, so kernels run lock-free and their writes copy
// back to the canonical heap without coordination. Returns the merge
// phase's simulated makespan: the slowest worker's kernel cycles per
// round, summed over the rounds (a group-by's upsert and placement).
func mergePartitioned(cq *Compiled, coord *vm.CPU, info *pipeline.PipelineInfo, mergeEntry, placeEntry int, st *parStage, budget uint64) (uint64, error) {
	sink := &info.Sink
	ht := sink.HT
	es := ht.EntrySize
	P := int(ht.Partitions)
	M := len(st.bounds) / st.stride
	pipeIdx := info.Index
	upsert := sink.Kind == pipeline.SinkGroupAgg

	// Staged entries per partition, and each partition's offset among all
	// of them (prefix sums over the morsels' per-partition counts).
	st.staged = resize(st.staged, P)
	clear(st.staged)
	for m := 0; m < M; m++ {
		b := st.bounds[m*st.stride:]
		for p := 0; p < P; p++ {
			st.staged[p] += uint64((b[p+1] - b[p]) / es)
		}
	}
	st.first = resize(st.first, P)
	total := int64(0)
	for p, n := range st.staged {
		st.first[p] = total
		total += int64(n)
	}

	// Pre-validate headroom before staging anything, mirroring the
	// SinkOutput check. An insert sink places every staged entry in the
	// arena; an upsert sink stages up to one partial entry per group per
	// morsel, so its staged entries are bounded by the merge source and
	// its groups are checked against the arena after round 1. Structured,
	// so callers can name the overflowing sink.
	region, capacity := "hash-table arena", ht.ArenaEnd-ht.Arena
	if upsert {
		region, capacity = "hash-table merge source", ht.MergeCap
	}
	if need := total * es; need > capacity {
		return 0, &SinkOverflowError{Sink: info.Name, Region: region, Needed: need, Capacity: capacity}
	}

	// runRound fans one kernel round out across the workers: partitions
	// are LPT-assigned by cost (their entry count; empty ones cost nothing
	// and are skipped), stage writes a partition's input at MergeSrc and
	// MergeVec of the worker's heap and returns its bytes, each kernel
	// call gets its own deterministic sampling epoch, and collect reads
	// the kernel's output off the worker heap. Returns the round's
	// simulated makespan (slowest worker).
	spp := int64(1) << ht.SlotShift // directory slots per partition
	ws := st.ws
	runRound := func(entry int, phase uint64, costs []uint64, stage func(p int, heap []byte) int64, collect func(p int, heap []byte)) (uint64, error) {
		st.sched.assign(costs, len(ws))
		st.clocks = resize(st.clocks, len(ws))
		clear(st.clocks)
		var wg sync.WaitGroup
		for wi, w := range ws {
			wg.Add(1)
			go func(wi int, w *parWorker) {
				defer wg.Done()
				heap := w.cpu.Heap
				if w.pmu != nil {
					// The cross-shard combine is unsharded work.
					w.pmu.SetShard(0)
				}
				for _, p := range st.sched.order {
					if st.sched.owner[p] != wi || costs[p] == 0 {
						continue
					}
					nb := stage(p, heap)
					codegen.PutHeapI64(heap, ht.MergeParam+pipeline.MPSrc, ht.MergeSrc)
					codegen.PutHeapI64(heap, ht.MergeParam+pipeline.MPEnd, ht.MergeSrc+nb)
					codegen.PutHeapI64(heap, ht.MergeParam+pipeline.MPVec, ht.MergeVec)
					codegen.PutHeapI64(heap, ht.MergeParam+pipeline.MPPart, int64(p))
					w.cpu.ReArm(epochSeed(pipeIdx, p, phase))
					t0 := w.cpu.TSC()
					if err := w.callKernel(entry, budget); err != nil {
						w.err = fmt.Errorf("pipeline %d partition %d merge (worker %d): %w", pipeIdx, p, w.id, err)
						return
					}
					st.clocks[wi] += w.cpu.TSC() - t0
					collect(p, heap)
				}
			}(wi, w)
		}
		wg.Wait()
		for _, w := range ws {
			if w.err != nil {
				return 0, w.err
			}
		}
		return slices.Max(st.clocks), nil
	}
	// copyBack moves a finished partition from a worker heap to the
	// canonical one: the entries at their destination addresses, which
	// the kernel read from MergeVec and left there, plus the partition's
	// directory slot range. Partitions are disjoint in both, so
	// concurrent copy-backs never collide.
	copyBack := func(p int, heap []byte, n int64) {
		for k := int64(0); k < n; k++ {
			dst := codegen.HeapI64(heap, ht.MergeVec+k*8)
			copy(coord.Heap[dst:dst+es], heap[dst:dst+es])
		}
		dlo := ht.Dir + int64(p)*spp*8
		copy(coord.Heap[dlo:dlo+spp*8], heap[dlo:dlo+spp*8])
	}

	// Round 1 stages partition p's block of every morsel's segment, in
	// global morsel order, straight from the slabs: morsels are already
	// seq-ascending internally (the scatter is a stable counting sort).
	// Beside each entry goes the side vector the kernel consumes: the
	// global sequence number (upsert sinks) or the destination address
	// Arena + seq·EntrySize (insert sinks).
	gather := func(p int, heap []byte) int64 {
		src, vec, base := ht.MergeSrc, ht.MergeVec, int64(0)
		for m := 0; m < M; m++ {
			b, blk := st.bounds[m*st.stride:], st.block(m, p)
			copy(heap[src:], blk)
			for off := int64(0); off < int64(len(blk)); off += es {
				v := base + codegen.HeapI64(blk, off+codegen.HTEntryNext)
				if !upsert {
					v = ht.Arena + v*es
				}
				codegen.PutHeapI64(heap, vec, v)
				vec += 8
			}
			src += int64(len(blk))
			base += (b[P] - b[0]) / es // the morsel's whole segment
		}
		return src - ht.MergeSrc
	}

	if !upsert {
		mergeWall, err := runRound(mergeEntry, phaseMerge, st.staged, gather, func(p int, heap []byte) {
			copyBack(p, heap, int64(st.staged[p]))
		})
		if err != nil {
			return 0, err
		}
		coord.WriteI64(ht.Desc+codegen.HTDescCursor, ht.Arena+total*es)
		return mergeWall, nil
	}

	// Group-by round 1: partition-local upsert. Kernels deduplicate their
	// staged entries into per-partition group lists (first-occurrence
	// order) and report each group's global sequence number; collect
	// keeps both at the partition's staged offset.
	st.groups = resize(st.groups, P)
	clear(st.groups) // an empty partition runs no kernel
	st.outs = resize(st.outs, int(total*es))
	st.seqs = resize(st.seqs, int(total))
	mergeWall, err := runRound(mergeEntry, phaseMerge, st.staged, gather, func(p int, heap []byte) {
		outEnd := codegen.HeapI64(heap, ht.MergeParam+pipeline.MPOut)
		ng := (outEnd - ht.MergeOut) / es
		f := st.first[p]
		copy(st.outs[f*es:], heap[ht.MergeOut:outEnd])
		for k := int64(0); k < ng; k++ {
			st.seqs[f+k] = codegen.HeapI64(heap, ht.MergeSeq+k*8)
		}
		st.groups[p] = uint64(ng)
	})
	if err != nil {
		return 0, err
	}

	// Group-by round 2: parallel placement. Sequence numbers are unique,
	// so sorting the groups by seq reproduces the serial insertion order
	// exactly — the group with global rank i lives at Arena + i*es, just
	// as in the serial run. A group's directory slot determines its
	// partition, so chains are partition-local and the placement is
	// another run of the insert kernel: partitions in parallel on the
	// workers, each re-linking its own slot range.
	st.refs = st.refs[:0]
	for p, ng := range st.groups {
		for k := st.first[p]; k < st.first[p]+int64(ng); k++ {
			st.refs = append(st.refs, k)
		}
	}
	if need := int64(len(st.refs)) * es; need > ht.ArenaEnd-ht.Arena {
		return 0, &SinkOverflowError{
			Sink: info.Name, Region: "hash-table arena",
			Needed: need, Capacity: ht.ArenaEnd - ht.Arena,
		}
	}
	slices.SortFunc(st.refs, func(a, b int64) int { return cmp.Compare(st.seqs[a], st.seqs[b]) })
	st.dsts = resize(st.dsts, int(total))
	for i, r := range st.refs {
		st.dsts[r] = ht.Arena + int64(i)*es
	}
	place := func(p int, heap []byte) int64 {
		f, ng := st.first[p], int64(st.groups[p])
		copy(heap[ht.MergeSrc:], st.outs[f*es:(f+ng)*es])
		for k := int64(0); k < ng; k++ {
			codegen.PutHeapI64(heap, ht.MergeVec+k*8, st.dsts[f+k])
		}
		return ng * es
	}
	placeWall, err := runRound(placeEntry, phasePlace, st.groups, place, func(p int, heap []byte) {
		copyBack(p, heap, int64(st.groups[p]))
	})
	if err != nil {
		return 0, err
	}
	coord.WriteI64(ht.Desc+codegen.HTDescCursor, ht.Arena+int64(len(st.refs))*es)
	return mergeWall + placeWall, nil
}

// mergePhase folds a phase's output back into the canonical heap for the
// two sinks that have no merge kernel: result rows append in global morsel
// order, group-join probe updates fold commutatively. Materializing sinks
// go through mergePartitioned.
func mergePhase(cq *Compiled, coord *vm.CPU, info *pipeline.PipelineInfo, st *parStage) error {
	sink := &info.Sink
	switch sink.Kind {
	case pipeline.SinkOutput:
		cursorAddr := cq.Layout.ResultDesc + codegen.AllocDescCursor
		cur := coord.ReadI64(cursorAddr)
		M := len(st.bounds) / st.stride
		staged := int64(0)
		for m := 0; m < M; m++ {
			staged += int64(len(st.block(m, 0)))
		}
		if cur+staged > cq.resultEnd {
			return &SinkOverflowError{
				Sink: info.Name, Region: "result buffer",
				Needed: cur + staged - cq.resultBase, Capacity: cq.resultEnd - cq.resultBase,
			}
		}
		for m := 0; m < M; m++ {
			cur += int64(copy(coord.Heap[cur:], st.block(m, 0)))
		}
		coord.WriteI64(cursorAddr, cur)

	case pipeline.SinkGJProbe:
		// Workers updated build entries in place; fold each worker's
		// delta against the phase-start snapshot state slot by state slot:
		// sums and counts (the match count among them) add their deltas,
		// min/max fold the value itself, which already includes the base.
		ht := sink.HT
		cursor := coord.ReadI64(ht.Desc + codegen.HTDescCursor)
		n := cursor - ht.Arena
		st.probeBase = append(st.probeBase[:0], coord.Heap[ht.Arena:cursor]...)
		base := st.probeBase
		for _, w := range st.ws {
			for off := int64(0); off < n; off += ht.EntrySize {
				addr := ht.Arena + off
				for _, s := range sink.Slots {
					wv := codegen.HeapI64(w.cpu.Heap, addr+s.Off)
					switch s.Fn {
					case plan.AggSum, plan.AggCount:
						if d := wv - codegen.HeapI64(base, off+s.Off); d != 0 {
							coord.WriteI64(addr+s.Off, coord.ReadI64(addr+s.Off)+d)
						}
					case plan.AggMin:
						if wv < coord.ReadI64(addr+s.Off) {
							coord.WriteI64(addr+s.Off, wv)
						}
					case plan.AggMax:
						if wv > coord.ReadI64(addr+s.Off) {
							coord.WriteI64(addr+s.Off, wv)
						}
					}
				}
			}
		}
	}
	return nil
}

// foldCounters folds each worker's per-phase tuple-counter delta into the
// canonical heap. The coordinator was idle during the phase, so its
// counters are the phase baseline.
func foldCounters(cq *Compiled, coord *vm.CPU, ws []*parWorker) {
	cb := cq.Layout.CounterBase
	if cb == 0 {
		return
	}
	for s := int64(0); s < counterSlots; s++ {
		baseV := coord.ReadI64(cb + s*8)
		total := baseV
		for _, w := range ws {
			total += codegen.HeapI64(w.cpu.Heap, cb+s*8) - baseV
		}
		if total != baseV {
			coord.WriteI64(cb+s*8, total)
		}
	}
}

// funcEntry resolves a generated function's entry point.
func funcEntry(prog *isa.Program, name string) (int, error) {
	for i := range prog.Funcs {
		if prog.Funcs[i].Name == name {
			return prog.Funcs[i].Entry, nil
		}
	}
	return 0, fmt.Errorf("engine: no symbol %q in program", name)
}

// addStats accumulates per-worker execution statistics.
func addStats(dst, src *vm.Stats) {
	dst.Instructions += src.Instructions
	dst.Cycles += src.Cycles
	dst.SampleCycles += src.SampleCycles
	dst.Loads += src.Loads
	dst.Stores += src.Stores
	dst.Branches += src.Branches
	dst.BranchMisses += src.BranchMisses
	dst.L1Hits += src.L1Hits
	dst.L2Hits += src.L2Hits
	dst.L3Hits += src.L3Hits
	dst.MemAccesses += src.MemAccesses
	dst.Calls += src.Calls
}
