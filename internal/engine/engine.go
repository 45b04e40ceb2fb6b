// Package engine is the top of the stack: it plans a query, lays out the
// simulated machine's memory, drives the three lowering steps (pipeline →
// IR optimization → native code), stages table data into the VM heap, runs
// the program — optionally under PMU sampling — and post-processes samples
// into a core.Profile.
//
// It corresponds to Umbra's query engine plus the experiment driver in the
// paper's Fig. 4: compilation populates the Tagging Dictionary, execution
// produces samples, and the profiler maps them onto any abstraction level.
package engine

import (
	"fmt"
	"slices"

	"repro/internal/catalog"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/iropt"
	"repro/internal/pipeline"
	"repro/internal/plan"
	"repro/internal/pmu"
	"repro/internal/sqlparse"
	"repro/internal/verify"
	"repro/internal/verify/absint"
	"repro/internal/verify/tv"
	"repro/internal/vm"
)

// Options configures compilation.
type Options struct {
	// RegisterTagging reserves the tag register and wraps shared-code
	// calls (§4.2.5); required for register-based disambiguation.
	RegisterTagging bool
	// TagEverything enables the §6.3 validation mode.
	TagEverything bool
	// EagerColumnLoads attributes column loads to scans (Fig. 12 mode).
	EagerColumnLoads bool
	// TupleCounters instruments every task with EXPLAIN ANALYZE row
	// counters, read back into Result.TupleCounts.
	TupleCounters bool
	// Optimize selects IR optimization passes.
	Optimize iropt.Options
	// FuseCmpBranch enables backend compare-and-branch fusion.
	FuseCmpBranch bool
	// MaxInstructions bounds a run (0 = default of 4e9).
	MaxInstructions uint64
	// Workers selects morsel-driven parallel execution: values >= 1 make
	// Run dispatch every pipeline over fixed-size morsels on that many
	// simulated worker CPUs (see executor.runParallel); 0 is the one-core
	// path: one CPU, one PMU buffer, no morsels, no merge. Workers=1 is
	// the morsel scheduler on one core — the baseline that parallel runs
	// are sample-exact against, and measurably dearer than 0 on joins
	// (TestOneWorkerSchedulerCost), which is why both exist.
	Workers int
	// MorselRows is the morsel size in tuples (table scans) or entries
	// (hash-table scans); 0 selects DefaultMorselRows. The partition
	// depends only on the input size and this value — never on Workers —
	// which is what makes parallel results and count-event sample
	// streams identical for any worker count.
	MorselRows int
	// Partitions radix-partitions every materializing sink's merge into
	// this many directory-disjoint partition-merge tasks, executed by
	// generated merge kernels fanned out across the workers (DESIGN.md
	// §11). Rounded down to a power of two and clamped to each table's
	// directory size; anything below 1 is one partition, so every
	// materializing sink of every compile has merge kernels. Like
	// MorselRows, the partition count never depends on Workers, so results
	// and count-event sample streams stay worker-count invariant.
	Partitions int
	// BloomFilters is read by nothing: joins probe their directory
	// directly (DESIGN.md §11). It stays only so that existing callers
	// keep compiling.
	BloomFilters bool
	// Shards >= 1 executes every table scan through the cross-shard
	// coordinator: the table's zone map is grouped into that many
	// contiguous shards (at most one per zone), and pruned/surviving zones
	// are journaled per shard (DESIGN.md §13). Zone granularity is a
	// function of the table alone, so results, count-event sample streams,
	// and the merged profile are identical for every shard count — only
	// the per-shard attribution lens changes. 0 keeps the unsharded path.
	// Like Workers it is a run knob: a session sets its own
	// (Session.SetShards).
	Shards int
	// ShardPruning skips zones (and thereby whole shards) that provably
	// contribute no rows: zone bounds that cannot satisfy the scan filter,
	// and probe-side zones whose key range misses every build-side join
	// key (bounds, or an exact lookup of each candidate key in the build's
	// hash table — semi-join shipping). Every pruned zone
	// becomes an explicit zero-cost skip event in the merged profile.
	// Requires Shards >= 1.
	ShardPruning bool
	// VerifyArtifacts runs the cross-level verification suite
	// (internal/verify) over every compilation artifact: after pipeline
	// construction, after each optimizer pass, and after native emit.
	// Compilation fails on the first invariant violation. Off by default
	// (it re-walks the module per pass); tests and tprofvet enable it.
	VerifyArtifacts bool
}

// DefaultOptions is the standard configuration: Register Tagging on, all
// optimizations enabled, sink merges in 8 radix partitions.
func DefaultOptions() Options {
	return Options{
		RegisterTagging: true,
		Optimize:        iropt.AllOptions(),
		FuseCmpBranch:   true,
		Partitions:      8,
	}
}

// Compiler is the compile half of the engine: a pure function from
// queries to Compiled artifacts. It holds no mutable state — the same
// (plan, Options, catalog contents) always produces the same artifact,
// bit for bit — which is what makes artifacts cacheable (internal/qcache)
// and shareable across sessions.
type Compiler struct {
	Cat  *catalog.Catalog
	Opts Options
}

// NewCompiler creates a compiler.
func NewCompiler(cat *catalog.Catalog, opts Options) *Compiler {
	return &Compiler{Cat: cat, Opts: opts}
}

// executor is the run half of the engine. It owns no per-query state:
// every run stages a zeroed simulated machine (and fresh PMU buffers)
// around the immutable artifact, and all per-session inputs travel in a
// RunState — so N sessions may execute one shared Compiled concurrently.
//
// An Engine's executor (any executor without a pool) builds its machines
// with vm.New and forgets them: Result.CPU belongs to the result. A
// Session's executor draws them from the session's pool and gets them back
// at the session's next call (see Session).
type executor struct {
	Opts Options

	pool *cpuPool // nil: machines are built per run and owned by the Result
}

// cpuPool is the simulated machines a Session keeps between calls: free
// ones, and the ones lent to the results of the call in progress.
type cpuPool struct{ free, lent []*vm.CPU }

// reclaim takes back every machine lent since the last reclaim.
func (p *cpuPool) reclaim() {
	p.free = append(p.free, p.lent...)
	p.lent = p.lent[:0]
}

// machine returns a CPU in the state vm.New(heapSize) builds.
func (x *executor) machine(heapSize int) *vm.CPU {
	p := x.pool
	if p == nil {
		return vm.New(heapSize)
	}
	var cpu *vm.CPU
	if n := len(p.free); n > 0 {
		cpu, p.free = p.free[n-1], p.free[:n-1]
		cpu.Reset(heapSize)
	} else {
		cpu = vm.New(heapSize)
	}
	p.lent = append(p.lent, cpu)
	return cpu
}

// RunState is the per-session mutable state of one execution: everything
// a run needs beyond the shared artifact — the encoded bound-parameter
// values and the storage snapshot the run binds against. VM heap and
// counters are zeroed and sample buffers created per run, never shared.
type RunState struct {
	// Params are the encoded bound-parameter values, staged into the
	// artifact's parameter region before each run. Must hold exactly
	// len(cq.Plan.Params) values.
	Params []int64
	// Snap pins the storage epoch this execution sees: column prefixes and
	// row counts are staged from it exactly like params, so concurrent
	// appends land invisibly in the tail. nil binds the catalog's current
	// epoch at execute time.
	Snap *catalog.Snapshot
}

// Engine is the classic single-tenant face of the engine: a Compiler plus
// runs — one catalog, one options set, no cache, no parameters. Callers may
// mutate Opts between calls; every call reads the fields afresh.
type Engine struct {
	Compiler
}

// New creates an engine.
func New(cat *catalog.Catalog, opts Options) *Engine {
	return &Engine{Compiler{Cat: cat, Opts: opts}}
}

// slotWrite stages one 64-bit value into the heap before execution.
type slotWrite struct {
	addr int64
	val  int64
}

// Compiled is a fully compiled query, ready to run (repeatedly).
type Compiled struct {
	Plan     *plan.Output
	Pipe     *pipeline.Compiled
	Code     *codegen.Result
	Layout   *pipeline.Layout
	OptStats iropt.Stats

	// Mem is the heap layout and staged-cell model handed to the abstract
	// interpreter (internal/verify/absint); built on every compile so
	// tooling (tprofvet) can verify finished artifacts.
	Mem *absint.MemModel
	// TVSteps counts the optimizer pass applications the translation
	// validator (internal/verify/tv) checked; zero unless VerifyArtifacts.
	TVSteps int

	heapSize int
	// mergeBase is where the merge area — every hash table's scatter and
	// merge staging, addressed only by a parallel or sharded run — begins:
	// the 64-byte-aligned end of the result buffer, and the heap size of a
	// one-core run's machine.
	mergeBase  int
	writes     []slotWrite
	resultBase int64
	resultEnd  int64
	rowBytes   int64

	// Epoch-resolved data binding (DESIGN.md §15). The artifact bakes only
	// schema-derived facts: region addresses sized by each table's frozen
	// row capacity and column widths, plus which (table, column) fills each
	// region and which state slot holds each scan's row count. The data
	// itself — column prefixes and row counts — is staged per execution
	// from a catalog.Snapshot, exactly like bound parameters, so one
	// artifact serves every epoch its capacities and widths admit without
	// recompiling.
	cat       *catalog.Catalog
	binds     []colBind
	rowsBinds []rowsBind
	tables    []tableBind

	// regions is the heap as buildLayout carved it, in address order.
	regions []absint.MemRegion
}

// colBind maps one heap column region to its source (table, column).
type colBind struct {
	addr  int64  // region base address
	table string // source table name
	col   int    // column position in the table
	cap   int64  // region capacity in rows
	width int64  // bytes per value the region stores
}

// rowsBind maps one scan's row-count state slot to its source table.
type rowsBind struct {
	addr  int64  // state-slot address
	table string // source table name
}

// tableBind records one scan's compile-time view of its table: the frozen
// capacity the layout reserved and the row count the planner saw (the
// baseline for staleness checks).
type tableBind struct {
	alias   string
	table   string
	cap     int64
	planned int64
}

// PlannedRows returns the per-alias row counts the planner saw at compile
// time — the baseline Session.Adapt's staleness trigger drifts against.
func (cq *Compiled) PlannedRows() map[string]int64 {
	out := make(map[string]int64, len(cq.tables))
	for _, tb := range cq.tables {
		out[tb.alias] = tb.planned
	}
	return out
}

// SnapshotCapacityError reports a snapshot whose visible rows exceed the
// capacity an artifact reserved — the one condition under which an epoch
// cannot bind to an existing artifact and a recompile (via the catalog
// version bump the capacity-growing append performed) is required.
type SnapshotCapacityError struct {
	Table    string
	Rows     int64
	Capacity int64
}

func (e *SnapshotCapacityError) Error() string {
	return fmt.Sprintf("engine: snapshot of %s has %d rows, artifact reserved capacity %d (stale artifact; recompile under current catalog version)",
		e.Table, e.Rows, e.Capacity)
}

// SnapshotWidthError reports a snapshot column wider than the region an
// artifact reserved for it: an append brought a value the column's old
// width cannot hold, widened the column and bumped the catalog version.
// The artifact is stale; narrowing the values would truncate them.
type SnapshotWidthError struct {
	Table, Column string
	Width         int64 // the snapshot's bytes per value
	Reserved      int64 // the artifact's bytes per value
}

func (e *SnapshotWidthError) Error() string {
	return fmt.Sprintf("engine: snapshot column %s.%s is %d bytes wide, artifact reserved %d (stale artifact; recompile under current catalog version)",
		e.Table, e.Column, e.Width, e.Reserved)
}

// snapshotFor resolves the storage snapshot one run binds against: the
// session-pinned snapshot when the run state carries one, else the
// catalog's current epoch captured at execute time.
func (cq *Compiled) snapshotFor(rs *RunState) *catalog.Snapshot {
	if rs != nil && rs.Snap != nil {
		return rs.Snap
	}
	return cq.cat.Snapshot()
}

// stageSnapshot writes the snapshot's column prefixes, each at its
// region's width, and row counts into the artifact's data regions and
// row-count slots — the epoch-resolution step of every execution. It fails
// with SnapshotCapacityError if any view outgrew the capacity the layout
// reserved, and with SnapshotWidthError if any column is wider than its
// region; it writes nothing then.
func stageSnapshot(cq *Compiled, cpu *vm.CPU, snap *catalog.Snapshot) error {
	for _, tb := range cq.tables {
		v := snap.View(tb.table)
		if v == nil {
			return fmt.Errorf("engine: snapshot has no view of table %q", tb.table)
		}
		if int64(v.Rows) > tb.cap {
			return &SnapshotCapacityError{Table: tb.table, Rows: int64(v.Rows), Capacity: tb.cap}
		}
	}
	for _, b := range cq.binds {
		v := snap.View(b.table)
		if w := int64(v.ColWidth(b.col)); w > b.width {
			return &SnapshotWidthError{Table: b.table, Column: v.Table.Cols[b.col].Name, Width: w, Reserved: b.width}
		}
	}
	for _, b := range cq.binds {
		codegen.PutHeapCol(cpu.Heap[b.addr:], snap.View(b.table).Col(b.col), b.width)
	}
	for _, rb := range cq.rowsBinds {
		cpu.WriteI64(rb.addr, int64(snap.View(rb.table).Rows))
	}
	return nil
}

// Memory layout constants (DESIGN.md §5: fixed low-memory regions, then
// state, descriptors, table data, hash tables, result buffer — where a
// one-core run's heap ends — and the merge area only parallel runs address).
const (
	spillBase   = 512
	spillCap    = 64 << 10
	layoutStart = spillBase + spillCap
)

// counterSlots bounds the tuple-counter region: one slot per component
// ID, far above any real query's component count.
const counterSlots = 1024

// DataFloor is the lowest heap address holding query data; everything
// below it is spill slots (the stack analogue) and unused low memory. Memory
// profiles filter below this address.
const DataFloor int64 = layoutStart

func align(x int64, a int64) int64 { return (x + a - 1) &^ (a - 1) }

// pow2Floor rounds x down to a power of two (1 for x < 1).
func pow2Floor(x int64) int64 {
	p := int64(1)
	for p*2 <= x {
		p *= 2
	}
	return p
}

// log2 of a power of two.
func log2(x int64) int64 {
	var n int64
	for x > 1 {
		x >>= 1
		n++
	}
	return n
}

// CompileSQL parses, plans and compiles a SQL statement.
func (c *Compiler) CompileSQL(sql string) (*Compiled, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return c.CompileQuery(q)
}

// CompileQuery plans and compiles a query.
func (c *Compiler) CompileQuery(q *plan.Query) (*Compiled, error) {
	pl, err := plan.Plan(c.Cat, q)
	if err != nil {
		return nil, err
	}
	return c.CompilePlanGuided(pl, nil)
}

// CompilePlanGuided compiles an already-built plan. The second parameter
// is unused — no profile steers a compile; block layout and spill weights
// come from the plan's estimated counts — and stays only so that existing
// callers keep compiling. The compilation path is deterministic:
// recompiling the same plan reproduces every IR instruction ID and task
// component ID.
func (c *Compiler) CompilePlanGuided(pl *plan.Output, _ map[int]float64) (*Compiled, error) {
	cq := &Compiled{Plan: pl, cat: c.Cat}
	lay, err := c.buildLayout(pl, cq)
	if err != nil {
		return nil, err
	}
	cq.Layout = lay

	pc, err := pipeline.Compile(pl, lay, pipeline.Options{
		RegisterTagging:  c.Opts.RegisterTagging,
		TagEverything:    c.Opts.TagEverything,
		EagerColumnLoads: c.Opts.EagerColumnLoads,
		TupleCounters:    c.Opts.TupleCounters,
	})
	if err != nil {
		return nil, err
	}
	cq.Pipe = pc
	cq.Mem = buildMemModel(cq, lay, pc)

	// VerifyArtifacts: run the artifact gate on every lowering artifact,
	// so a violation names the exact phase that introduced it.
	check := func(phase string, code *codegen.Result) error {
		if !c.Opts.VerifyArtifacts {
			return nil
		}
		return verify.AsError(verify.Check(&verify.Artifact{
			Phase:           phase,
			Module:          pc.Module,
			Dict:            pc.Dict,
			Code:            code,
			RegisterTagging: c.Opts.RegisterTagging,
			Pipelines:       pc.Pipelines,
			Mem:             cq.Mem,
		}))
	}
	opt := c.Opts.Optimize
	var tval *tv.Validator
	if c.Opts.VerifyArtifacts {
		if err := check("pipeline", nil); err != nil {
			return nil, err
		}
		// Translation validation: prove each optimizer pass application
		// preserved observational equivalence, not just well-formedness.
		tval = tv.NewValidator(pc.Module)
		opt.AfterPass = func(pass string) error {
			if err := verify.AsError(tval.Step(pc.Module, pass)); err != nil {
				return err
			}
			return check("iropt/"+pass, nil)
		}
	}

	st, err := iropt.Optimize(pc.Module, pc.Dict, opt)
	if err != nil {
		return nil, err
	}
	cq.OptStats = st
	if tval != nil {
		cq.TVSteps = tval.Steps()
	}
	if err := pc.Module.Verify(); err != nil {
		return nil, fmt.Errorf("engine: IR invalid after optimization: %w", err)
	}

	ccfg := codegen.DefaultConfig(0, spillBase, spillCap)
	ccfg.RegisterTagging = c.Opts.RegisterTagging
	ccfg.FuseCmpBranch = c.Opts.FuseCmpBranch
	code, err := codegen.Compile(pc.Module, ccfg)
	if err != nil {
		return nil, err
	}
	cq.Code = code
	if err := check("emit", code); err != nil {
		return nil, err
	}
	return cq, nil
}

// carver hands out heap addresses in ascending order and records every
// region it hands out. The record is the one description of the heap:
// buildMemModel and the layout tests read it instead of re-deriving sizes.
type carver struct {
	cur     int64
	regions []absint.MemRegion
}

// carve reserves size bytes under name and moves on to the next 64-byte
// boundary; the padding in between belongs to no region.
func (c *carver) carve(name string, size int64, writable bool) int64 {
	lo := c.cur
	if size > 0 {
		c.regions = append(c.regions, absint.MemRegion{Name: name, Lo: lo, Hi: lo + size, Writable: writable})
	}
	c.cur = align(lo+size, 64)
	return lo
}

// carveCol reserves a read-only column region of capRows values, w bytes
// each, and records the width every access into it must use.
func (c *carver) carveCol(capRows, w int64) int64 {
	lo := c.carve("col", capRows*w, false)
	c.regions[len(c.regions)-1].Width = w
	return lo
}

// buildLayout assigns heap addresses for state slots, table columns, hash
// tables and the result buffer, and records the staging writes.
func (c *Compiler) buildLayout(pl *plan.Output, cq *Compiled) (*pipeline.Layout, error) {
	lay := &pipeline.Layout{
		Cols:      map[pipeline.ColKey]pipeline.ColRegion{},
		RowsSlots: map[string]int{},
		HT:        map[plan.Node]*pipeline.HTLayout{},
	}

	// Gather scans and materializing nodes.
	var scans []*plan.Scan
	var mats []plan.Node
	plan.Walk(pl, func(n plan.Node) {
		switch x := n.(type) {
		case *plan.Scan:
			scans = append(scans, x)
		default:
			if pipeline.Materializes(n) {
				mats = append(mats, n)
			}
		}
	})

	// State slots: one row count per scan. Column bases are not state:
	// generated code addresses each column region as a layout constant.
	ncols := 0
	for i, s := range scans {
		lay.RowsSlots[s.Alias] = i
		ncols += len(s.Cols)
	}

	// At most 7 fixed regions, one per column and 11 per hash table.
	h := carver{cur: spillBase, regions: make([]absint.MemRegion, 0, 7+ncols+11*len(mats))}

	// The stack analogue: spill slots. Call arguments travel in registers.
	h.carve("spill", spillCap, true)

	// State slots are staged by the host and read-only to generated code.
	lay.StateBase = h.carve("state", int64(len(scans))*8, false)

	// Hash-table descriptors and the result descriptor. Generated code
	// bumps the arena/result cursors, so the region is writable.
	descBase := h.carve("desc", int64(len(mats))*codegen.HTDescSize+codegen.AllocDescSize, true)
	lay.ResultDesc = descBase + int64(len(mats))*codegen.HTDescSize

	// Morsel-bound slots: one [start, end) pair per pipeline, staged per
	// morsel by the host in parallel runs and by the generated prologue
	// (stageFullMorsel) in single-threaded ones.
	lay.MorselBase = h.carve("morsel", int64(pipeline.PipeCount(pl))*pipeline.MorselSlotBytes, true)

	// Bound-parameter slots: one per $N, staged by the executor per run.
	if np := len(pl.Params); np > 0 {
		lay.ParamBase = h.carve("params", int64(np)*8, false)
	}

	if c.Opts.TupleCounters {
		lay.CounterBase = h.carve("counters", counterSlots*8, true)
	}

	// Table column regions, sized by the frozen row *capacity* times the
	// column's frozen width so the same layout serves every epoch within
	// both; the data itself is staged per run (stageSnapshot) and
	// read-only to generated code. Row counts are epoch-resolved too: their
	// state slots are filled from the run's snapshot, not baked here.
	for _, s := range scans {
		capRows := int64(s.Table.RowCap())
		cq.tables = append(cq.tables, tableBind{
			alias: s.Alias, table: s.Table.Name, cap: capRows, planned: int64(s.Table.Rows()),
		})
		for _, ci := range s.Cols {
			w := int64(s.Table.ColWidth(ci))
			addr := h.carveCol(capRows, w)
			lay.Cols[pipeline.ColKey{Alias: s.Alias, Col: ci}] = pipeline.ColRegion{Addr: addr, Width: w}
			cq.binds = append(cq.binds, colBind{addr: addr, table: s.Table.Name, col: ci, cap: capRows, width: w})
		}
		cq.rowsBinds = append(cq.rowsBinds, rowsBind{
			addr:  lay.StateBase + int64(lay.RowsSlots[s.Alias])*8,
			table: s.Table.Name,
		})
	}

	// Hash tables: directory + arena per materializing node, both written
	// by generated code and runtime routines. The arena holds the build
	// bound; a group-by's directory is sized from its keys' distinct
	// values, because a full directory only makes chains longer.
	// Their partitioned-merge staging regions follow the result buffer.
	for i, n := range mats {
		entries := pipeline.BuildBound(n)
		dirSlots := pipeline.TableDirSlots(n)
		entrySize := pipeline.EntrySize(n)
		arenaCap := int64(entries+16) * entrySize

		// Options.Partitions < 1 rounds to one partition.
		p := pow2Floor(int64(c.Opts.Partitions))
		if p > dirSlots {
			p = dirSlots
		}
		ht := &pipeline.HTLayout{
			Desc: descBase + int64(i)*codegen.HTDescSize, DirSlots: dirSlots, EntrySize: entrySize,
			Partitions: p, SlotShift: log2(dirSlots / p),
		}
		ht.Dir = h.carve("ht.dir", dirSlots*8, true)
		ht.Arena = h.carve("ht.arena", arenaCap, true)
		ht.ArenaEnd = ht.Arena + arenaCap
		lay.HT[n] = ht
		cq.writes = append(cq.writes,
			slotWrite{ht.Desc + codegen.HTDescDir, ht.Dir},
			slotWrite{ht.Desc + codegen.HTDescMask, dirSlots - 1},
			slotWrite{ht.Desc + codegen.HTDescCursor, ht.Arena},
			slotWrite{ht.Desc + codegen.HTDescEnd, ht.ArenaEnd},
		)
	}

	// Result buffer.
	cq.rowBytes = int64(len(pl.Exprs)) * 8
	resRows := int64(pl.BoundRows() + 16)
	cq.resultBase = h.carve("result", resRows*cq.rowBytes, true)
	cq.resultEnd = cq.resultBase + resRows*cq.rowBytes
	cq.writes = append(cq.writes,
		slotWrite{lay.ResultDesc + codegen.AllocDescCursor, cq.resultBase},
		slotWrite{lay.ResultDesc + codegen.AllocDescEnd, cq.resultEnd},
	)

	// The merge area: regions only the morsel scheduler's scatter, merge
	// and place kernels address, so a one-core machine ends before it.
	cq.mergeBase = int(h.cur)
	// It is sized by the entries a merge can stage, which for a group-by is
	// its input bound rather than its group bound.
	for _, n := range mats {
		ht := lay.HT[n]
		staged := int64(pipeline.StagedBound(n) + 16)
		ht.MergeCap = staged * ht.EntrySize
		ht.ScatterOut = h.carve("ht.scatter", ht.MergeCap, true)
		ht.MergeCnt = h.carve("ht.mergecnt", ht.Partitions*8, true)
		ht.MergeCur = h.carve("ht.mergecur", ht.Partitions*8, true)
		ht.MergeSrc = h.carve("ht.mergesrc", ht.MergeCap, true)
		ht.MergeVec = h.carve("ht.mergevec", staged*8, true)
		if _, ok := n.(*plan.GroupBy); ok {
			ht.MergeOut = h.carve("ht.mergeout", ht.MergeCap, true)
			ht.MergeSeq = h.carve("ht.mergeseq", staged*8, true)
		}
		ht.MergeParam = h.carve("ht.mergeparam", pipeline.MergeParamSlots*8, true)
	}

	cq.heapSize = int(h.cur)
	cq.regions = h.regions
	return lay, nil
}

// Result is one query execution's outcome.
type Result struct {
	Rows [][]int64
	Cols []plan.ColMeta

	Stats vm.Stats
	// CPU is the machine the run executed on (the coordinator of a
	// parallel run), heap included; a one-core run's heap ends where the
	// merge area begins. A result of Engine.Run* owns it. A result of a
	// Session borrows it: it is valid until that session's next Run,
	// Execute or Adapt, which recycles it — copy what must outlive that.
	// Every other field is the result's own.
	CPU *vm.CPU

	// Epoch is the storage epoch the run bound against: the pinned
	// session snapshot's, or the catalog's current epoch at execute time.
	Epoch uint64

	// Workers is the worker count of a morsel-driven parallel run
	// (0 for the single-CPU path).
	Workers int
	// WallCycles is the simulated wall clock: for a parallel run, the
	// serial coordinator work plus, per pipeline, the slowest worker's
	// cycles; for a single-CPU run, Stats.TotalCycles(). Speedup
	// comparisons between worker counts use this number.
	WallCycles uint64
	// MergeCycles is the simulated merge-phase makespan summed over all
	// pipelines with partitioned sinks: per pipeline, the slowest
	// worker's merge-kernel cycles in each round (partition merge, plus
	// the placement round for group-by sinks). Zero for serial runs, and
	// for parallel runs of a plan without a materializing sink.
	MergeCycles uint64
	// MergePeakInstrs is the most instructions any one scatter, merge or
	// place kernel call of a parallel run retired. Every call re-arms
	// sampling, so a count event samples a call only if it retires a whole
	// interval (tprofvet check -merge). Zero for serial runs.
	MergePeakInstrs uint64

	// Profiling outputs (nil without sampling).
	PMU     *pmu.PMU
	Samples []core.Sample
	Profile *core.Profile

	// Shards is the shard count a cross-shard run was given (0 for
	// unsharded execution); a table with fewer zones splits into one
	// shard per zone (ShardStates).
	Shards int
	// ShardStates are the per-shard run-state journals of every scan
	// pipeline (sharded runs only): zone verdicts, scanned rows, morsel
	// counts. `tprofvet check -shard` replays them against the table's
	// zone map and the profile's skip events.
	ShardStates []ShardState
	// Skips are the zero-cost skip events of pruned zones (also attached
	// to Profile.Skips when sampling is on).
	Skips []core.SkipEvent

	// TupleCounts holds EXPLAIN ANALYZE row counters per task component
	// (only with Options.TupleCounters).
	TupleCounts map[core.ComponentID]int64
	// PlanRows is the true-cardinality collector's view of TupleCounts:
	// observed output rows per plan node, resolved through the Tagging
	// Dictionary's task → operator lineage (only with
	// Options.TupleCounters; filled by the serial and parallel
	// collectors alike).
	PlanRows map[plan.Node]int64
}

// Run executes a compiled query. cfg selects PMU sampling; pass nil to run
// unprofiled (the overhead experiments' baseline). With Options.Workers >= 1
// the run is morsel-driven parallel (see executor.run).
func (e *Engine) Run(cq *Compiled, cfg *pmu.Config) (*Result, error) {
	return (&executor{Opts: e.Opts}).run(cq, nil, 1, cfg)
}

// RunIterations executes a compiled query n times within one profiled
// session, modelling an iterative dataflow: the TSC and sample stream run
// continuously across iterations (mutable state — hash tables, result
// buffer, counters — is re-staged between passes), so the profile's
// DetectIterations can split them by timestamp, the paper's §4.2.6
// mechanism. The returned rows are the last iteration's. n > 1 runs on the
// one-core path only; RunIterations(cq, 1, cfg) is Run(cq, cfg).
func (e *Engine) RunIterations(cq *Compiled, n int, cfg *pmu.Config) (*Result, error) {
	return (&executor{Opts: e.Opts}).run(cq, nil, n, cfg)
}

// run is where every execution starts: n passes of cq with per-session
// state rs (nil for parameterless plans). Workers = 0 and Shards = 0 take
// the one-core path; anything else the morsel scheduler, sharded
// runs on one worker when Workers is 0 (the serial driver cannot skip
// zones). n > 1 needs one continuous PMU buffer, so only the one-core path.
func (x *executor) run(cq *Compiled, rs *RunState, n int, cfg *pmu.Config) (*Result, error) {
	if x.Opts.Workers < 1 && x.Opts.Shards < 1 {
		r, err := x.stage(cq, rs, cfg, cq.mergeBase)
		if err != nil {
			return nil, err
		}
		return r.iterate(max(n, 1))
	}
	if n > 1 {
		return nil, fmt.Errorf("engine: RunIterations(n=%d) runs on the one-core path only (Workers=0, no shards): "+
			"iteration detection needs one continuous PMU buffer, got Workers=%d, shards=%d", n, x.Opts.Workers, x.Opts.Shards)
	}
	return x.runParallel(cq, rs, max(x.Opts.Workers, 1), cfg)
}

// defaultMaxInstructions bounds one generated-code invocation when
// Options.MaxInstructions is zero.
const defaultMaxInstructions = 4_000_000_000

// stagedRun is the machine a run executes on — the only CPU of a serial
// run, the coordinator of a parallel one — with what was bound to it.
type stagedRun struct {
	cq     *Compiled
	params []int64
	snap   *catalog.Snapshot
	cpu    *vm.CPU
	pmu    *pmu.PMU // nil when unprofiled
	budget uint64
}

// stage is the prologue every run shares: validate the sampling
// configuration and the bound arguments against the artifact's parameter
// manifest, bind the storage snapshot into a zeroed heap of heapSize bytes
// (cq.mergeBase on the one-core path, cq.heapSize for a coordinator), load
// the program and arm the PMU.
func (x *executor) stage(cq *Compiled, rs *RunState, cfg *pmu.Config, heapSize int) (stagedRun, error) {
	r := stagedRun{cq: cq, budget: x.Opts.MaxInstructions}
	if r.budget == 0 {
		r.budget = defaultMaxInstructions
	}
	if cfg != nil {
		if err := cfg.Validate(); err != nil {
			return r, err
		}
	}
	if rs != nil {
		r.params = rs.Params
	}
	if want := len(cq.Plan.Params); len(r.params) != want {
		return r, fmt.Errorf("engine: plan expects %d bound parameters, run state supplies %d", want, len(r.params))
	}
	r.snap = cq.snapshotFor(rs)
	r.cpu = x.machine(heapSize)
	if err := stageSnapshot(cq, r.cpu, r.snap); err != nil {
		return r, err
	}
	r.cpu.Load(cq.Code.Program)
	r.pmu = attachPMU(r.cpu, cfg, 0)
	return r, nil
}

// attachPMU arms a core's private sample buffer, stamped with its worker
// ID (0 for a serial run and for the coordinator); nil cfg runs unprofiled.
func attachPMU(cpu *vm.CPU, cfg *pmu.Config, worker int) *pmu.PMU {
	if cfg == nil {
		return nil
	}
	c := *cfg
	c.Worker = worker
	p := pmu.New(c)
	p.Attach(cpu)
	return p
}

// restage writes a pass's mutable state: descriptors, cursors, bound
// parameters, and zeroed tuple counters.
func (r *stagedRun) restage() {
	for _, w := range r.cq.writes {
		r.cpu.WriteI64(w.addr, w.val)
	}
	lay := r.cq.Layout
	for i, v := range r.params {
		r.cpu.WriteI64(lay.ParamBase+int64(i)*8, v)
	}
	if lay.CounterBase != 0 {
		clear(r.cpu.Heap[lay.CounterBase : lay.CounterBase+counterSlots*8])
	}
}

// finish is the epilogue every run shares: it completes res — whose
// statistics, clocks and samples the caller has set — with the rows read
// back from the heap (host-side ORDER BY and LIMIT applied), the profile
// attributed from res.Samples, and the tuple counters.
func (r *stagedRun) finish(res *Result) *Result {
	cq := r.cq
	res.Cols, res.CPU, res.PMU, res.Epoch = cq.Plan.Out(), r.cpu, r.pmu, r.snap.Epoch
	res.Rows = readRows(cq, r.cpu)
	sortRows(res.Rows, cq.Plan)
	if cq.Plan.Limit >= 0 && len(res.Rows) > cq.Plan.Limit {
		res.Rows = res.Rows[:cq.Plan.Limit]
	}
	if r.pmu != nil {
		att := core.NewAttributor(cq.Pipe.Dict, cq.Code.NMap)
		res.Profile = core.BuildProfile(att, res.Samples)
		// Pruned zones enter the profile as explicit zero-cost skip
		// events, keeping attribution complete over every table row.
		res.Profile.Skips = res.Skips
	}
	if cq.Layout.CounterBase != 0 {
		res.TupleCounts = map[core.ComponentID]int64{}
		for _, task := range cq.Pipe.Registry.ByLevel(core.LevelTask) {
			if int64(task.ID) >= counterSlots {
				continue
			}
			if n := r.cpu.ReadI64(cq.Layout.CounterBase + int64(task.ID)*8); n != 0 {
				res.TupleCounts[task.ID] = n
			}
		}
		// Parallel runs fold worker counter deltas into the canonical heap
		// per phase (foldCounters), so the attributed per-operator truth is
		// worker-count invariant.
		res.PlanRows = cost.TrueRows(cq.Pipe, res.TupleCounts)
	}
	return res
}

// iterate runs the staged program n times on r's one machine and reads the
// last pass back.
func (r *stagedRun) iterate(n int) (*Result, error) {
	var stats vm.Stats
	var err error
	for it := 0; it < n; it++ {
		r.restage()
		if it > 0 {
			r.cpu.Restart()
		}
		stats, err = r.cpu.Run(r.budget)
		if err != nil {
			return nil, fmt.Errorf("engine: execution failed (iteration %d): %w", it, regionFull(r.cq, r.cpu, err))
		}
	}
	res := &Result{Stats: stats, WallCycles: stats.TotalCycles()}
	if r.pmu != nil {
		res.Samples = r.pmu.Samples()
	}
	return r.finish(res), nil
}

func readRows(cq *Compiled, cpu *vm.CPU) [][]int64 {
	cursor := cpu.ReadI64(cq.Layout.ResultDesc + codegen.AllocDescCursor)
	n := (cursor - cq.resultBase) / cq.rowBytes
	w := int(cq.rowBytes / 8)
	// One backing array for all rows; each row's capacity stops at its
	// end, so appending to a row never writes into the next.
	vals := make([]int64, int(n)*w)
	src := cpu.Heap[cq.resultBase : cq.resultBase+n*cq.rowBytes]
	for i := range vals {
		vals[i] = codegen.HeapI64(src, int64(8*i))
	}
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = vals[i*w : (i+1)*w : (i+1)*w]
	}
	return rows
}

// sortRows applies the plan's host-side ORDER BY (see DESIGN.md §6).
// Dictionary-encoded string columns sort by their decoded strings, so the
// SQL collation matches what a user expects rather than insertion order.
func sortRows(rows [][]int64, pl *plan.Output) {
	if len(pl.OrderBy) == 0 {
		return
	}
	metas := pl.Out()
	less := plan.RowLess(pl.OrderBy, pl.Desc, metas)
	slices.SortStableFunc(rows, func(a, b []int64) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		}
		return 0
	})
}

// FormatValue renders a result value using column metadata (decoding
// dictionary strings and dates).
func FormatValue(v int64, m plan.ColMeta) string {
	switch m.Type {
	case catalog.TDate:
		return catalog.FormatDate(v)
	case catalog.TStr:
		if m.Dict != nil {
			return m.Dict.String(v)
		}
	}
	return fmt.Sprintf("%d", v)
}
