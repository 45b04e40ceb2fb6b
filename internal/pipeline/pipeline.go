// Package pipeline performs the first two lowering steps of the paper's
// compilation stack (Fig. 8, §5.1–§5.2):
//
//  1. the dataflow graph (plan.Node tree) is split at its materialization
//     points into pipelines of tasks, registering every task with its
//     operator in the Tagging Dictionary's Log A;
//  2. each pipeline is compiled into a tight loop of IR using the
//     produce/consume model with full operator fusion, registering every
//     created IR instruction with the active task in Log B via the
//     Abstraction Trackers.
//
// Shared code locations (the pre-compiled ht_insert routine) are wrapped
// in Register Tagging exactly as Listing 2 of the paper shows: save the
// tag register, store the active task's tag, call, restore.
package pipeline

import (
	"fmt"
	"reflect"
	"strconv"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/plan"
)

// Options configures the lowering.
type Options struct {
	// RegisterTagging wraps shared-code calls with tag writes (§4.2.5).
	RegisterTagging bool
	// TagEverything additionally tags every generated code section, the
	// validation mode of §6.3 ("applying the tagging not only for shared
	// code locations but also for all instructions in generated code").
	// Requires RegisterTagging. Compile only marks the module
	// (ir.Module.TagEverything); iropt.Optimize places the tag writes
	// after its last pass, so moved code runs under its own task's tag.
	TagEverything bool
	// EagerColumnLoads makes scans load their columns at the top of the
	// tuple loop, so column accesses are attributed to the tablescan
	// operator. The default is lazy loading at first use (the consumer
	// owns the load, as in the paper's Listing 1); the eager mode
	// reproduces Fig. 12's per-scan linear memory access bands.
	EagerColumnLoads bool
	// TupleCounters instruments every task with an output-row counter —
	// the EXPLAIN ANALYZE instrumentation the paper's §6.1 compares
	// Tailored Profiling against ("the tuple count is a decent
	// approximation, [but] our sampling approach captures the actual
	// time spent in each operator"). Counters add load/add/store per
	// emitted row, so the engine disables them unless asked.
	TupleCounters bool
}

// ColKey identifies one scanned column: a scan alias plus the table
// column index.
type ColKey struct {
	Alias string
	Col   int
}

// ColRegion is where one scanned column lives: the region's address and
// the bytes per value it stores (catalog.Table.ColWidth: 1, 2, 4 or 8). The
// scan loop loads row i from Addr + i×Width, at that width.
type ColRegion struct {
	Addr, Width int64
}

// HTLayout is the memory layout of one hash table (join build, group-by,
// or group-join state), prepared by the engine before compilation.
type HTLayout struct {
	Desc      int64 // descriptor block (codegen.HTDesc* offsets)
	Dir       int64 // directory base
	DirSlots  int64 // power-of-two slot count
	Arena     int64 // entry arena base
	ArenaEnd  int64
	EntrySize int64

	// Partitioned-merge regions (DESIGN.md §11). The engine's layouts
	// always have Partitions >= 1; Partitions == 0 — a layout built by
	// hand, as this package's tests do — generates no merge kernels.
	// Otherwise Partitions is a power of two <= DirSlots and partition p
	// owns the directory slot range [p<<SlotShift, (p+1)<<SlotShift) — the
	// top bits of the slot index (equivalently, bits [SlotShift,
	// log2(DirSlots)) of the entry hash), so partitions tile the directory
	// disjointly.
	Partitions int64
	SlotShift  int64 // log2(DirSlots / Partitions)
	MergeCap   int64 // bytes of each entry-sized merge region: StagedBound entries (+16)
	ScatterOut int64 // radix-scattered copy of one morsel's segment (MergeCap bytes)
	MergeCnt   int64 // Partitions slots: per-partition histogram counts
	MergeCur   int64 // Partitions slots: scatter write cursors
	MergeSrc   int64 // staged merge-kernel input (MergeCap bytes)
	MergeVec   int64 // per-entry side vector: dst addresses / global seqs / place script
	MergeOut   int64 // group-by only: per-partition deduped group output (MergeCap bytes)
	MergeSeq   int64 // group-by only: per-group first-occurrence seq vector
	MergeParam int64 // merge-kernel parameter block (MergeParamSlots slots)
}

// Merge-kernel parameter block slots (offsets from HTLayout.MergeParam).
// The host stages a partition's work into these before calling a merge
// kernel on a worker CPU; the upsert kernel writes its output cursor back
// through MPOut.
const (
	MPSrc  = 0  // staged input base (insert/upsert) or place script base
	MPEnd  = 8  // staged input end / script end
	MPVec  = 16 // side-vector base (dst addresses or global seqs)
	MPPart = 24 // partition index
	MPOut  = 32 // upsert: group output cursor (kernel-updated)
	MPSeq  = 40 // upsert: first-occurrence seq output base

	// MergeParamSlots is the parameter block size in 8-byte slots.
	MergeParamSlots = 6
)

// Layout is the heap layout the engine prepared: where the state area,
// table columns, hash tables and the result buffer live.
type Layout struct {
	StateBase int64
	// Cols holds each scanned column's region. Regions are sized by
	// frozen capacity and width, so the address is a layout constant the
	// scan loop addresses directly; only row counts are state slots.
	Cols      map[ColKey]ColRegion
	RowsSlots map[string]int
	HT        map[plan.Node]*HTLayout

	ResultDesc int64 // bumpalloc descriptor for result rows

	// MorselBase is the morsel-bound region: per pipeline, a [start, end)
	// pair of 64-bit slots that the pipeline's tuple loop reads as its
	// iteration bounds (row indices for table scans, arena addresses for
	// hash-table scans). The serial driver stages the full range itself;
	// the morsel scheduler writes one morsel at a time from the host.
	MorselBase int64

	// CounterBase is the tuple-counter region (one 8-byte slot per task
	// component ID, indexed directly by the ID); 0 disables counters.
	CounterBase int64

	// ParamBase is the bound-parameter region (one 8-byte slot per
	// parameter, indexed by $N); 0 when the plan has no parameters. The
	// executor stages encoded argument values here before each run, so a
	// cached artifact serves any literal binding.
	ParamBase int64
}

// MorselSlotBytes is the size of one pipeline's morsel-bound pair.
const MorselSlotBytes = 16

// MorselStart returns the heap address of a pipeline's morsel lower bound.
func (l *Layout) MorselStart(pipe int) int64 { return l.MorselBase + int64(pipe)*MorselSlotBytes }

// MorselEnd returns the heap address of a pipeline's morsel upper bound.
func (l *Layout) MorselEnd(pipe int) int64 { return l.MorselStart(pipe) + 8 }

// PipeCount returns how many pipelines lowering will create for a plan —
// one per base-table scan plus one output pipeline per group-by and
// group-join — so the engine can size the morsel-bound region before
// Compile runs. Must mirror pass1's pipe creation.
func PipeCount(root plan.Node) int {
	n := 0
	plan.Walk(root, func(x plan.Node) {
		switch x.(type) {
		case *plan.Scan, *plan.GroupBy, *plan.GroupJoin:
			n++
		}
	})
	return n
}

// DriverKind classifies what feeds a pipeline's tuple loop.
type DriverKind int

const (
	// DriverScan is a base-table scan: morsels are tuple-index ranges.
	DriverScan DriverKind = iota
	// DriverArena is a hash-table arena scan: morsels are entry ranges.
	DriverArena
)

// DriverInfo describes a pipeline's input domain so the morsel scheduler
// can partition it without re-deriving the plan.
type DriverInfo struct {
	Kind  DriverKind
	Alias string    // DriverScan: the scan alias
	Rows  int       // DriverScan: table cardinality
	HT    *HTLayout // DriverArena: the scanned hash table
}

// SinkKind classifies where a pipeline's tuples end up. The parallel
// scheduler uses it to know how to merge per-morsel partitions back into
// the canonical heap at the pipeline barrier.
type SinkKind int

const (
	// SinkOutput appends rows to the result buffer.
	SinkOutput SinkKind = iota
	// SinkJoinBuild appends entries to a join hash table.
	SinkJoinBuild
	// SinkGroupAgg upserts group entries with aggregate state.
	SinkGroupAgg
	// SinkGJBuild appends zero-initialized group-join entries.
	SinkGJBuild
	// SinkGJProbe updates group-join entries in place (no appends).
	SinkGJProbe
)

// SinkInfo describes a pipeline's terminal materialization: which hash
// table (if any) it writes and the entry layout the merge needs — key
// slots for group lookup and the aggregate state slots (a group join's
// include its match count). All offsets are relative to the entry base.
type SinkInfo struct {
	Kind SinkKind
	HT   *HTLayout // nil for SinkOutput

	NKeys  int
	KeyOff int64
	Slots  []StateSlot // group-by and group-join sinks: the state slots
}

// MergeInfo describes a sink pipeline's merge kernels (nil when the sink
// is not partitioned): Compile registers their tasks, Kernels generates
// their functions. ScatterFunc runs per morsel on the worker that produced
// the segment; MergeFunc runs once per partition, fanned out across the
// workers; PlaceFunc (group-by sinks only) runs once per partition too,
// laying groups out in global first-occurrence order.
type MergeInfo struct {
	Partitions  int64
	ScatterFunc string
	MergeFunc   string
	PlaceFunc   string // "" except for SinkGroupAgg
	ScatterTask core.ComponentID
	MergeTask   core.ComponentID
	PlaceTask   core.ComponentID // NoComponent except for SinkGroupAgg
}

// PipelineInfo describes one generated pipeline.
type PipelineInfo struct {
	Index  int
	Name   string
	Func   string
	Tasks  []core.ComponentID
	Driver DriverInfo
	Sink   SinkInfo
	Merge  *MergeInfo // nil unless the sink merge is partitioned
}

// Compiled is the result of lowering a plan.
type Compiled struct {
	Module    *ir.Module
	Registry  *core.Registry
	Dict      *core.Dictionary
	Pipelines []PipelineInfo

	// OpIDs maps plan nodes to their operator components; filter
	// operators of scans appear under FilterOpIDs.
	OpIDs       map[plan.Node]core.ComponentID
	FilterOpIDs map[plan.Node]core.ComponentID

	OutputCols []plan.ColMeta

	kernels []kernelSpec // the partitioned sinks, in pipeline order
}

// task roles within a pipeline.
type role string

const (
	roleScan   role = "scan"
	roleFilter role = "filter"
	roleBuild  role = "build"
	roleProbe  role = "probe"
	roleAgg    role = "aggregate"
	roleHTScan role = "htscan"
	roleOutput role = "output"
	roleGJJoin role = "gj-join"
	roleGJAgg  role = "gj-agg"

	// Merge-kernel roles: the partition-merge tasks of DESIGN.md §11.
	roleMergeScatter role = "merge-scatter"
	roleMergeInsert  role = "merge-insert"
	roleMergeUpsert  role = "merge-upsert"
	roleMergePlace   role = "merge-place"
)

// MergeRole reports whether a task kind (as registered in the component
// registry) names a partitioned-merge kernel task.
func MergeRole(kind string) bool {
	switch role(kind) {
	case roleMergeScatter, roleMergeInsert, roleMergeUpsert, roleMergePlace:
		return true
	}
	return false
}

type taskKey struct {
	node plan.Node
	role role
}

type pipe struct {
	index  int
	name   string
	driver plan.Node // *plan.Scan, *plan.GroupBy, or *plan.GroupJoin
	tasks  []core.ComponentID

	// Terminal materialization, set by pass1 at the point the pipeline's
	// stream is consumed (build/aggregate/output).
	sinkNode plan.Node
	sinkKind SinkKind

	// state is the aggregate state layout of the group-by or group join
	// whose hash table drives the pipeline (set by pass1).
	state []StateSlot
}

// Compiler lowers one plan.
type Compiler struct {
	opts Options
	lay  *Layout

	reg  *core.Registry
	dict *core.Dictionary

	opTracker   *core.Tracker
	taskTracker *core.Tracker

	module *ir.Module
	b      *ir.Builder

	parent  map[plan.Node]plan.Node
	ops     map[plan.Node]core.ComponentID
	filts   map[plan.Node]core.ComponentID
	tasks   map[taskKey]core.ComponentID
	pipes   []*pipe
	htOrder []plan.Node // materializing nodes in build order (for memsets)
	kernels []kernelSpec

	skipBlock *ir.Block // current "abandon tuple" target
}

// Compile lowers the plan rooted at out.
func Compile(out *plan.Output, lay *Layout, opts Options) (*Compiled, error) {
	if opts.TagEverything && !opts.RegisterTagging {
		return nil, fmt.Errorf("pipeline: TagEverything requires RegisterTagging")
	}
	reg := core.NewRegistry()
	c := &Compiler{
		opts:        opts,
		lay:         lay,
		reg:         reg,
		dict:        core.NewDictionary(reg),
		opTracker:   core.NewTracker(core.LevelOperator),
		taskTracker: core.NewTracker(core.LevelTask),
		module:      ir.NewModule(),
		parent:      map[plan.Node]plan.Node{},
		ops:         map[plan.Node]core.ComponentID{},
		filts:       map[plan.Node]core.ComponentID{},
		tasks:       map[taskKey]core.ComponentID{},
	}
	c.linkParents(out, nil)
	c.registerOperators(out)

	// Lowering step 1: split into pipelines of tasks (Log A).
	last := c.pass1(out)
	_ = last

	// Lowering step 2: generate IR per pipeline (Log B).
	for _, p := range c.pipes {
		if err := c.genPipeline(p); err != nil {
			return nil, err
		}
	}
	// Merge tasks for partitioned sinks: first-class tasks, registered
	// here and lowered through the same IR path by Kernels, so merge
	// cycles are profiled code.
	merges := map[*pipe]*MergeInfo{}
	for _, p := range c.pipes {
		if mi := c.registerMerge(p); mi != nil {
			merges[p] = mi
		}
	}
	c.genMain()

	if err := c.module.Verify(); err != nil {
		return nil, fmt.Errorf("pipeline: generated invalid IR: %w", err)
	}
	// The tag writes are placed after optimization, where the code
	// stays (iropt.Optimize).
	c.module.TagEverything = opts.TagEverything

	cd := &Compiled{
		Module:      c.module,
		Registry:    c.reg,
		Dict:        c.dict,
		OpIDs:       c.ops,
		FilterOpIDs: c.filts,
		OutputCols:  out.Out(),
		kernels:     c.kernels,
	}
	for _, p := range c.pipes {
		cd.Pipelines = append(cd.Pipelines, PipelineInfo{
			Index: p.index, Name: p.name, Func: funcName(p.index), Tasks: p.tasks,
			Driver: c.driverInfo(p), Sink: c.sinkInfo(p), Merge: merges[p],
		})
	}
	return cd, nil
}

// driverInfo describes a pipe's input domain for the morsel scheduler.
func (c *Compiler) driverInfo(p *pipe) DriverInfo {
	switch d := p.driver.(type) {
	case *plan.Scan:
		return DriverInfo{Kind: DriverScan, Alias: d.Alias, Rows: d.Table.Rows()}
	default:
		return DriverInfo{Kind: DriverArena, HT: c.lay.HT[p.driver]}
	}
}

// sinkInfo describes a pipe's terminal materialization for the merge.
func (c *Compiler) sinkInfo(p *pipe) SinkInfo {
	si := SinkInfo{Kind: p.sinkKind}
	switch n := p.sinkNode.(type) {
	case *plan.Join:
		si.HT = c.lay.HT[n]
		si.NKeys, si.KeyOff = 1, entryKeyOff
	case *plan.GroupBy:
		si.HT = c.lay.HT[n]
		si.NKeys, si.KeyOff = len(n.Keys), entryKeyOff
		si.Slots = c.state(n)
	case *plan.GroupJoin:
		si.HT = c.lay.HT[n]
		si.NKeys, si.KeyOff = 1, entryKeyOff
		si.Slots = c.state(n)
	}
	return si
}

// state returns the aggregate state layout of a group-by or group join,
// laid out once per compile by pass1 on the pipeline its table drives.
func (c *Compiler) state(n plan.Node) []StateSlot {
	for _, p := range c.pipes {
		if p.driver == n {
			return p.state
		}
	}
	bug("no aggregate state for " + n.Describe())
	return nil
}

func funcName(i int) string { return "pipeline" + strconv.Itoa(i) }

func (c *Compiler) linkParents(n plan.Node, parent plan.Node) {
	if parent != nil {
		c.parent[n] = parent
	}
	for _, ch := range n.Children() {
		c.linkParents(ch, n)
	}
}

// registerOperators registers one component per dataflow-graph operator
// (plus a separate σ component for a scan's pushed-down filter, so
// operator-level reports match the paper's plans, Fig. 9b).
func (c *Compiler) registerOperators(root plan.Node) {
	plan.Walk(root, func(n plan.Node) {
		name := operatorName(n)
		c.ops[n] = c.reg.Add(core.LevelOperator, name, n.Kind(), -1, core.NoComponent)
		if s, ok := n.(*plan.Scan); ok && s.Filter != nil {
			c.filts[n] = c.reg.Add(core.LevelOperator, "σ("+s.Alias+")", "filter", -1, core.NoComponent)
		}
	})
}

func operatorName(n plan.Node) string {
	switch x := n.(type) {
	case *plan.Scan:
		return "tablescan " + x.Alias
	case *plan.Join:
		if x.Label != "" {
			return x.Label
		}
		return "hash join"
	case *plan.GroupBy:
		return "group by"
	case *plan.GroupJoin:
		return "groupjoin"
	case *plan.Output:
		return "output"
	}
	return n.Kind()
}

// newPipe starts a pipeline driven by n.
func (c *Compiler) newPipe(n plan.Node, name string) *pipe {
	p := &pipe{index: len(c.pipes), name: name, driver: n}
	c.pipes = append(c.pipes, p)
	return p
}

// registerTask adds a task component for (n, role) to pipeline p and links
// it to its operator in Log A — the paper's "when registering a task,
// Tailored Profiling checks the active operator with the Abstraction
// Tracker and adds a link" (§5.2). op overrides the owning operator for
// filter tasks.
func (c *Compiler) registerTask(p *pipe, n plan.Node, r role, opID core.ComponentID) core.ComponentID {
	c.opTracker.Push(opID)
	name := string(r) + "(" + operatorName(n) + ")"
	id := c.reg.Add(core.LevelTask, name, string(r), p.index, c.opTracker.Active())
	c.dict.LinkTask(id, c.opTracker.Active())
	c.opTracker.Pop()
	c.tasks[taskKey{n, r}] = id
	p.tasks = append(p.tasks, id)
	return id
}

// pass1 is lowering step 1: it walks the dataflow graph, splitting it at
// materialization points, and returns the pipeline producing n's stream.
// Pipeline creation order is execution order (builds before probes).
func (c *Compiler) pass1(n plan.Node) *pipe {
	switch x := n.(type) {
	case *plan.Scan:
		p := c.newPipe(x, "scan "+x.Alias)
		c.registerTask(p, x, roleScan, c.ops[x])
		if x.Filter != nil {
			c.registerTask(p, x, roleFilter, c.filts[x])
		}
		return p

	case *plan.Join:
		pb := c.pass1(x.Build)
		c.registerTask(pb, x, roleBuild, c.ops[x])
		pb.sinkNode, pb.sinkKind = x, SinkJoinBuild
		c.htOrder = append(c.htOrder, x)
		pp := c.pass1(x.Probe)
		c.registerTask(pp, x, roleProbe, c.ops[x])
		return pp

	case *plan.GroupBy:
		pi := c.pass1(x.Input)
		c.registerTask(pi, x, roleAgg, c.ops[x])
		pi.sinkNode, pi.sinkKind = x, SinkGroupAgg
		c.htOrder = append(c.htOrder, x)
		po := c.newPipe(x, "scan group-by")
		po.state = newStateSlots(x.Aggs, entryKeyOff+8*int64(len(x.Keys)), false)
		c.registerTask(po, x, roleHTScan, c.ops[x])
		return po

	case *plan.GroupJoin:
		pb := c.pass1(x.Build)
		c.registerTask(pb, x, roleBuild, c.ops[x])
		pb.sinkNode, pb.sinkKind = x, SinkGJBuild
		c.htOrder = append(c.htOrder, x)
		pp := c.pass1(x.Probe)
		c.registerTask(pp, x, roleGJJoin, c.ops[x])
		c.registerTask(pp, x, roleGJAgg, c.ops[x])
		pp.sinkNode, pp.sinkKind = x, SinkGJProbe
		po := c.newPipe(x, "scan groupjoin")
		po.state = newStateSlots(x.Aggs, entryValOff, true)
		c.registerTask(po, x, roleHTScan, c.ops[x])
		return po

	case *plan.Output:
		p := c.pass1(x.Input)
		c.registerTask(p, x, roleOutput, c.ops[x])
		p.sinkNode, p.sinkKind = x, SinkOutput
		return p
	}
	bug("unknown node " + reflect.TypeOf(n).String())
	return nil
}

// withTask runs body with the operator and task trackers pointing at
// (opID, taskID); all IR created inside is linked to the task via the
// builder's OnCreate hook (Log B).
func (c *Compiler) withTask(opID, taskID core.ComponentID, body func()) {
	c.opTracker.Push(opID)
	c.taskTracker.Push(taskID)
	body()
	c.taskTracker.Pop()
	c.opTracker.Pop()
}

func (c *Compiler) task(n plan.Node, r role) core.ComponentID {
	id, ok := c.tasks[taskKey{n, r}]
	if !ok {
		bug("missing task " + string(r) + " for " + n.Describe())
	}
	return id
}
