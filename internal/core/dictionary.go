package core

import (
	"fmt"
	"slices"
	"strings"
)

// Dictionary is the Tagging Dictionary (§4.2.2): one log per lowering step,
// populated at compile time, consulted by the post-processing phase to map
// samples bottom-up.
//
// Log A links tasks to their dataflow-graph operators (lowering step 1).
// Log B links IR instructions to their tasks (lowering step 2); entries are
// multi-links because optimizations may fuse code from several tasks into
// one instruction (Table 1: instruction fusing, loop unrolling, CSE).
// The native → IR mapping of lowering step 3 is the backend's debug
// information (the paper uses DWARF there); it lives in NativeMap and is
// produced by internal/codegen.
//
// Both logs are tables: Log A is indexed by task component id, Log B by IR
// id, which the module hands out counting up from 1. Each IR id holds its
// first owner inline; the few with several owners keep their full list in
// an overflow, so TasksOf hands out a view either way.
type Dictionary struct {
	Registry *Registry

	// taskToOp is Log A: task component id → operator component, or
	// NoComponent for a task without an entry.
	taskToOp []ComponentID

	// Log B over the dense range of IR ids [0, len(owner)): owner[id] is
	// the instruction's first (nearly always only) owning task or
	// NoComponent; more[id] is 1 + the index in lists of its full owner
	// list once it has several, else 0. shared is a bitset marking IR
	// instructions that sit in shared code locations (§4.2.5): pre-compiled
	// routines called from several tasks, whose samples are disambiguated
	// via the tag register or call-stack.
	owner  []ComponentID
	more   []int32
	lists  [][]ComponentID
	shared []uint64

	// far holds Log B for the ids the dense range does not cover: negative
	// ids and ids far beyond it, which only hand-built dictionaries and
	// offline files carry. While far holds any, the dense range stays as it
	// is, so every id has exactly one home.
	far map[int]*farIR

	// journal is the append-only record of every lineage report. Log B
	// holds only the result of the reports, so it cannot answer "was this
	// Derived chain acyclic?" or "did a pass derive from an already-removed
	// ID?" after the fact; the verifier replays this instead. Every
	// event's Srcs is a capacity-capped window of srcs, so reporting an
	// event allocates only when that shared backing grows.
	journal []LineageEvent
	srcs    []int
}

// farIR is the Log B entry of an id outside the dense range.
type farIR struct {
	tasks  []ComponentID
	shared bool
}

// denseSlack is how far past twice the dense range an IR id may lie and
// still extend it rather than go to far. Compiled modules number their
// instructions from 1 with few gaps (the suite's largest Log B id is at
// most 1.25 times its entry count), so their ids always extend it.
const denseSlack = 64

// LineageKind discriminates journal entries.
type LineageKind uint8

const (
	LineageDerived LineageKind = iota
	LineageReplaced
	LineageRemoved
)

func (k LineageKind) String() string {
	switch k {
	case LineageDerived:
		return "derived"
	case LineageReplaced:
		return "replaced"
	default:
		return "removed"
	}
}

// LineageEvent is one optimizer lineage report: Derived(ID, Srcs...),
// Replaced(Srcs[0]→ID), or Removed(ID).
type LineageEvent struct {
	Kind LineageKind
	ID   int   // the new/surviving/removed instruction
	Srcs []int // derivation sources; for Replaced, the single replaced ID
}

// NewDictionary returns an empty dictionary over reg. The kernel
// pseudo-task is pre-linked to the kernel pseudo-operator so runtime
// driver code attributes into the Table 2 "kernel tasks" bucket.
func NewDictionary(reg *Registry) *Dictionary {
	d := &Dictionary{Registry: reg, taskToOp: make([]ComponentID, reg.Len()+1)}
	d.LinkTask(reg.KernelTask, reg.KernelOperator)
	return d
}

// Clone returns a copy of d over the same registry that can be extended —
// linked, journaled, optimized — without changing d, which other readers
// may use meanwhile. Every table the extension writes is copied; what it
// only appends to is capped, so an append moves it out of d's backing.
func (d *Dictionary) Clone() *Dictionary {
	c := &Dictionary{
		Registry: d.Registry,
		taskToOp: slices.Clone(d.taskToOp),
		owner:    slices.Clone(d.owner),
		more:     slices.Clone(d.more),
		lists:    make([][]ComponentID, len(d.lists)),
		shared:   slices.Clone(d.shared),
		journal:  slices.Clip(d.journal),
		srcs:     slices.Clip(d.srcs),
	}
	for i, l := range d.lists {
		c.lists[i] = slices.Clip(l)
	}
	if d.far != nil {
		c.far = make(map[int]*farIR, len(d.far))
		for id, e := range d.far {
			c.far[id] = &farIR{tasks: slices.Clip(e.tasks), shared: e.shared}
		}
	}
	return c
}

// LinkTask records a Log A entry: task belongs to operator. Called by the
// pipeline lowering when an operator registers a task (§5.2). Linking a
// task to NoComponent removes its entry.
func (d *Dictionary) LinkTask(task, operator ComponentID) {
	if _, ok := d.Registry.Lookup(task); !ok {
		bugf("Log A entry for unregistered task %d", task)
	}
	if n := int(task) + 1; n > len(d.taskToOp) {
		d.taskToOp = append(d.taskToOp, make([]ComponentID, n-len(d.taskToOp))...)
	}
	d.taskToOp[task] = operator
}

// OperatorOf resolves Log A; returns NoComponent when the task is unknown.
func (d *Dictionary) OperatorOf(task ComponentID) ComponentID {
	if task > 0 && int(task) < len(d.taskToOp) {
		return d.taskToOp[task]
	}
	return NoComponent
}

// dense reports whether irID's Log B entry lives in the dense range. With
// grow, an id up to twice the range plus denseSlack extends it, unless far
// holds entries.
func (d *Dictionary) dense(irID int, grow bool) bool {
	n := len(d.owner)
	if uint(irID) < uint(n) {
		return true
	}
	if !grow || irID < 0 || irID >= 2*n+denseSlack || len(d.far) > 0 {
		return false
	}
	d.resize(irID + 1)
	return true
}

// resize extends the dense range to n ids.
func (d *Dictionary) resize(n int) {
	d.owner = append(d.owner, make([]ComponentID, n-len(d.owner))...)
	d.more = append(d.more, make([]int32, n-len(d.more))...)
	if words := (n + 63) / 64; words > len(d.shared) {
		d.shared = append(d.shared, make([]uint64, words-len(d.shared))...)
	}
}

// farAt returns irID's far entry, creating it.
func (d *Dictionary) farAt(irID int) *farIR {
	e := d.far[irID]
	if e == nil {
		if d.far == nil {
			d.far = make(map[int]*farIR)
		}
		e = &farIR{}
		d.far[irID] = e
	}
	return e
}

// LinkIR records a Log B entry: IR instruction irID was generated by task.
// Called for every instruction the code generator creates while the task
// tracker is active.
func (d *Dictionary) LinkIR(irID int, task ComponentID) {
	if task == NoComponent {
		return
	}
	if !d.dense(irID, true) {
		e := d.farAt(irID)
		e.tasks = append(e.tasks, task)
		return
	}
	switch m := d.more[irID]; {
	case m > 0:
		d.lists[m-1] = append(d.lists[m-1], task)
	case d.owner[irID] == NoComponent:
		d.owner[irID] = task
	default:
		d.lists = append(d.lists, []ComponentID{d.owner[irID], task})
		d.more[irID] = int32(len(d.lists))
	}
}

// TasksOf resolves Log B: the task(s) owning an IR instruction, in link
// order. The list is a view of the dictionary; callers must not modify it.
func (d *Dictionary) TasksOf(irID int) []ComponentID {
	switch {
	case !d.dense(irID, false):
		if e := d.far[irID]; e != nil {
			return e.tasks
		}
		return nil
	case d.more[irID] > 0:
		return d.lists[d.more[irID]-1]
	case d.owner[irID] == NoComponent:
		return nil
	}
	return d.owner[irID : irID+1 : irID+1]
}

// MarkShared flags an IR instruction as belonging to a shared code
// location, so attribution must consult the tag register or call stack.
func (d *Dictionary) MarkShared(irID int) {
	if d.dense(irID, true) {
		d.shared[irID/64] |= 1 << (irID % 64)
	} else {
		d.farAt(irID).shared = true
	}
}

// IsShared reports whether irID lies in a shared code location.
func (d *Dictionary) IsShared(irID int) bool {
	if d.dense(irID, false) {
		return d.shared[irID/64]&(1<<(irID%64)) != 0
	}
	e := d.far[irID]
	return e != nil && e.shared
}

// eachIR calls fn for every IR id with an owner or a shared flag, in
// ascending id order.
func (d *Dictionary) eachIR(fn func(id int, tasks []ComponentID, shared bool)) {
	far := make([]int, 0, len(d.far))
	for id := range d.far {
		far = append(far, id)
	}
	slices.Sort(far)
	i := 0
	for ; i < len(far) && far[i] < 0; i++ {
		fn(far[i], d.far[far[i]].tasks, d.far[far[i]].shared)
	}
	for id := range d.owner {
		if tasks, shared := d.TasksOf(id), d.IsShared(id); len(tasks) > 0 || shared {
			fn(id, tasks, shared)
		}
	}
	for ; i < len(far); i++ { // every far id >= 0 lies above the dense range
		fn(far[i], d.far[far[i]].tasks, d.far[far[i]].shared)
	}
}

// IRIDs returns every IR instruction ID with a Log B entry, sorted.
// Introspection for the verification framework; the tables themselves stay
// unexported so all mutation flows through the journaled methods.
func (d *Dictionary) IRIDs() []int {
	var ids []int
	d.eachIR(func(id int, tasks []ComponentID, _ bool) {
		if len(tasks) > 0 {
			ids = append(ids, id)
		}
	})
	return ids
}

// SharedIRIDs returns every IR ID marked shared, sorted.
func (d *Dictionary) SharedIRIDs() []int {
	var ids []int
	d.eachIR(func(id int, _ []ComponentID, shared bool) {
		if shared {
			ids = append(ids, id)
		}
	})
	return ids
}

// Tasks returns every task with a Log A entry, sorted.
func (d *Dictionary) Tasks() []ComponentID {
	var ts []ComponentID
	for t, op := range d.taskToOp {
		if op != NoComponent {
			ts = append(ts, ComponentID(t))
		}
	}
	return ts
}

// Journal returns the lineage event log in report order. The returned
// slice is the live backing array; callers must not mutate it.
func (d *Dictionary) Journal() []LineageEvent { return d.journal }

// Entries returns the number of Log B links (for the storage-cost
// experiment, §6.2: one triple per IR instruction).
func (d *Dictionary) Entries() int {
	n := len(d.Tasks())
	d.eachIR(func(_ int, tasks []ComponentID, _ bool) { n += len(tasks) })
	return n
}

// StorageBytes estimates the dictionary's serialized size using the paper's
// accounting: 24 bytes per (operator, task, IR source line) triple.
func (d *Dictionary) StorageBytes() int {
	n := 0
	d.eachIR(func(_ int, tasks []ComponentID, _ bool) { n += len(tasks) * 24 })
	return n
}

// Dump renders the dictionary logs for debugging and documentation,
// mirroring Fig. 5's "Log A" / "Log B" presentation.
func (d *Dictionary) Dump() string {
	var sb strings.Builder
	sb.WriteString("Log A: Task -> Operator\n")
	for _, task := range d.Tasks() {
		fmt.Fprintf(&sb, "  %-28s => %s\n", d.Registry.Name(task), d.Registry.Name(d.taskToOp[task]))
	}
	sb.WriteString("Log B: IR Instruction -> Task\n")
	d.eachIR(func(id int, tasks []ComponentID, shared bool) {
		if len(tasks) == 0 {
			return
		}
		names := make([]string, 0, len(tasks))
		for _, t := range tasks {
			names = append(names, d.Registry.Name(t))
		}
		mark := ""
		if shared {
			mark = " (shared)"
		}
		fmt.Fprintf(&sb, "  %%%-6d => %s%s\n", id, strings.Join(names, ", "), mark)
	})
	return sb.String()
}

// --- Lineage: the interface optimization passes use to keep Log B correct ---

// Lineage is implemented by the Dictionary so optimization passes
// (internal/iropt) can report transformations without importing core types
// beyond this interface (Table 1's supported optimizations).
type Lineage interface {
	// Derived records that a new IR instruction inherits the links of the
	// source instructions (instruction fusing, loop unrolling: the new
	// instruction belongs to all original owners).
	Derived(newID int, srcIDs ...int)
	// Replaced records that all uses of oldID now flow through newID
	// (CSE: the surviving instruction also represents the eliminated
	// one's tasks — shared source location semantics, §4.2.7).
	Replaced(oldID, newID int)
	// Removed records that an instruction was eliminated (DCE, constant
	// folding): its links can be dropped; eliminated code never appears
	// in samples.
	Removed(id int)
}

var _ Lineage = (*Dictionary)(nil)

// Derived implements Lineage.
func (d *Dictionary) Derived(newID int, srcIDs ...int) {
	d.record(LineageDerived, newID, srcIDs...)
	d.derive(newID, srcIDs...)
}

// record appends one event to the journal, its sources copied into srcs.
func (d *Dictionary) record(kind LineageKind, id int, srcIDs ...int) {
	lo := len(d.srcs)
	d.srcs = append(d.srcs, srcIDs...)
	d.journal = append(d.journal, LineageEvent{Kind: kind, ID: id, Srcs: d.srcs[lo:len(d.srcs):len(d.srcs)]})
}

// derive merges the sources' owners into newID, each owner once, without
// journaling, so Replaced can reuse it and still record a single composite
// event.
func (d *Dictionary) derive(newID int, srcIDs ...int) {
	for _, src := range srcIDs {
		for _, t := range d.TasksOf(src) {
			if !slices.Contains(d.TasksOf(newID), t) {
				d.LinkIR(newID, t)
			}
		}
		if d.IsShared(src) {
			d.MarkShared(newID)
		}
	}
}

// Replaced implements Lineage: the survivor inherits the eliminated
// instruction's owners (multi-link), and if the owners differ the survivor
// becomes a shared location.
func (d *Dictionary) Replaced(oldID, newID int) {
	d.record(LineageReplaced, newID, oldID)
	before := len(d.TasksOf(newID))
	d.derive(newID, oldID)
	if len(d.TasksOf(newID)) > before {
		// The surviving instruction now serves more than one task: it is
		// a shared source location, disambiguated at attribution time.
		d.MarkShared(newID)
	}
	d.remove(oldID)
}

// Removed implements Lineage.
func (d *Dictionary) Removed(id int) {
	d.record(LineageRemoved, id)
	d.remove(id)
}

func (d *Dictionary) remove(id int) {
	if d.dense(id, false) {
		d.owner[id], d.more[id] = NoComponent, 0
		d.shared[id/64] &^= 1 << (id % 64)
	} else {
		delete(d.far, id)
	}
}
