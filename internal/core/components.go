// Package core implements Tailored Profiling, the paper's contribution:
// abstraction-level components, Abstraction Trackers, the Tagging
// Dictionary populated during lowering, Register Tagging support, and the
// post-processing that maps PMU samples bottom-up to any abstraction level
// and renders profiles at the granularity a developer works at (§4 of the
// paper).
package core

import "fmt"

// Level identifies an abstraction level of the dataflow system's lowering
// stack (Fig. 8 of the paper).
type Level uint8

const (
	// LevelOperator is the dataflow graph: relational operators.
	LevelOperator Level = iota
	// LevelTask is the pipelines-of-tasks level produced by lowering step 1.
	LevelTask
	// LevelIR is the machine IR produced by lowering step 2.
	LevelIR
	// LevelNative is machine instructions produced by lowering step 3.
	LevelNative
)

func (l Level) String() string {
	switch l {
	case LevelOperator:
		return "operator"
	case LevelTask:
		return "task"
	case LevelIR:
		return "ir"
	case LevelNative:
		return "native"
	}
	return fmt.Sprintf("level(%d)", uint8(l))
}

// Diag is the one diagnostic every checker reports — the IR verifier, the
// artifact gate and the analyzers under internal/verify, the state replay
// checkers, the source linter and the cost checks: which check fired,
// which abstraction level the offending artifact lives on, and a locus
// precise enough to find it (an IR ID, a native instruction index, a task
// component, or a file:line). Every diagnostic is a broken invariant:
// there is no lesser kind, so no caller can drop one by filtering.
type Diag struct {
	Check string // "checker/rule", e.g. "dict/orphan-instr"
	Level Level  // abstraction level of the offending artifact
	Locus string // e.g. "%42", "native@137", "task 7", "a.go:12"
	Msg   string
}

// Diagf builds a Diag whose message is formatted from format and args.
func Diagf(check string, level Level, locus, format string, args ...any) Diag {
	return Diag{Check: check, Level: level, Locus: locus, Msg: fmt.Sprintf(format, args...)}
}

func (d Diag) String() string {
	return fmt.Sprintf("%s: [%s] %s: %s", d.Check, d.Level, d.Locus, d.Msg)
}

// ComponentID identifies a component within the Registry. 0 is "none".
type ComponentID int32

// NoComponent is the zero ComponentID.
const NoComponent ComponentID = 0

// Component is a named entity at some abstraction level: a relational
// operator of the dataflow graph, or a task of a pipeline. (IR instructions
// and native instructions are identified by their own ID spaces and do not
// need registry entries.)
type Component struct {
	ID    ComponentID
	Level Level
	Name  string // e.g. "hash join #3", "probe(join #3)"
	Kind  string // e.g. "tablescan", "hash join", "group by", "build", "probe", "kernel"

	// Pipeline is the pipeline index a task belongs to (-1 for operators).
	Pipeline int

	// Parent is a structural hint: a task's operator, an operator's plan
	// parent. Attribution uses the Tagging Dictionary, not this field;
	// it exists for report rendering (plan trees).
	Parent ComponentID
}

// Registry allocates and stores components for one compiled query.
// It always contains the two pseudo-components the attribution buckets of
// Table 2 need: the "kernel" operator/task pair (memory management code)
// — samples in untagged system libraries deliberately resolve to nothing.
type Registry struct {
	comps []Component

	// KernelOperator and KernelTask absorb runtime-system work such as
	// clearing hash-table directories, matching the paper's "Kernel Tasks"
	// attribution bucket.
	KernelOperator ComponentID
	KernelTask     ComponentID
}

// NewRegistry returns a registry pre-populated with the kernel components.
func NewRegistry() *Registry {
	r := &Registry{}
	r.KernelOperator = r.Add(LevelOperator, "kernel", "kernel", -1, NoComponent)
	r.KernelTask = r.Add(LevelTask, "kernel", "kernel", -1, r.KernelOperator)
	return r
}

// Add registers a component and returns its ID.
func (r *Registry) Add(level Level, name, kind string, pipeline int, parent ComponentID) ComponentID {
	id := ComponentID(len(r.comps) + 1)
	r.comps = append(r.comps, Component{
		ID: id, Level: level, Name: name, Kind: kind, Pipeline: pipeline, Parent: parent,
	})
	return id
}

// Get returns the component for id; it panics on an invalid ID.
func (r *Registry) Get(id ComponentID) *Component {
	if id <= 0 || int(id) > len(r.comps) {
		bugf("invalid component id %d", id)
	}
	return &r.comps[id-1]
}

// Lookup returns the component for id without panicking, for callers —
// like the verification suite — that must report an invalid ID rather
// than crash on it.
func (r *Registry) Lookup(id ComponentID) (*Component, bool) {
	if id <= 0 || int(id) > len(r.comps) {
		return nil, false
	}
	return &r.comps[id-1], true
}

// Name returns the component name, or "<none>" for NoComponent.
func (r *Registry) Name(id ComponentID) string {
	if id == NoComponent {
		return "<none>"
	}
	return r.Get(id).Name
}

// Len returns the number of registered components.
func (r *Registry) Len() int { return len(r.comps) }

// ByLevel returns all components of a level in registration order.
func (r *Registry) ByLevel(level Level) []*Component {
	var out []*Component
	for i := range r.comps {
		if r.comps[i].Level == level {
			out = append(out, &r.comps[i])
		}
	}
	return out
}

// Tracker is an Abstraction Tracker (§4.2.4): a stack holding the currently
// lowered component of one level. The compilation engine pushes on entry to
// produce/consume (operator tracker) or on task trigger (task tracker) and
// pops on exit; Active returns the top.
type Tracker struct {
	level Level
	stack []ComponentID
}

// NewTracker returns a tracker for the given level.
func NewTracker(level Level) *Tracker { return &Tracker{level: level} }

// Push makes id the active component.
func (t *Tracker) Push(id ComponentID) { t.stack = append(t.stack, id) }

// Pop removes the active component; it panics if the tracker is empty,
// which indicates unbalanced produce/consume bookkeeping.
func (t *Tracker) Pop() {
	if len(t.stack) == 0 {
		bugf("tracker %s underflow", t.level)
	}
	t.stack = t.stack[:len(t.stack)-1]
}

// Active returns the currently lowered component, or NoComponent.
func (t *Tracker) Active() ComponentID {
	if len(t.stack) == 0 {
		return NoComponent
	}
	return t.stack[len(t.stack)-1]
}

// Depth returns the tracker stack depth (for tests).
func (t *Tracker) Depth() int { return len(t.stack) }
