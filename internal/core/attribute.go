package core

import (
	"cmp"
	"slices"
)

// Class buckets a sample the way Table 2 of the paper reports attribution.
type Class uint8

const (
	// ClassOperator means the sample mapped to dataflow-graph operators.
	ClassOperator Class = iota
	// ClassKernel means the sample landed in runtime-system code.
	ClassKernel
	// ClassUnattributed means no mapping exists (untagged libraries).
	ClassUnattributed
)

// Credit assigns a fraction of one sample to a task and its operator.
// Multi-links (fused or CSE'd code) split a sample across several credits.
type Credit struct {
	Task     ComponentID
	Operator ComponentID
	Weight   float64
}

// IRCredit assigns a fraction of one sample to an IR instruction.
type IRCredit struct {
	IRID   int
	Weight float64
}

// Attribution is the result of mapping one sample bottom-up (§4.2.6).
// Credits is a window of the Attributor's table, shared by every sample on
// the same instruction: do not modify it.
type Attribution struct {
	Class     Class
	Credits   []Credit
	IRCredits []IRCredit
	Routine   string // for shared/kernel/library regions
}

// Attributor maps samples to abstraction levels using the Tagging
// Dictionary (Logs A and B) and the backend debug info (NativeMap). It is
// the post-processing phase of Fig. 4/5: native IP → (debug info) → IR
// instruction(s) → (Log B) → task(s) → (Log A) → operator(s). For almost
// every native instruction that walk has one answer whatever the sample,
// so NewAttributor performs it once per instruction and keeps the answers
// as windows of one pooled credit array; only shared code and CSE'd
// instructions, whose owner the sample names, repeat it, once per (IP,
// active task) a profile meets (DESIGN.md §4, "The attribution table"). The
// Attributor is immutable once built, and the Dictionary and NativeMap must
// not change while it is in use.
type Attributor struct {
	Dict *Dictionary
	NMap *NativeMap

	table []ipEntry
	// credits[t] is the one-credit list of registered task t, credits[0]
	// the kernel credit; lists of several credits follow.
	credits []Credit
	// IR ids lie in [irLo, irLo+irSpan). Compiled modules number their IR
	// densely, so BuildProfile accumulates IR weights in an array of
	// irSpan sums; ids too sparse for that (a file may name any) leave
	// irSpan zero and go through the map.
	irLo, irSpan int
	// walks counts the instructions whose samples decide their own list
	// (shared routines and CSE'd code); walkCredits sums the bounds of
	// their lists. BuildProfile sizes its walk memo by them.
	walks, walkCredits int
}

// ipEntry is one native instruction's precomputed attribution: its class
// (or how a sample decides it) and its credit list.
type ipEntry struct {
	class      Class
	routine    bool   // runtime-routine code: NMap.Routine names it, no IR does
	cred, nCre uint32 // credits[cred : cred+nCre]; a walk: its slot, and the bound of its list
}

const (
	// classShared marks a shared routine: the sample names the task.
	classShared = ClassUnattributed + 1 + iota
	// classWalk marks generated code with a CSE'd IR instruction: creditsOf
	// per sample.
	classWalk
)

// NewAttributor returns an attributor over the given compile-time
// metadata, with the per-instruction table filled.
func NewAttributor(dict *Dictionary, nmap *NativeMap) *Attributor {
	reg, refs, lo, hi := dict.Registry, 0, 0, 0
	for _, irIDs := range nmap.IRs {
		refs += len(irIDs)
		for _, irID := range irIDs {
			lo, hi = min(lo, irID), max(hi, irID)
		}
	}
	a := &Attributor{
		Dict: dict, NMap: nmap, irLo: lo,
		table:   make([]ipEntry, len(nmap.Region)),
		credits: make([]Credit, reg.Len()+1, reg.Len()+1+refs/4),
	}
	if hi-lo < 4*refs+1024 {
		a.irSpan = hi - lo + 1
	}
	a.credits[0] = Credit{Task: reg.KernelTask, Operator: reg.KernelOperator, Weight: 1}
	for t := ComponentID(1); int(t) <= reg.Len(); t++ {
		a.credits[t] = Credit{Task: t, Operator: dict.OperatorOf(t), Weight: 1}
	}
	for ip := range a.table {
		e := &a.table[ip]
		switch nmap.Region[ip] {
		case RegionKernel:
			e.class, e.routine, e.nCre = ClassKernel, true, 1
		case RegionLibrary:
			e.class, e.routine = ClassUnattributed, true
		case RegionShared:
			e.class, e.routine, e.nCre = classShared, true, 1
		default: // generated code: resolve through debug info and Log B
			irIDs := nmap.IRs[ip]
			for _, irID := range irIDs {
				if dict.IsShared(irID) {
					e.class = classWalk
				}
			}
			if e.class == classWalk {
				// A walk's list names each owner at most once: nCre bounds it.
				for _, irID := range irIDs {
					e.nCre += uint32(len(dict.TasksOf(irID)))
				}
				break
			}
			var owned bool
			e.cred = uint32(len(a.credits))
			if a.credits, owned = a.creditsOf(a.credits, irIDs, NoComponent); !owned {
				e.class = ClassUnattributed
			} else if e.nCre = uint32(len(a.credits)) - e.cred; e.nCre == 1 {
				// One owner has weight exactly 1: the task's own list.
				e.cred = uint32(a.credits[e.cred].Task)
				a.credits = a.credits[:len(a.credits)-1]
			}
		}
		if e.class == classShared || e.class == classWalk {
			// A sample decides the list: cred numbers the instruction's
			// slot in BuildProfile's walk memo instead.
			e.cred = uint32(a.walks)
			a.walks++
			a.walkCredits += int(e.nCre)
		}
	}
	return a
}

// Attribute maps one sample. Samples on shared code locations are
// disambiguated by the tag register (Register Tagging) or, failing that,
// by walking the recorded call stack (call-stack sampling).
func (a *Attributor) Attribute(s *Sample) Attribution {
	if uint(s.IP) >= uint(len(a.table)) {
		return Attribution{Class: ClassUnattributed}
	}
	e, att := &a.table[s.IP], Attribution{Class: ClassUnattributed}
	switch e.class {
	case ClassOperator, ClassKernel:
		att.Class, att.Credits = e.class, window(a.credits, nil, e.cred, e.nCre)
	case classShared, classWalk:
		var own []Credit
		class, off, n := a.decide(e, s.IP, a.resolveShared(s), &own)
		if att.Class = class; class != ClassUnattributed {
			att.Credits = window(a.credits, own, off, n)
		}
	}
	if e.routine {
		att.Routine = a.NMap.Routine[s.IP]
	} else if att.Class == ClassOperator {
		irIDs := a.NMap.IRs[s.IP]
		att.IRCredits = make([]IRCredit, len(irIDs))
		for i, irID := range irIDs {
			att.IRCredits[i] = IRCredit{IRID: irID, Weight: 1 / float64(len(irIDs))}
		}
	}
	return att
}

// window returns the credit list n long at off in the space the pool and an
// arena make together: offsets below len(pool) lie in the pool, the rest in
// the arena after it. The list is capped: later appends never reach past it.
func window(pool, arena []Credit, off, n uint32) []Credit {
	if i := int(off) - len(pool); i >= 0 {
		return arena[i : i+int(n) : i+int(n)]
	}
	return pool[off : off+n : off+n]
}

// decide builds the credit list of a sample on entry e — a shared routine or
// CSE'd code at ip — whose active task (resolveShared) is task: nothing else
// of the sample goes into it. A list the pool does not hold is appended to
// *arena. It returns the class and the list as a window (see window).
func (a *Attributor) decide(e *ipEntry, ip int, task ComponentID, arena *[]Credit) (class Class, off, n uint32) {
	base := len(*arena)
	if e.class == classShared {
		switch {
		case task > 0 && int(task) <= a.Dict.Registry.Len():
			return ClassOperator, uint32(task), 1
		case task == NoComponent:
			return ClassUnattributed, 0, 0
		}
		*arena = append(*arena, Credit{Task: task, Operator: a.Dict.OperatorOf(task), Weight: 1})
	} else {
		var owned bool
		if *arena, owned = a.creditsOf(*arena, a.NMap.IRs[ip], task); !owned {
			return ClassUnattributed, 0, 0
		}
	}
	return ClassOperator, uint32(len(a.credits) + base), uint32(len(*arena) - base)
}

// walkMemo groups one profile's samples on shared routines and CSE'd code by
// (IP, active task), which decides their credit list, and builds each
// group's list once, into one arena: a group's samples share its window, and
// BuildProfile credits the group once, by its count. groups[slot] is the
// first group of the instruction in that slot (ipEntry.cred), and each
// group links the next group of its instruction.
type walkMemo struct {
	groups []walkGroup
	arena  []Credit
}

// walkGroup is one (IP, task) group: its class, its list's window and the
// number of its samples (0 marks an unused slot).
type walkGroup struct {
	ip     int
	task   ComponentID
	class  Class
	off, n uint32
	count  float64
	next   int32 // index of the instruction's next group, 0 for none
}

// add counts s, a sample on entry e, into its group and returns the group.
func (m *walkMemo) add(a *Attributor, e *ipEntry, s *Sample) *walkGroup {
	if m.groups == nil {
		// One group and one list per instruction first; an instruction
		// several tasks reach appends more.
		m.groups = make([]walkGroup, a.walks, 2*a.walks)
		m.arena = make([]Credit, 0, a.walkCredits)
	}
	task, g := a.resolveShared(s), &m.groups[e.cred]
	for g.count > 0 && g.task != task {
		if g.next == 0 {
			g.next = int32(len(m.groups))
			m.groups = append(m.groups, walkGroup{})
			g = &m.groups[len(m.groups)-1]
			break
		}
		g = &m.groups[g.next]
	}
	if g.count == 0 {
		g.ip, g.task = s.IP, task
		g.class, g.off, g.n = a.decide(e, s.IP, task, &m.arena)
	}
	g.count++
	return g
}

// creditsOf appends to dst the credit list of a native instruction lowered
// from irIDs and reports whether any of them has an owner. Every IR
// instruction carries an equal share of the sample, split evenly across
// its owning tasks; the list names registered tasks in ascending id order,
// normalized so the sample contributes weight 1 in aggregate even if some
// IR instructions had no links. A CSE'd instruction owned by several tasks
// is credited to the sample's active task when that is one of the owners,
// and falls back to the split: a pipeline's caller frame (main's call,
// tagged kernel, in a one-core run) owns none of its instructions. The
// table build passes NoComponent, which owns no IR instruction.
func (a *Attributor) creditsOf(dst []Credit, irIDs []int, task ComponentID) ([]Credit, bool) {
	base := len(dst)
	irW := 1.0 / float64(len(irIDs))
	for _, irID := range irIDs {
		tasks := a.Dict.TasksOf(irID)
		if task != NoComponent && a.Dict.IsShared(irID) && slices.Contains(tasks, task) {
			tasks = []ComponentID{task}
		}
		w := irW / float64(len(tasks))
	owners:
		for _, t := range tasks {
			for i := base; i < len(dst); i++ {
				if dst[i].Task == t {
					dst[i].Weight += w
					continue owners
				}
			}
			dst = append(dst, Credit{Task: t, Weight: w})
		}
	}
	if len(dst) == base {
		return dst, false
	}
	list, total := dst[base:], 0.0
	slices.SortFunc(list, func(x, y Credit) int { return cmp.Compare(x.Task, y.Task) })
	kept := list[:0]
	for _, c := range list {
		if c.Task >= 1 && int(c.Task) <= a.Dict.Registry.Len() {
			c.Operator = a.credits[c.Task].Operator
			kept = append(kept, c)
			total += c.Weight
		}
	}
	if total > 0 && total != 1 {
		for i := range kept {
			kept[i].Weight /= total
		}
	}
	return dst[:base+len(kept)], true
}

// resolveShared determines the active task for a sample taken inside a
// shared code location.
func (a *Attributor) resolveShared(s *Sample) ComponentID {
	// Register Tagging: the tag register holds the active task's ID.
	if s.HasRegs && s.Tag > 0 && int(s.Tag) <= a.Dict.Registry.Len() {
		c := ComponentID(s.Tag)
		if a.Dict.Registry.Get(c).Level == LevelTask {
			return c
		}
	}
	// Call-stack sampling: walk outward from the innermost frame; the
	// first caller in generated code with an unambiguous owner wins.
	if s.HasStack {
		for i := len(s.Stack) - 1; i >= 0; i-- {
			callIP := s.Stack[i] - 1 // the CALL preceding the return address
			if callIP < 0 || callIP >= len(a.NMap.Region) {
				continue
			}
			if a.NMap.Region[callIP] != RegionGenerated {
				continue
			}
			for _, irID := range a.NMap.IRs[callIP] {
				tasks := a.Dict.TasksOf(irID)
				if len(tasks) > 0 {
					return tasks[0]
				}
			}
		}
	}
	return NoComponent
}
