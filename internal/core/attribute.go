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
// instructions, whose owner the sample names, repeat it per sample
// (DESIGN.md §3, "Attribution table"). The Attributor is immutable once
// built, and the Dictionary and NativeMap must not change while it is in
// use.
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
}

// ipEntry is one native instruction's precomputed attribution: its class
// (or how a sample decides it) and its credit list.
type ipEntry struct {
	class      Class
	routine    bool   // runtime-routine code: NMap.Routine names it, no IR does
	cred, nCre uint32 // credits[cred : cred+nCre]; a walk: nCre bounds its list
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
			e.class, e.routine = classShared, true
		default: // generated code: resolve through debug info and Log B
			irIDs := nmap.IRs[ip]
			for _, irID := range irIDs {
				if dict.IsShared(irID) {
					e.class = classWalk
				}
			}
			if e.class == classWalk {
				// A walk's list names each owner at most once: nCre bounds
				// it, and BuildProfile sizes its arena by the bound.
				for _, irID := range irIDs {
					e.nCre += uint32(len(dict.TasksOf(irID)))
				}
				continue
			}
			var owned bool
			e.cred = uint32(len(a.credits))
			if a.credits, owned = a.creditsOf(a.credits, irIDs, nil); !owned {
				e.class = ClassUnattributed
			} else if e.nCre = uint32(len(a.credits)) - e.cred; e.nCre == 1 {
				// One owner has weight exactly 1: the task's own list.
				e.cred = uint32(a.credits[e.cred].Task)
				a.credits = a.credits[:len(a.credits)-1]
			}
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
	e, att := &a.table[s.IP], Attribution{}
	var own []Credit
	att.Class, att.Credits = a.lookup(e, s, &own)
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

// lookup returns the class and the credit list of a sample on table entry e.
// A list the sample decides (a walk, or a task outside the registry) is
// appended to *arena — BuildProfile keeps one per profile, so such samples
// cost no allocation each. The returned list is capped: later appends
// never reach it.
func (a *Attributor) lookup(e *ipEntry, s *Sample, arena *[]Credit) (Class, []Credit) {
	dst := *arena
	base := len(dst)
	switch e.class {
	case ClassOperator, ClassKernel:
		return e.class, a.credits[e.cred : e.cred+e.nCre : e.cred+e.nCre]
	case classShared:
		if task := a.resolveShared(s); task > 0 && int(task) <= a.Dict.Registry.Len() {
			return ClassOperator, a.credits[task : task+1 : task+1]
		} else if task != NoComponent {
			dst = append(dst, Credit{Task: task, Operator: a.Dict.OperatorOf(task), Weight: 1})
		} else {
			return ClassUnattributed, nil
		}
	case classWalk:
		var owned bool
		if dst, owned = a.creditsOf(dst, a.NMap.IRs[s.IP], s); !owned {
			return ClassUnattributed, nil
		}
	default:
		return ClassUnattributed, nil
	}
	*arena = dst
	return ClassOperator, dst[base:len(dst):len(dst)]
}

// creditsOf appends to dst the credit list of a native instruction lowered
// from irIDs and reports whether any of them has an owner. Every IR
// instruction carries an equal share of the sample, split evenly across
// its owning tasks; the list names registered tasks in ascending id order,
// normalized so the sample contributes weight 1 in aggregate even if some
// IR instructions had no links. A CSE'd instruction owned by several tasks
// prefers runtime disambiguation through s when it names one of the
// owners, and falls back to the split: a pipeline's caller frame (main's
// call, tagged kernel, in a one-core run) owns none of its instructions.
// The table build passes a nil s for instructions that have none.
func (a *Attributor) creditsOf(dst []Credit, irIDs []int, s *Sample) ([]Credit, bool) {
	base := len(dst)
	irW := 1.0 / float64(len(irIDs))
	for _, irID := range irIDs {
		tasks := a.Dict.TasksOf(irID)
		if s != nil && a.Dict.IsShared(irID) {
			if t := a.resolveShared(s); slices.Contains(tasks, t) {
				tasks = []ComponentID{t}
			}
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
