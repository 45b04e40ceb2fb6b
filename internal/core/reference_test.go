package core

// The previous implementation of attribution, kept as the differential
// oracle with only its names changed (ref*): Attribute walks NativeMap →
// Log B → Log A for every sample through a per-sample map, and
// BuildProfile updates a map per key once per credit of every sample — in
// fixed-point units since weights became order-independent sums, its one
// change — and keeps each sample's own credit list in its time record. The
// table in attribute.go and the per-instruction crediting in profile.go
// must reproduce it field for field and bit for bit
// (TestTableMatchesReference, TestTableMatchesReferenceOnRandomMetadata);
// nothing outside the tests uses it.

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/vm"
)

// RefAttribute, RefBuildProfile and RefCanonical hand the oracle to the
// external test package, which can import the engine to record real logs.
var (
	RefAttribute    = refAttribute
	RefBuildProfile = refBuildProfile
	RefCanonical    = refCanonical
)

func refAttribute(a *Attributor, s *Sample) Attribution {
	if s.IP < 0 || s.IP >= len(a.NMap.Region) {
		return Attribution{Class: ClassUnattributed}
	}
	switch a.NMap.Region[s.IP] {
	case RegionKernel:
		return Attribution{
			Class:   ClassKernel,
			Routine: a.NMap.Routine[s.IP],
			Credits: []Credit{{
				Task:     a.Dict.Registry.KernelTask,
				Operator: a.Dict.Registry.KernelOperator,
				Weight:   1,
			}},
		}
	case RegionLibrary:
		return Attribution{Class: ClassUnattributed, Routine: a.NMap.Routine[s.IP]}
	case RegionShared:
		task := refResolveShared(a, s)
		if task == NoComponent {
			return Attribution{Class: ClassUnattributed, Routine: a.NMap.Routine[s.IP]}
		}
		return Attribution{
			Class:   ClassOperator,
			Routine: a.NMap.Routine[s.IP],
			Credits: []Credit{{Task: task, Operator: a.Dict.OperatorOf(task), Weight: 1}},
		}
	}

	// Generated code: resolve through debug info and Log B.
	irIDs := a.NMap.IRs[s.IP]
	if len(irIDs) == 0 {
		return Attribution{Class: ClassUnattributed}
	}
	att := Attribution{Class: ClassOperator}
	irW := 1.0 / float64(len(irIDs))
	taskW := make(map[ComponentID]float64)
	for _, irID := range irIDs {
		att.IRCredits = append(att.IRCredits, IRCredit{IRID: irID, Weight: irW})
		var tasks []ComponentID
		if a.Dict.IsShared(irID) {
			// CSE'd instruction owned by several tasks: prefer runtime
			// disambiguation when it names an owner; fall back to
			// splitting across owners.
			if t := refResolveShared(a, s); slices.Contains(a.Dict.TasksOf(irID), t) {
				tasks = []ComponentID{t}
			} else {
				tasks = a.Dict.TasksOf(irID)
			}
		} else {
			tasks = a.Dict.TasksOf(irID)
		}
		if len(tasks) == 0 {
			continue
		}
		w := irW / float64(len(tasks))
		for _, t := range tasks {
			taskW[t] += w
		}
	}
	if len(taskW) == 0 {
		return Attribution{Class: ClassUnattributed}
	}
	// Deterministic order: tasks were registered in ascending ID order.
	total := 0.0
	for t := ComponentID(1); int(t) <= a.Dict.Registry.Len(); t++ {
		if w, ok := taskW[t]; ok {
			att.Credits = append(att.Credits, Credit{Task: t, Operator: a.Dict.OperatorOf(t), Weight: w})
			total += w
		}
	}
	// Normalize so each sample contributes weight 1 in aggregate even if
	// some IR instructions had no links.
	if total > 0 && total != 1 {
		for i := range att.Credits {
			att.Credits[i].Weight /= total
		}
	}
	return att
}

func refResolveShared(a *Attributor, s *Sample) ComponentID {
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

func refBuildProfile(att *Attributor, samples []Sample) *Profile {
	p := &Profile{
		Registry:     att.Dict.Registry,
		Dict:         att.Dict,
		OpWeight:     make(map[ComponentID]float64),
		TaskWeight:   make(map[ComponentID]float64),
		IRWeight:     make(map[int]float64),
		NativeCount:  make([]float64, len(att.NMap.Region)),
		RoutineCount: make(map[string]float64),
		ByWorker:     make(map[int]float64),
		ByShard:      make(map[int]float64),
		MemByOp:      make(map[ComponentID][]MemPoint),
		MinTSC:       ^uint64(0),
	}
	// Weights sum in BuildProfile's fixed point, per sample, by map.
	taskU, opU, irU := map[ComponentID]float64{}, map[ComponentID]float64{}, map[int]float64{}
	var kernelU float64
	for i := range samples {
		s := &samples[i]
		p.TotalSamples++
		p.ByWorker[s.Worker]++
		p.ByShard[s.Shard]++
		if s.TSC < p.MinTSC {
			p.MinTSC = s.TSC
		}
		if s.TSC > p.MaxTSC {
			p.MaxTSC = s.TSC
		}
		if s.IP >= 0 && s.IP < len(p.NativeCount) {
			p.NativeCount[s.IP]++
		}
		a := refAttribute(att, s)
		if a.Routine != "" {
			p.RoutineCount[a.Routine]++
		}
		if a.Class == ClassUnattributed {
			p.Unattributed++
			continue
		}
		for _, c := range a.Credits {
			taskU[c.Task] += units(c.Weight)
			opU[c.Operator] += units(c.Weight)
			if c.Operator == p.Registry.KernelOperator {
				kernelU += units(c.Weight)
			}
		}
		for _, ic := range a.IRCredits {
			irU[ic.IRID] += units(ic.Weight)
		}
		p.timed = append(p.timed, timedCredit{tsc: s.TSC, off: uint32(len(p.arena)), n: uint32(len(a.Credits))})
		p.arena = append(p.arena, a.Credits...)
		if s.Event == vm.EvMemLoads || s.Event == vm.EvL3Miss {
			for _, c := range a.Credits {
				if c.Weight >= 0.5 { // assign the point to the dominant owner
					p.MemByOp[c.Operator] = append(p.MemByOp[c.Operator], MemPoint{TSC: s.TSC, Addr: s.Addr})
				}
			}
		}
	}
	if p.TotalSamples == 0 {
		p.MinTSC = 0
	}
	for id, u := range taskU {
		p.TaskWeight[id] = u / weightScale
	}
	for id, u := range opU {
		p.OpWeight[id] = u / weightScale
	}
	for id, u := range irU {
		p.IRWeight[id] = u / weightScale
	}
	p.KernelWeight = kernelU / weightScale
	return p
}

// refCanonical is Profile.Canonical as it was, a string per field joined
// in a strings.Builder: Canonical must write the same bytes.
func refCanonical(p *Profile) []byte {
	var sb strings.Builder
	w := func(parts ...string) {
		for i, s := range parts {
			if i > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(s)
		}
		sb.WriteByte('\n')
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	w("samples", strconv.Itoa(p.TotalSamples))
	w("kernel", f(p.KernelWeight))
	w("unattributed", f(p.Unattributed))

	ops := make([]int, 0, len(p.OpWeight))
	for id := range p.OpWeight {
		ops = append(ops, int(id))
	}
	sort.Ints(ops)
	for _, id := range ops {
		w("op", strconv.Itoa(id), f(p.OpWeight[ComponentID(id)]))
	}
	tasks := make([]int, 0, len(p.TaskWeight))
	for id := range p.TaskWeight {
		tasks = append(tasks, int(id))
	}
	sort.Ints(tasks)
	for _, id := range tasks {
		w("task", strconv.Itoa(id), f(p.TaskWeight[ComponentID(id)]))
	}
	irs := make([]int, 0, len(p.IRWeight))
	for id := range p.IRWeight {
		irs = append(irs, id)
	}
	sort.Ints(irs)
	for _, id := range irs {
		w("ir", strconv.Itoa(id), f(p.IRWeight[id]))
	}
	routines := make([]string, 0, len(p.RoutineCount))
	for name := range p.RoutineCount {
		routines = append(routines, name)
	}
	sort.Strings(routines)
	for _, name := range routines {
		w("routine", name, f(p.RoutineCount[name]))
	}
	for _, s := range p.Skips {
		w("skip", strconv.Itoa(s.Pipeline), s.Alias, strconv.Itoa(s.Zone),
			strconv.FormatInt(s.Lo, 10), strconv.FormatInt(s.Hi, 10),
			strconv.FormatInt(s.Hi-s.Lo, 10), s.Cause)
	}
	return []byte(sb.String())
}

// refDictionary is the Tagging Dictionary as it stood before its logs
// became tables, kept as the oracle with only its names changed: Log A and
// Log B as maps, the shared flags as a map, derive deduplicating through a
// map. TestDictionaryMatchesReference replays every suite compile into both.
type refDictionary struct {
	Registry *Registry
	taskToOp map[ComponentID]ComponentID
	irToTask map[int][]ComponentID
	sharedIR map[int]bool
	journal  []LineageEvent
}

// NewRefDictionary hands the oracle to the external test package.
func NewRefDictionary(reg *Registry) *refDictionary {
	d := &refDictionary{
		Registry: reg,
		taskToOp: make(map[ComponentID]ComponentID),
		irToTask: make(map[int][]ComponentID),
		sharedIR: make(map[int]bool),
	}
	d.LinkTask(reg.KernelTask, reg.KernelOperator)
	return d
}

func (d *refDictionary) LinkTask(task, operator ComponentID) { d.taskToOp[task] = operator }

func (d *refDictionary) OperatorOf(task ComponentID) ComponentID { return d.taskToOp[task] }

func (d *refDictionary) LinkIR(irID int, task ComponentID) {
	if task == NoComponent {
		return
	}
	d.irToTask[irID] = append(d.irToTask[irID], task)
}

func (d *refDictionary) TasksOf(irID int) []ComponentID { return d.irToTask[irID] }

func (d *refDictionary) MarkShared(irID int) { d.sharedIR[irID] = true }

func (d *refDictionary) IsShared(irID int) bool { return d.sharedIR[irID] }

func (d *refDictionary) IRIDs() []int {
	ids := make([]int, 0, len(d.irToTask))
	for id := range d.irToTask {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

func (d *refDictionary) SharedIRIDs() []int {
	ids := make([]int, 0, len(d.sharedIR))
	for id := range d.sharedIR {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

func (d *refDictionary) Tasks() []ComponentID {
	ts := make([]ComponentID, 0, len(d.taskToOp))
	for t := range d.taskToOp {
		ts = append(ts, t)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	return ts
}

func (d *refDictionary) Entries() int {
	n := len(d.taskToOp)
	for _, ts := range d.irToTask {
		n += len(ts)
	}
	return n
}

func (d *refDictionary) StorageBytes() int {
	n := 0
	for _, ts := range d.irToTask {
		n += len(ts) * 24
	}
	return n
}

func (d *refDictionary) Dump() string {
	var sb strings.Builder
	sb.WriteString("Log A: Task -> Operator\n")
	tasks := make([]int, 0, len(d.taskToOp))
	for t := range d.taskToOp {
		tasks = append(tasks, int(t))
	}
	sort.Ints(tasks)
	for _, t := range tasks {
		task := ComponentID(t)
		fmt.Fprintf(&sb, "  %-28s => %s\n", d.Registry.Name(task), d.Registry.Name(d.taskToOp[task]))
	}
	sb.WriteString("Log B: IR Instruction -> Task\n")
	irs := make([]int, 0, len(d.irToTask))
	for id := range d.irToTask {
		irs = append(irs, id)
	}
	sort.Ints(irs)
	for _, id := range irs {
		names := make([]string, 0, len(d.irToTask[id]))
		for _, t := range d.irToTask[id] {
			names = append(names, d.Registry.Name(t))
		}
		shared := ""
		if d.sharedIR[id] {
			shared = " (shared)"
		}
		fmt.Fprintf(&sb, "  %%%-6d => %s%s\n", id, strings.Join(names, ", "), shared)
	}
	return sb.String()
}

func (d *refDictionary) Derived(newID int, srcIDs ...int) {
	d.journal = append(d.journal, LineageEvent{Kind: LineageDerived, ID: newID, Srcs: append([]int(nil), srcIDs...)})
	d.derive(newID, srcIDs...)
}

func (d *refDictionary) derive(newID int, srcIDs ...int) {
	seen := make(map[ComponentID]bool)
	for _, t := range d.irToTask[newID] {
		seen[t] = true
	}
	for _, src := range srcIDs {
		for _, t := range d.irToTask[src] {
			if !seen[t] {
				seen[t] = true
				d.irToTask[newID] = append(d.irToTask[newID], t)
			}
		}
		if d.sharedIR[src] {
			d.sharedIR[newID] = true
		}
	}
}

func (d *refDictionary) Replaced(oldID, newID int) {
	d.journal = append(d.journal, LineageEvent{Kind: LineageReplaced, ID: newID, Srcs: []int{oldID}})
	before := len(d.irToTask[newID])
	d.derive(newID, oldID)
	if len(d.irToTask[newID]) > before {
		d.sharedIR[newID] = true
	}
	d.remove(oldID)
}

func (d *refDictionary) Removed(id int) {
	d.journal = append(d.journal, LineageEvent{Kind: LineageRemoved, ID: id})
	d.remove(id)
}

func (d *refDictionary) remove(id int) {
	delete(d.irToTask, id)
	delete(d.sharedIR, id)
}

// DiffDictionary holds d to the oracle r: the same owners and shared flag
// for every IR id in ids, the same operator for every task id from -1 to
// two past the registry, and the same ordered scans, counts and dump.
func DiffDictionary(d *Dictionary, r *refDictionary, ids []int) error {
	for _, id := range ids {
		if got, want := d.TasksOf(id), r.TasksOf(id); !slices.Equal(got, want) {
			return fmt.Errorf("TasksOf(%d) = %v, oracle %v", id, got, want)
		}
		if got, want := d.IsShared(id), r.IsShared(id); got != want {
			return fmt.Errorf("IsShared(%d) = %v, oracle %v", id, got, want)
		}
	}
	for t := ComponentID(-1); int(t) <= d.Registry.Len()+2; t++ {
		if got, want := d.OperatorOf(t), r.OperatorOf(t); got != want {
			return fmt.Errorf("OperatorOf(%d) = %d, oracle %d", t, got, want)
		}
	}
	switch {
	case !slices.Equal(d.IRIDs(), r.IRIDs()):
		return fmt.Errorf("IRIDs = %v, oracle %v", d.IRIDs(), r.IRIDs())
	case !slices.Equal(d.SharedIRIDs(), r.SharedIRIDs()):
		return fmt.Errorf("SharedIRIDs = %v, oracle %v", d.SharedIRIDs(), r.SharedIRIDs())
	case !slices.Equal(d.Tasks(), r.Tasks()):
		return fmt.Errorf("Tasks = %v, oracle %v", d.Tasks(), r.Tasks())
	case d.Entries() != r.Entries() || d.StorageBytes() != r.StorageBytes():
		return fmt.Errorf("Entries, StorageBytes = %d, %d, oracle %d, %d", d.Entries(), d.StorageBytes(), r.Entries(), r.StorageBytes())
	case d.Dump() != r.Dump():
		return fmt.Errorf("Dump:\n%s\noracle:\n%s", d.Dump(), r.Dump())
	}
	return nil
}
