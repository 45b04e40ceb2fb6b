package core

// The previous implementation of attribution, kept as the differential
// oracle with only its names changed (ref*): Attribute walks NativeMap →
// Log B → Log A for every sample through a per-sample map, and
// BuildProfile updates the exported maps once per credit. The table in
// attribute.go and the dense accumulators in profile.go must reproduce it
// field for field and, in every float sum, bit for bit
// (TestTableMatchesReference, TestProfileMatchesReference); nothing
// outside the tests uses it.

import "repro/internal/vm"

// RefAttribute and RefBuildProfile hand the oracle to the external test
// package, which can import the engine to record real logs.
var (
	RefAttribute    = refAttribute
	RefBuildProfile = refBuildProfile
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
			// disambiguation; fall back to splitting across owners.
			if t := refResolveShared(a, s); t != NoComponent {
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
		BranchTaken:  make(map[int]*BranchStat),
		MemByOp:      make(map[ComponentID][]MemPoint),
		MinTSC:       ^uint64(0),
	}
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
		if s.HasLBR {
			for _, r := range s.LBR {
				st := p.BranchTaken[r.IP]
				if st == nil {
					st = &BranchStat{}
					p.BranchTaken[r.IP] = st
				}
				taken := r.Taken
				if r.IP >= 0 && r.IP < len(att.NMap.Inverted) && att.NMap.Inverted[r.IP] {
					taken = !taken
				}
				if taken {
					st.Taken++
				}
				st.Total++
			}
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
			p.TaskWeight[c.Task] += c.Weight
			p.OpWeight[c.Operator] += c.Weight
			if c.Operator == p.Registry.KernelOperator {
				p.KernelWeight += c.Weight
			}
		}
		for _, ic := range a.IRCredits {
			p.IRWeight[ic.IRID] += ic.Weight
		}
		p.timed = append(p.timed, timedCredit{tsc: s.TSC, credits: a.Credits})
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
	return p
}
