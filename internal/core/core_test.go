package core

import (
	"strings"
	"testing"

	"repro/internal/vm"
)

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	if r.KernelOperator == NoComponent || r.KernelTask == NoComponent {
		t.Fatal("kernel components missing")
	}
	op := r.Add(LevelOperator, "hash join", "hash join", -1, NoComponent)
	task := r.Add(LevelTask, "probe(hash join)", "probe", 1, op)
	if r.Get(op).Name != "hash join" || r.Get(task).Pipeline != 1 {
		t.Fatal("component fields lost")
	}
	if r.Name(NoComponent) != "<none>" {
		t.Fatal("NoComponent name")
	}
	ops := r.ByLevel(LevelOperator)
	if len(ops) != 2 { // kernel + hash join
		t.Fatalf("ByLevel(operator) = %d", len(ops))
	}
}

func TestRegistryGetPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRegistry().Get(999)
}

func TestTrackerStack(t *testing.T) {
	tr := NewTracker(LevelOperator)
	if tr.Active() != NoComponent {
		t.Fatal("empty tracker should be inactive")
	}
	tr.Push(3)
	tr.Push(5)
	if tr.Active() != 5 || tr.Depth() != 2 {
		t.Fatal("push/active broken")
	}
	tr.Pop()
	if tr.Active() != 3 {
		t.Fatal("pop broken")
	}
	tr.Pop()
	defer func() {
		if recover() == nil {
			t.Fatal("underflow should panic")
		}
	}()
	tr.Pop()
}

// testSetup builds a small two-operator scenario: op1 has tasks t1 (IR 1,2)
// and op2 has task t2 (IR 3); native instrs 0..3 map to IR 1,2,3 and a
// shared region at 4..5.
func testSetup() (*Registry, *Dictionary, *NativeMap, ComponentID, ComponentID, ComponentID, ComponentID) {
	reg := NewRegistry()
	op1 := reg.Add(LevelOperator, "hash join", "hash join", -1, NoComponent)
	op2 := reg.Add(LevelOperator, "group by", "group by", -1, NoComponent)
	t1 := reg.Add(LevelTask, "probe(hash join)", "probe", 0, op1)
	t2 := reg.Add(LevelTask, "aggregate(group by)", "aggregate", 0, op2)
	d := NewDictionary(reg)
	d.LinkTask(t1, op1)
	d.LinkTask(t2, op2)
	d.LinkIR(1, t1)
	d.LinkIR(2, t1)
	d.LinkIR(3, t2)
	nm := NewNativeMap(8)
	nm.IRs[0] = []int{1}
	nm.IRs[1] = []int{2}
	nm.IRs[2] = []int{3}
	nm.IRs[3] = []int{2, 3} // fused instruction
	nm.Region[4] = RegionShared
	nm.Routine[4] = "ht_insert"
	nm.Region[5] = RegionKernel
	nm.Routine[5] = "memset64"
	nm.Region[6] = RegionLibrary
	nm.Routine[6] = "bumpalloc"
	return reg, d, nm, op1, op2, t1, t2
}

func TestAttributeGeneratedSingle(t *testing.T) {
	_, d, nm, op1, _, t1, _ := testSetup()
	a := NewAttributor(d, nm)
	att := a.Attribute(&Sample{IP: 0})
	if att.Class != ClassOperator {
		t.Fatalf("class = %v", att.Class)
	}
	if len(att.Credits) != 1 || att.Credits[0].Task != t1 || att.Credits[0].Operator != op1 || att.Credits[0].Weight != 1 {
		t.Fatalf("credits = %+v", att.Credits)
	}
	if len(att.IRCredits) != 1 || att.IRCredits[0].IRID != 1 {
		t.Fatalf("ir credits = %+v", att.IRCredits)
	}
}

func TestAttributeFusedSplitsWeight(t *testing.T) {
	_, d, nm, op1, op2, _, _ := testSetup()
	a := NewAttributor(d, nm)
	att := a.Attribute(&Sample{IP: 3})
	if len(att.Credits) != 2 {
		t.Fatalf("credits = %+v", att.Credits)
	}
	total := 0.0
	byOp := map[ComponentID]float64{}
	for _, c := range att.Credits {
		total += c.Weight
		byOp[c.Operator] += c.Weight
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("weights sum to %v", total)
	}
	if byOp[op1] != byOp[op2] {
		t.Fatalf("fused weights unequal: %v", byOp)
	}
}

func TestAttributeSharedViaTag(t *testing.T) {
	_, d, nm, _, op2, _, t2 := testSetup()
	a := NewAttributor(d, nm)
	att := a.Attribute(&Sample{IP: 4, Tag: int64(t2), HasRegs: true})
	if att.Class != ClassOperator || len(att.Credits) != 1 {
		t.Fatalf("att = %+v", att)
	}
	if att.Credits[0].Operator != op2 {
		t.Fatalf("shared sample attributed to %v", att.Credits[0])
	}
	if att.Routine != "ht_insert" {
		t.Fatalf("routine = %q", att.Routine)
	}
}

func TestAttributeSharedViaCallStack(t *testing.T) {
	_, d, nm, op1, _, _, _ := testSetup()
	a := NewAttributor(d, nm)
	// Caller at native 0 (owned by t1): return address 1 → call at 0.
	att := a.Attribute(&Sample{IP: 4, Stack: []int{1}, HasStack: true})
	if att.Class != ClassOperator || att.Credits[0].Operator != op1 {
		t.Fatalf("callstack resolution failed: %+v", att)
	}
}

func TestAttributeSharedUnresolvable(t *testing.T) {
	_, d, nm, _, _, _, _ := testSetup()
	a := NewAttributor(d, nm)
	att := a.Attribute(&Sample{IP: 4}) // no regs, no stack
	if att.Class != ClassUnattributed {
		t.Fatalf("class = %v", att.Class)
	}
}

func TestAttributeSharedBogusTagFallsBack(t *testing.T) {
	_, d, nm, _, _, _, _ := testSetup()
	a := NewAttributor(d, nm)
	// Tag pointing at an operator-level component must be rejected.
	att := a.Attribute(&Sample{IP: 4, Tag: 3 /* op1 */, HasRegs: true})
	if att.Class != ClassUnattributed {
		t.Fatalf("bogus tag accepted: %+v", att)
	}
}

func TestAttributeKernelAndLibrary(t *testing.T) {
	reg, d, nm, _, _, _, _ := testSetup()
	a := NewAttributor(d, nm)
	att := a.Attribute(&Sample{IP: 5})
	if att.Class != ClassKernel || att.Credits[0].Operator != reg.KernelOperator {
		t.Fatalf("kernel attribution: %+v", att)
	}
	att = a.Attribute(&Sample{IP: 6})
	if att.Class != ClassUnattributed || att.Routine != "bumpalloc" {
		t.Fatalf("library attribution: %+v", att)
	}
}

func TestAttributeOutOfRangeIP(t *testing.T) {
	_, d, nm, _, _, _, _ := testSetup()
	a := NewAttributor(d, nm)
	if att := a.Attribute(&Sample{IP: 100}); att.Class != ClassUnattributed {
		t.Fatalf("oob ip: %+v", att)
	}
}

func TestCSEReplacedMarksShared(t *testing.T) {
	_, d, _, _, _, t1, t2 := testSetup()
	d.LinkIR(10, t1)
	d.LinkIR(11, t2)
	d.Replaced(11, 10)
	if !d.IsShared(10) {
		t.Fatal("survivor not marked shared")
	}
	tasks := d.TasksOf(10)
	if len(tasks) != 2 {
		t.Fatalf("survivor tasks = %v", tasks)
	}
	if len(d.TasksOf(11)) != 0 {
		t.Fatal("eliminated instruction still linked")
	}
}

func TestReplacedSameTaskNotShared(t *testing.T) {
	_, d, _, _, _, t1, _ := testSetup()
	d.LinkIR(10, t1)
	d.LinkIR(11, t1)
	d.Replaced(11, 10)
	if d.IsShared(10) {
		t.Fatal("same-task CSE must not create a shared location")
	}
}

func TestDerivedInheritsLinks(t *testing.T) {
	_, d, _, _, _, t1, t2 := testSetup()
	d.LinkIR(20, t1)
	d.LinkIR(21, t2)
	d.Derived(22, 20, 21)
	if len(d.TasksOf(22)) != 2 {
		t.Fatalf("derived tasks = %v", d.TasksOf(22))
	}
	// Idempotent: deriving again must not duplicate.
	d.Derived(22, 20)
	if len(d.TasksOf(22)) != 2 {
		t.Fatalf("duplicate links after repeat: %v", d.TasksOf(22))
	}
}

func TestDictionaryDump(t *testing.T) {
	_, d, _, _, _, _, _ := testSetup()
	dump := d.Dump()
	if !strings.Contains(dump, "Log A") || !strings.Contains(dump, "Log B") {
		t.Fatalf("dump missing logs:\n%s", dump)
	}
	if !strings.Contains(dump, "probe(hash join)") {
		t.Fatalf("dump missing task name:\n%s", dump)
	}
}

func TestProfileAggregation(t *testing.T) {
	_, d, nm, op1, op2, _, _ := testSetup()
	a := NewAttributor(d, nm)
	samples := []Sample{
		{IP: 0, TSC: 100}, // op1
		{IP: 1, TSC: 200}, // op1
		{IP: 2, TSC: 300}, // op2
		{IP: 5, TSC: 400}, // kernel
		{IP: 6, TSC: 500}, // unattributed
		{IP: 3, TSC: 600}, // fused: ½ op1, ½ op2
	}
	p := BuildProfile(a, samples)
	if p.TotalSamples != 6 {
		t.Fatalf("total = %d", p.TotalSamples)
	}
	if p.OpWeight[op1] != 2.5 || p.OpWeight[op2] != 1.5 {
		t.Fatalf("op weights: %v / %v", p.OpWeight[op1], p.OpWeight[op2])
	}
	att := p.Attribution()
	if att.UnattributedPct < 16 || att.UnattributedPct > 17 {
		t.Fatalf("unattributed = %v", att.UnattributedPct)
	}
	// Conservation: operator + kernel + unattributed ≈ 100%.
	if s := att.OperatorPct + att.KernelPct + att.UnattributedPct; s < 99.99 || s > 100.01 {
		t.Fatalf("attribution does not sum to 100: %v", s)
	}
	costs := p.OperatorCosts()
	if costs[0].ID != op1 {
		t.Fatalf("cost ranking: %+v", costs)
	}
	if p.MinTSC != 100 || p.MaxTSC != 600 {
		t.Fatalf("tsc range %d..%d", p.MinTSC, p.MaxTSC)
	}
}

func TestTimelineBinsAndNormalization(t *testing.T) {
	_, d, nm, op1, op2, _, _ := testSetup()
	a := NewAttributor(d, nm)
	var samples []Sample
	// First half: op1; second half: op2.
	for i := 0; i < 50; i++ {
		samples = append(samples, Sample{IP: 0, TSC: uint64(i)})
	}
	for i := 50; i < 100; i++ {
		samples = append(samples, Sample{IP: 2, TSC: uint64(i)})
	}
	p := BuildProfile(a, samples)
	tl := p.BuildTimeline(10)
	if len(tl.Activity) != 10 {
		t.Fatalf("bins = %d", len(tl.Activity))
	}
	idx := map[ComponentID]int{}
	for i, id := range tl.Operators {
		idx[id] = i
	}
	if tl.Activity[0][idx[op1]] != 1 || tl.Activity[0][idx[op2]] != 0 {
		t.Fatalf("first bin: %v", tl.Activity[0])
	}
	if tl.Activity[9][idx[op2]] != 1 {
		t.Fatalf("last bin: %v", tl.Activity[9])
	}
}

func TestTimelineRangeRestriction(t *testing.T) {
	_, d, nm, op1, _, _, _ := testSetup()
	a := NewAttributor(d, nm)
	var samples []Sample
	for i := 0; i < 100; i++ {
		samples = append(samples, Sample{IP: 0, TSC: uint64(i)})
	}
	p := BuildProfile(a, samples)
	tl := p.BuildTimelineRange(5, 20, 39)
	total := 0.0
	for _, bt := range tl.BinTotal {
		total += bt
	}
	if total != 20 {
		t.Fatalf("restricted timeline counted %v samples, want 20", total)
	}
	_ = op1
}

func TestDetectIterations(t *testing.T) {
	_, d, nm, op1, _, _, _ := testSetup()
	a := NewAttributor(d, nm)
	var samples []Sample
	// Three bursts of activity separated by large gaps.
	for burst := 0; burst < 3; burst++ {
		base := uint64(burst * 10000)
		for i := 0; i < 10; i++ {
			samples = append(samples, Sample{IP: 0, TSC: base + uint64(i*10)})
		}
	}
	p := BuildProfile(a, samples)
	iters := p.DetectIterations(op1, 1000)
	if len(iters) != 3 {
		t.Fatalf("iterations = %d (%v), want 3", len(iters), iters)
	}
	if iters[1].From != 10000 {
		t.Fatalf("second iteration starts at %d", iters[1].From)
	}
}

func TestMemPointsCollectedForLoadEvents(t *testing.T) {
	_, d, nm, op1, _, _, _ := testSetup()
	a := NewAttributor(d, nm)
	samples := []Sample{
		{IP: 0, TSC: 1, Event: vm.EvMemLoads, Addr: 4096},
		{IP: 0, TSC: 2, Event: vm.EvCycles, Addr: 8192}, // not a load event
	}
	p := BuildProfile(a, samples)
	pts := p.MemByOp[op1]
	if len(pts) != 1 || pts[0].Addr != 4096 {
		t.Fatalf("mem points = %+v", pts)
	}
}

func TestDictionaryStorageAccounting(t *testing.T) {
	_, d, _, _, _, t1, _ := testSetup()
	before := d.StorageBytes()
	d.LinkIR(100, t1)
	if d.StorageBytes() != before+24 {
		t.Fatalf("storage accounting: %d -> %d", before, d.StorageBytes())
	}
	d.Removed(100)
	if d.StorageBytes() != before {
		t.Fatal("Removed did not release storage")
	}
}

func TestNativeMapGrow(t *testing.T) {
	nm := NewNativeMap(2)
	nm.Grow(5)
	if len(nm.IRs) != 5 || len(nm.Region) != 5 || len(nm.Routine) != 5 {
		t.Fatalf("grow: %d/%d/%d", len(nm.IRs), len(nm.Region), len(nm.Routine))
	}
	nm.Grow(3) // shrinking is a no-op
	if len(nm.IRs) != 5 {
		t.Fatal("grow shrank the map")
	}
}

func TestLevelAndRegionStrings(t *testing.T) {
	levels := map[Level]string{
		LevelOperator: "operator", LevelTask: "task", LevelIR: "ir", LevelNative: "native",
	}
	for l, want := range levels {
		if l.String() != want {
			t.Errorf("Level(%d) = %q", l, l.String())
		}
	}
	regions := map[RegionKind]string{
		RegionGenerated: "generated", RegionShared: "shared",
		RegionKernel: "kernel", RegionLibrary: "library",
	}
	for r, want := range regions {
		if r.String() != want {
			t.Errorf("Region(%d) = %q", r, r.String())
		}
	}
}

func TestSliceSamples(t *testing.T) {
	var samples []Sample
	for i := uint64(0); i < 100; i += 10 {
		samples = append(samples, Sample{TSC: i})
	}
	got := SliceSamples(samples, 25, 65)
	if len(got) != 4 { // 30, 40, 50, 60
		t.Fatalf("sliced %d samples", len(got))
	}
	if got[0].TSC != 30 || got[3].TSC != 60 {
		t.Fatalf("slice bounds: %v..%v", got[0].TSC, got[3].TSC)
	}
	if len(SliceSamples(samples, 1000, 2000)) != 0 {
		t.Fatal("out-of-range slice not empty")
	}
}

// TestProfileSumsIndependentOfOrder: a sample on an instruction fused from
// three IR instructions credits each a third, which no float represents.
// One credit list summed in two orders — as a merge of two workers' logs
// may present it — gives one profile, byte for byte, with every weight the
// float nearest its exact value.
func TestProfileSumsIndependentOfOrder(t *testing.T) {
	_, d, nm, op1, op2, _, _ := testSetup()
	nm.IRs[7] = []int{1, 2, 3} // ⅔ op1, ⅓ op2
	a := NewAttributor(d, nm)
	var fwd []Sample
	for i := 0; i < 229+33; i++ {
		ip := 7
		if i >= 229 {
			ip = 2 // op2's own instruction, weight 1
		}
		fwd = append(fwd, Sample{IP: ip, TSC: uint64(10 * i)})
	}
	rev := make([]Sample, len(fwd))
	for i, s := range fwd {
		rev[len(fwd)-1-i] = s
	}
	// Summed as floats the two orders disagree: the case is a real one.
	naive := func(ss []Sample) (sum float64) {
		for _, s := range ss {
			if s.IP == 7 {
				sum += 1.0 / 3
			} else {
				sum++
			}
		}
		return sum
	}
	if naive(fwd) == naive(rev) {
		t.Fatal("the two orders sum to one float: the test does not exercise order")
	}
	pf, pr := BuildProfile(a, fwd), BuildProfile(a, rev)
	if cf, cr := pf.Canonical(), pr.Canonical(); string(cf) != string(cr) {
		t.Fatalf("profiles differ by order:\n%s\nreversed:\n%s", cf, cr)
	}
	if got, want := pf.OpWeight[op2], 229.0/3+33; got != want {
		t.Errorf("op2 weight %v, want %v", got, want)
	}
	if got, want := pf.OpWeight[op1], 2*229.0/3; got != want {
		t.Errorf("op1 weight %v, want %v", got, want)
	}
	if got, want := pf.IRWeight[3], 229.0/3+33; got != want {
		t.Errorf("IR 3 weight %v, want %v", got, want)
	}
}
