package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/vm"
	"repro/internal/xrand"
)

// filterSamples is SliceSamples as it was: scan and copy.
func filterSamples(samples []Sample, from, to uint64) []Sample {
	var out []Sample
	for _, s := range samples {
		if s.TSC >= from && s.TSC <= to {
			out = append(out, s)
		}
	}
	return out
}

// TestSliceSamplesMatchesFilter: on TSC-ordered logs, on worker-merged logs
// (ordered by worker first) and on unordered ones, for windows inside,
// across and beyond the log, SliceSamples selects what the filtering copy
// selects; when it hands out a window of its input, the window's capacity
// ends with it, so an append cannot reach the samples after `to`.
func TestSliceSamplesMatchesFilter(t *testing.T) {
	rng := xrand.New(16)
	single := synthBuffers(1, 300, 3)[0]
	merged := MergeSamples(synthBuffers(4, 80, 4)...)
	shuffled := append([]Sample(nil), merged...)
	for i := range shuffled {
		j := i + rng.Intn(len(shuffled)-i)
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	for name, log := range map[string][]Sample{"single worker": single, "merged workers": merged, "unordered": shuffled, "empty": nil} {
		lo, hi := uint64(0), uint64(50000)
		windows := [][2]uint64{{0, ^uint64(0)}, {0, 0}, {hi, hi + 10}, {hi, lo}, {7, 7}}
		for i := 0; i < 200; i++ {
			from := lo + uint64(rng.Intn(int(hi)))
			windows = append(windows, [2]uint64{from, from + uint64(rng.Intn(int(hi)/2))})
		}
		if len(log) > 0 {
			windows = append(windows, [2]uint64{log[0].TSC, log[0].TSC}, [2]uint64{0, log[len(log)/2].TSC}, [2]uint64{log[len(log)/2].TSC, ^uint64(0)})
		}
		aliased := 0
		for _, w := range windows {
			before := append([]Sample(nil), log...)
			got, want := SliceSamples(log, w[0], w[1]), filterSamples(log, w[0], w[1])
			if len(got) != len(want) {
				t.Fatalf("%s [%d,%d]: %d samples, filter gives %d", name, w[0], w[1], len(got), len(want))
			}
			for i := range got {
				if !sameSample(got[i], want[i]) {
					t.Fatalf("%s [%d,%d]: sample %d is %+v, filter gives %+v", name, w[0], w[1], i, got[i], want[i])
				}
			}
			for i := range log {
				if len(got) > 0 && &got[0] == &log[i] {
					aliased++
				}
			}
			_ = append(got, Sample{IP: -77})
			if !reflect.DeepEqual(log, before) {
				t.Fatalf("%s [%d,%d]: append to the result changed the log", name, w[0], w[1])
			}
		}
		if name == "single worker" && aliased == 0 {
			t.Fatal("no window of a TSC-ordered log was handed out without a copy")
		}
	}
}

// randomMetadata builds a dictionary and native map that exercise every
// branch of attribution at once: all four regions, fused instructions,
// CSE'd IR with several owners, IR without owners, owners that are not
// registered or have no Log A entry, and — when sparse — IR ids too far
// apart for the table's array index.
func randomMetadata(rng *xrand.Rand, sparse bool) (*Dictionary, *NativeMap) {
	reg := NewRegistry()
	var tasks []ComponentID
	for o := 0; o < 2+rng.Intn(4); o++ {
		op := reg.Add(LevelOperator, "op", "op", -1, NoComponent)
		for k := 0; k < 1+rng.Intn(3); k++ {
			tasks = append(tasks, reg.Add(LevelTask, "task", "task", o, op))
		}
	}
	d := NewDictionary(reg)
	for _, t := range tasks {
		if rng.Intn(10) > 0 { // one task in ten has no Log A entry
			d.LinkTask(t, reg.Get(t).Parent)
		}
	}
	tasks = append(tasks, ComponentID(reg.Len()+3), -2, reg.KernelOperator) // unregistered, negative, not a task
	irID := func(i int) int {
		if sparse {
			return i*1_000_003 - 5_000_000
		}
		return i
	}
	const nIR = 40
	for i := 0; i < nIR; i++ {
		for k := rng.Intn(4); k > 0; k-- {
			d.LinkIR(irID(i), tasks[rng.Intn(len(tasks))])
		}
		if rng.Intn(6) == 0 {
			d.MarkShared(irID(i))
		}
	}
	nm := NewNativeMap(120)
	for ip := range nm.Region {
		switch r := rng.Intn(10); {
		case r == 0:
			nm.Region[ip], nm.Routine[ip] = RegionKernel, "memset64"
		case r == 1:
			nm.Region[ip], nm.Routine[ip] = RegionLibrary, "bumpalloc"
		case r == 2:
			nm.Region[ip], nm.Routine[ip] = RegionShared, []string{"ht_insert", "", "ht_probe"}[rng.Intn(3)]
		default:
			nm.Routine[ip] = []string{"", "ignored"}[rng.Intn(2)]
			for k := rng.Intn(4); k > 0; k-- {
				nm.IRs[ip] = append(nm.IRs[ip], irID(rng.Intn(nIR+2)))
			}
		}
		nm.Inverted[ip] = rng.Intn(8) == 0
	}
	return d, nm
}

func randomSamples(rng *xrand.Rand, d *Dictionary, nm *NativeMap, n int) []Sample {
	out := make([]Sample, n)
	for i := range out {
		s := &out[i]
		s.IP, s.TSC = rng.Intn(len(nm.Region)+4)-2, uint64(10*i+rng.Intn(10))
		s.Worker, s.Shard = i*3/n, rng.Intn(3)
		s.Event = vm.Event(rng.Intn(int(vm.NumEvents)))
		s.Addr = int64(rng.Intn(1 << 16))
		if rng.Intn(2) == 0 {
			s.HasRegs, s.Tag = true, int64(rng.Intn(d.Registry.Len()+3))-1
		}
		if rng.Intn(3) == 0 {
			s.HasStack = true
			for k := rng.Intn(3); k > 0; k-- {
				s.Stack = append(s.Stack, rng.Intn(len(nm.Region)+2))
			}
		}
	}
	return out
}

// TestTableMatchesReferenceOnRandomMetadata is the differential test over
// inputs no compiled query produces (differential_test.go covers those):
// the table and the dense accumulators against the reference, exactly.
func TestTableMatchesReferenceOnRandomMetadata(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		rng := xrand.New(seed)
		d, nm := randomMetadata(rng, seed%3 == 0)
		att := NewAttributor(d, nm)
		samples := randomSamples(rng, d, nm, 400)
		for i := range samples {
			got, want := att.Attribute(&samples[i]), refAttribute(att, &samples[i])
			if len(got.Credits) == 0 {
				got.Credits = nil // the reference has no list where the table has an empty one
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d sample %d (%+v):\n got %+v\nwant %+v", seed, i, samples[i], got, want)
			}
		}
		for _, log := range [][]Sample{samples, SliceSamples(samples, 900, 2500), nil} {
			got, want := BuildProfile(att, log), refBuildProfile(att, log)
			if d := diffReference(got, want); d != "" {
				t.Fatalf("seed %d: %s", seed, d)
			}
		}
	}
}

// diffReference reports how a profile differs from the reference's profile
// of the same log, if it does: in Canonical(), which must also be the bytes
// the reference form writes (with random skip events on both), in its time
// records expanded to (TSC, credits), or in any other field.
func diffReference(got, want *Profile) string {
	rng := xrand.New(uint64(got.TotalSamples))
	for k := rng.Intn(3); k > 0; k-- {
		lo := int64(rng.Intn(1000))
		s := SkipEvent{Pipeline: rng.Intn(4), Alias: "t", Shard: rng.Intn(3), Zone: rng.Intn(9), Lo: lo, Hi: lo + int64(rng.Intn(100)), Cause: SkipFilter}
		got.Skips, want.Skips = append(got.Skips, s), append(want.Skips, s)
	}
	if !bytes.Equal(got.Canonical(), want.Canonical()) {
		return fmt.Sprintf("Canonical():\n%s\nwant:\n%s", got.Canonical(), want.Canonical())
	}
	if !bytes.Equal(got.Canonical(), refCanonical(got)) {
		return fmt.Sprintf("Canonical():\n%s\nreference form:\n%s", got.Canonical(), refCanonical(got))
	}
	if g, w := timeline(got), timeline(want); !reflect.DeepEqual(g, w) {
		return fmt.Sprintf("time records differ:\n got %+v\nwant %+v", g, w)
	}
	g, w := *got, *want
	for _, p := range []*Profile{&g, &w} {
		p.Registry, p.Dict, p.timed, p.pool, p.arena = nil, nil, nil, nil, nil
	}
	if !reflect.DeepEqual(g, w) {
		return fmt.Sprintf("profiles differ beyond Canonical():\n got %+v\nwant %+v", g, w)
	}
	return ""
}

// TestWalkGroupsByInstructionAndTask: samples on a shared routine and on
// CSE'd code take their credit list from their active task, so BuildProfile
// groups them by (IP, task), never by IP alone. One CSE'd instruction is
// sampled under two tags and under none, and one shared routine under two
// call stacks, interleaved; the profile is the reference's, and its arena
// holds one list per (IP, task) that lists outside the pool, however many
// samples share it.
func TestWalkGroupsByInstructionAndTask(t *testing.T) {
	_, d, nm, _, _, t1, t2 := testSetup()
	d.LinkIR(4, t1)
	d.LinkIR(4, t2)
	d.MarkShared(4)
	nm.IRs[7] = []int{4, 1} // CSE'd IR 4 fused with t1's IR 1
	att := NewAttributor(d, nm)
	var log []Sample
	for k := 0; k < 6; k++ {
		for _, s := range []Sample{
			{IP: 7, Tag: int64(t1), HasRegs: true},
			{IP: 7, Tag: int64(t2), HasRegs: true},
			{IP: 7},
			{IP: 4, Stack: []int{1}, HasStack: true}, // called from ip 0: t1
			{IP: 4, Stack: []int{3}, HasStack: true}, // called from ip 2: t2
		} {
			s.TSC, s.Event = uint64(10*len(log)), vm.Event(len(log)%int(vm.NumEvents))
			log = append(log, s)
		}
	}
	for _, l := range [][]Sample{log, log[5:11]} {
		got, want := BuildProfile(att, l), refBuildProfile(att, l)
		if d := diffReference(got, want); d != "" {
			t.Fatal(d)
		}
		if got.TaskWeight[t1] == got.TaskWeight[t2] {
			t.Fatalf("task weights %v: the log credits t1 more than t2", got.TaskWeight)
		}
	}
	// Lists for IP 7 under t1 ([t1]), t2 ([t1 t2]) and none ([t1 t2]);
	// the shared routine's tasks are registered, so the pool holds theirs.
	if p := BuildProfile(att, log); len(p.arena) != 5 {
		t.Errorf("walk arena holds %d credits for 30 walk samples, want 5: one list per (IP, task)", len(p.arena))
	}
}

// WalkArena hands the external tests a profile's arena of sample-decided
// credit lists.
var WalkArena = func(p *Profile) []Credit { return p.arena }

// timedSample is one time record expanded: the sample's TSC and its credits.
type timedSample struct {
	tsc     uint64
	credits []Credit
}

// timeline expands a profile's time records, whichever credit space their
// windows name; an empty list reads as none.
func timeline(p *Profile) []timedSample {
	var out []timedSample
	for _, tc := range p.timed {
		ts := timedSample{tsc: tc.tsc}
		if cs := p.creditsOf(tc); len(cs) > 0 {
			ts.credits = cs
		}
		out = append(out, ts)
	}
	return out
}

// TestAttributionIsNotAliasedAcrossSamples: the lists Attribute hands out
// are shared windows of the table, capacity-capped, so a caller's append
// cannot corrupt the neighbouring list.
func TestAttributionIsNotAliasedAcrossSamples(t *testing.T) {
	_, d, nm, _, _, _, _ := testSetup()
	a := NewAttributor(d, nm)
	for ip := range nm.Region {
		att := a.Attribute(&Sample{IP: ip, Tag: 5, HasRegs: true})
		_ = append(att.Credits, Credit{Task: -9})
		_ = append(att.IRCredits, IRCredit{IRID: -9})
	}
	for ip := range nm.Region {
		s := Sample{IP: ip, Tag: 5, HasRegs: true}
		got, want := a.Attribute(&s), refAttribute(a, &s)
		if len(got.Credits) == 0 {
			got.Credits = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ip %d after appends: %+v, want %+v", ip, got, want)
		}
	}
}
