package core

import (
	"bytes"
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
			if !bytes.Equal(got.Canonical(), want.Canonical()) {
				t.Fatalf("seed %d: Canonical():\n%s\nwant:\n%s", seed, got.Canonical(), want.Canonical())
			}
			for i := range got.timed {
				if len(got.timed[i].credits) == 0 {
					got.timed[i].credits = nil
				}
			}
			if len(got.timed) == 0 {
				got.timed = nil // presized, where the reference appends to nil
			}
			got.Registry, got.Dict, want.Registry, want.Dict = nil, nil, nil, nil
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: profiles differ beyond Canonical():\n got %+v\nwant %+v", seed, got, want)
			}
		}
	}
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
