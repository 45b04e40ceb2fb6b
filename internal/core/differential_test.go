package core_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/pmu"
	"repro/internal/queries"
	"repro/internal/vm"
)

// recording is one armed run of a suite plan: what the offline files hold.
type recording struct {
	dict    *core.Dictionary
	nmap    *core.NativeMap
	samples []core.Sample
}

var samplings = []struct {
	name string
	cfg  pmu.Config
}{
	{"regs", pmu.Config{Event: vm.EvCycles, Period: 997, Format: pmu.FormatIPTimeRegs}},
	{"callstack", pmu.Config{Event: vm.EvCycles, Period: 997, Format: pmu.FormatCallStack}},
	{"pgo", pmu.Config{Event: vm.EvCycles, Period: 997, Format: pmu.FormatPGO}},
	{"loads", pmu.Config{Event: vm.EvMemLoads, Period: 211, Format: pmu.FormatIPTimeRegs}},
}

// eachRecording records every suite plan × sampling configuration × {serial,
// four merged workers} and hands each to f as a subtest.
func eachRecording(t *testing.T, f func(t *testing.T, r recording)) {
	for _, workers := range []int{0, 4} {
		opts := engine.DefaultOptions()
		opts.Workers = workers
		eng := engine.New(datagen.Generate(datagen.Config{ScaleFactor: 0.05, Seed: 7}), opts)
		for _, w := range queries.Suite() {
			cq, err := eng.CompileQuery(w.Query)
			if err != nil {
				t.Fatalf("compile %s: %v", w.Name, err)
			}
			for _, sm := range samplings {
				cfg := sm.cfg
				res, err := eng.Run(cq, &cfg)
				if err != nil {
					t.Fatalf("run %s: %v", w.Name, err)
				}
				t.Run(fmt.Sprintf("%s/%s/workers=%d", w.Name, sm.name, workers), func(t *testing.T) {
					f(t, recording{dict: cq.Pipe.Dict, nmap: cq.Code.NMap, samples: res.Samples})
				})
			}
		}
	}
}

func sameAttribution(a, b core.Attribution) bool {
	if a.Class != b.Class || a.Routine != b.Routine || len(a.Credits) != len(b.Credits) || len(a.IRCredits) != len(b.IRCredits) {
		return false
	}
	for i := range a.Credits {
		if a.Credits[i] != b.Credits[i] {
			return false
		}
	}
	for i := range a.IRCredits {
		if a.IRCredits[i] != b.IRCredits[i] {
			return false
		}
	}
	return true
}

// diffProfiles reports the first field in which two profiles of one log
// differ; floats compare exactly, because every sum must be formed in the
// same order.
func diffProfiles(got, want *core.Profile) string {
	if !bytes.Equal(got.Canonical(), want.Canonical()) {
		return fmt.Sprintf("Canonical():\n%s\nwant:\n%s", got.Canonical(), want.Canonical())
	}
	for _, f := range []struct {
		name      string
		got, want interface{}
	}{
		{"TotalSamples", got.TotalSamples, want.TotalSamples},
		{"OpWeight", got.OpWeight, want.OpWeight},
		{"TaskWeight", got.TaskWeight, want.TaskWeight},
		{"IRWeight", got.IRWeight, want.IRWeight},
		{"KernelWeight", got.KernelWeight, want.KernelWeight},
		{"Unattributed", got.Unattributed, want.Unattributed},
		{"NativeCount", got.NativeCount, want.NativeCount},
		{"RoutineCount", got.RoutineCount, want.RoutineCount},
		{"ByWorker", got.ByWorker, want.ByWorker},
		{"ByShard", got.ByShard, want.ByShard},
		{"BranchTaken", got.BranchTaken, want.BranchTaken},
		{"MemByOp", got.MemByOp, want.MemByOp},
		{"MinTSC", got.MinTSC, want.MinTSC},
		{"MaxTSC", got.MaxTSC, want.MaxTSC},
		{"TaskCosts()", got.TaskCosts(), want.TaskCosts()},
		{"OperatorCosts()", got.OperatorCosts(), want.OperatorCosts()},
		{"BuildTimeline(60)", got.BuildTimeline(60), want.BuildTimeline(60)},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			return fmt.Sprintf("%s = %v, want %v", f.name, f.got, f.want)
		}
	}
	return ""
}

// TestTableMatchesReference: over real logs of every suite plan, sampling
// format and worker count, the table-driven Attribute answers every sample
// as the map-walking reference does, and BuildProfile's dense accumulators
// give the profile the reference's per-sample map updates give — whole and
// on a zoom window.
func TestTableMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("records 176 profiled runs")
	}
	eachRecording(t, func(t *testing.T, r recording) {
		if len(r.samples) == 0 {
			t.Fatal("no samples recorded")
		}
		att := core.NewAttributor(r.dict, r.nmap)
		for i := range r.samples {
			got, want := att.Attribute(&r.samples[i]), core.RefAttribute(att, &r.samples[i])
			if !sameAttribution(got, want) {
				t.Fatalf("sample %d (%+v):\n got %+v\nwant %+v", i, r.samples[i], got, want)
			}
		}
		whole := core.BuildProfile(att, r.samples)
		if d := diffProfiles(whole, core.RefBuildProfile(att, r.samples)); d != "" {
			t.Fatal(d)
		}
		from := whole.MinTSC + (whole.MaxTSC-whole.MinTSC)/3
		window := core.SliceSamples(r.samples, from, from+(whole.MaxTSC-whole.MinTSC)/4)
		if d := diffProfiles(core.BuildProfile(att, window), core.RefBuildProfile(att, window)); d != "" {
			t.Fatalf("zoom window: %s", d)
		}
	})
}

// TestOfflineMatchesInline: a profile rebuilt from the two files is the
// profile built from the values they were written from — including the
// per-shard lens the JSON log used to drop — and writing is reproducible:
// two writes of one compile and a write of what was read back are
// byte-equal.
func TestOfflineMatchesInline(t *testing.T) {
	opts := engine.DefaultOptions()
	opts.Workers, opts.Shards = 4, 4
	eng := engine.New(datagen.Generate(datagen.Config{ScaleFactor: 0.05, Seed: 7}), opts)
	sharded := false
	for _, w := range queries.Suite() {
		cq, err := eng.CompileQuery(w.Query)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(cq, &pmu.Config{Event: vm.EvCycles, Period: 997, Format: pmu.FormatPGO})
		if err != nil {
			t.Fatal(err)
		}
		var meta, meta2, meta3, log bytes.Buffer
		if err := core.WriteMetadata(&meta, cq.Pipe.Dict, cq.Code.NMap); err != nil {
			t.Fatal(err)
		}
		if err := core.WriteMetadata(&meta2, cq.Pipe.Dict, cq.Code.NMap); err != nil {
			t.Fatal(err)
		}
		if err := core.WriteSamples(&log, res.Samples); err != nil {
			t.Fatal(err)
		}
		dict, nmap, err := core.ReadMetadata(bytes.NewReader(meta.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if err := core.WriteMetadata(&meta3, dict, nmap); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(meta.Bytes(), meta2.Bytes()) || !bytes.Equal(meta.Bytes(), meta3.Bytes()) {
			t.Fatalf("%s: meta-data file is not reproducible", w.Name)
		}
		samples, err := core.ReadSamples(&log)
		if err != nil {
			t.Fatal(err)
		}
		offline := core.BuildProfile(core.NewAttributor(dict, nmap), samples)
		offline.Skips = res.Profile.Skips
		if d := diffProfiles(offline, res.Profile); d != "" {
			t.Fatalf("%s: offline vs inline: %s", w.Name, d)
		}
		sharded = sharded || len(offline.ByShard) > 1
	}
	if !sharded {
		t.Fatal("no run recorded a sample on a data shard: the ByShard comparison is vacuous")
	}
}
