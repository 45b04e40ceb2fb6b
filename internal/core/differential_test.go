package core_test

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/iropt"
	"repro/internal/pmu"
	"repro/internal/queries"
	"repro/internal/vm"
	"repro/internal/xrand"
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
	{"pgo", engine.DefaultAdaptSampling()},
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
		res, err := eng.Run(cq, &pmu.Config{Event: vm.EvCycles, Period: 997, Format: pmu.FormatIPTimeRegs})
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

// replay applies one journal event to l.
func replay(l core.Lineage, ev core.LineageEvent) {
	switch ev.Kind {
	case core.LineageDerived:
		l.Derived(ev.ID, ev.Srcs...)
	case core.LineageReplaced:
		l.Replaced(ev.Srcs[0], ev.ID)
	default:
		l.Removed(ev.ID)
	}
}

// TestDictionaryMatchesReference replays every suite compile into the
// table dictionary and the map-based oracle of reference_test.go — Log A
// and every Log B link as the lowering made them (read off the unoptimized
// compile, whose IR the optimizer starts from), then the optimizer's
// lineage journal — and compares the two after each stage, and the result
// with the compiled dictionary. Random operation sequences over dense,
// negative and far IR ids follow.
func TestDictionaryMatchesReference(t *testing.T) {
	cat := datagen.Generate(datagen.Config{ScaleFactor: 0.01, Seed: 7})
	lowering := engine.DefaultOptions()
	lowering.Optimize = iropt.Options{}
	lowEng, optEng := engine.New(cat, lowering), engine.New(cat, engine.DefaultOptions())
	for _, w := range queries.Suite() {
		lowered, err := lowEng.CompileQuery(w.Query)
		if err != nil {
			t.Fatal(err)
		}
		compiled, err := optEng.CompileQuery(w.Query)
		if err != nil {
			t.Fatal(err)
		}
		src, reg := lowered.Pipe.Dict, lowered.Pipe.Registry
		d, r := core.NewDictionary(reg), core.NewRefDictionary(reg)
		for _, task := range src.Tasks() {
			d.LinkTask(task, src.OperatorOf(task))
			r.LinkTask(task, src.OperatorOf(task))
		}
		for _, id := range src.IRIDs() {
			for _, task := range src.TasksOf(id) {
				d.LinkIR(id, task)
				r.LinkIR(id, task)
			}
		}
		var ids []int
		for id := -1; id <= compiled.Pipe.Module.MaxID()+1; id++ {
			ids = append(ids, id)
		}
		if err := core.DiffDictionary(d, r, ids); err != nil {
			t.Fatalf("%s, as lowered: %v", w.Name, err)
		}
		journal := compiled.Pipe.Dict.Journal()
		for _, ev := range journal {
			replay(d, ev)
			replay(r, ev)
		}
		if err := core.DiffDictionary(d, r, ids); err != nil {
			t.Fatalf("%s, after %d lineage events: %v", w.Name, len(journal), err)
		}
		if d.Dump() != compiled.Pipe.Dict.Dump() || !slices.Equal(d.SharedIRIDs(), compiled.Pipe.Dict.SharedIRIDs()) {
			t.Fatalf("%s: the replay does not rebuild the compiled dictionary", w.Name)
		}
	}

	for seed := uint64(1); seed <= 40; seed++ {
		rng := xrand.New(seed)
		reg := core.NewRegistry()
		var tasks []core.ComponentID
		for o := 0; o < 3; o++ {
			op := reg.Add(core.LevelOperator, "op", "op", -1, core.NoComponent)
			for k := 0; k < 2; k++ {
				tasks = append(tasks, reg.Add(core.LevelTask, fmt.Sprintf("task %d.%d", o, k), "task", o, op))
			}
		}
		d, r := core.NewDictionary(reg), core.NewRefDictionary(reg)
		owner := func() core.ComponentID { // a task, or none
			if rng.Intn(10) == 0 {
				return core.NoComponent
			}
			return tasks[rng.Intn(len(tasks))]
		}
		touched := map[int]bool{}
		id := func() int { // dense, negative, beyond doubling, or near 2^31
			var v int
			switch rng.Intn(8) {
			case 0:
				v = -1 - rng.Intn(4)
			case 1:
				v = 1<<31 - rng.Intn(4)
			case 2:
				v = 5000 + rng.Intn(9000)
			default:
				v = rng.Intn(200)
			}
			touched[v] = true
			return v
		}
		for step := 0; step < 400; step++ {
			switch rng.Intn(9) {
			case 0:
				task := tasks[rng.Intn(len(tasks))]
				d.LinkTask(task, reg.Get(task).Parent)
				r.LinkTask(task, reg.Get(task).Parent)
			case 1:
				v := id()
				d.MarkShared(v)
				r.MarkShared(v)
			case 2:
				v, srcs := id(), []int{id(), id()}
				d.Derived(v, srcs...)
				r.Derived(v, srcs...)
			case 3:
				old, v := id(), id()
				d.Replaced(old, v)
				r.Replaced(old, v)
			case 4:
				v := id()
				d.Removed(v)
				r.Removed(v)
			default:
				v, task := id(), owner()
				d.LinkIR(v, task)
				r.LinkIR(v, task)
			}
			if step%20 == 19 {
				var ids []int
				for v := range touched {
					ids = append(ids, v)
				}
				if err := core.DiffDictionary(d, r, ids); err != nil {
					t.Fatalf("seed %d, step %d: %v", seed, step, err)
				}
			}
		}
	}
}
