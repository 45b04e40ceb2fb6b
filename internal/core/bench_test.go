package core_test

import (
	"bytes"
	"math"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/pmu"
	"repro/internal/queries"
	"repro/internal/vm"
)

// recordQ5 records TPC-H Q5, the suite's largest plan, at the given
// sampling period: the log the offline benchmarks post-process.
func recordQ5(tb testing.TB, period int64) recording {
	tb.Helper()
	eng, cq := compileQ5(tb)
	res, err := eng.Run(cq, &pmu.Config{Event: vm.EvCycles, Period: period, Format: pmu.FormatIPTimeRegs})
	if err != nil {
		tb.Fatal(err)
	}
	return recording{dict: cq.Pipe.Dict, nmap: cq.Code.NMap, samples: res.Samples}
}

func compileQ5(tb testing.TB) (*engine.Engine, *engine.Compiled) {
	tb.Helper()
	eng := engine.New(datagen.Generate(datagen.Config{ScaleFactor: 0.2, Seed: 1}), engine.DefaultOptions())
	w, ok := queries.ByName("q5")
	if !ok {
		tb.Fatal("q5 not in the suite")
	}
	cq, err := eng.CompileQuery(w.Query)
	if err != nil {
		tb.Fatal(err)
	}
	return eng, cq
}

// periodForQ5 returns the cycles-event period at which a recording of Q5
// holds about n samples: an unarmed run's cycles over n. The period
// follows whatever the backend makes Q5 cost.
func periodForQ5(tb testing.TB, n int) int64 {
	tb.Helper()
	eng, cq := compileQ5(tb)
	res, err := eng.Run(cq, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return max(1, int64(res.Stats.Cycles)/int64(n))
}

var sink interface{}

func BenchmarkReadSamples(b *testing.B) {
	r := recordQ5(b, 250)
	var log bytes.Buffer
	if err := core.WriteSamples(&log, r.samples); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		samples, err := core.ReadSamples(bytes.NewReader(log.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		sink = samples
	}
	n := float64(b.N * len(r.samples))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/sample")
	b.ReportMetric(float64(log.Len())/float64(len(r.samples)), "file-B/sample")
}

func BenchmarkReadMetadata(b *testing.B) {
	r := recordQ5(b, 5000)
	var meta bytes.Buffer
	if err := core.WriteMetadata(&meta, r.dict, r.nmap); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(meta.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, _, err := core.ReadMetadata(bytes.NewReader(meta.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		sink = d
	}
}

func BenchmarkNewAttributor(b *testing.B) {
	r := recordQ5(b, 5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = core.NewAttributor(r.dict, r.nmap)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(r.nmap.Region)), "ns/native-instr")
}

// BenchmarkBuildProfile: dense20k is an offline log at ten times the
// paper's rate, where the one pass over the samples (count, time record)
// decides; sparse500 is one armed run's worth of samples, where the
// per-instruction work — building the table, crediting each instruction
// once — must not dominate: its timed region includes NewAttributor, as
// every engine run pays it.
func BenchmarkBuildProfile(b *testing.B) {
	for _, c := range []struct {
		name string
		want int
	}{{"dense20k", 20000}, {"sparse500", 500}} {
		b.Run(c.name, func(b *testing.B) {
			r := recordQ5(b, periodForQ5(b, c.want))
			if n := len(r.samples); n < c.want/2 || n > c.want*2 {
				b.Fatalf("recorded %d samples, the case is named for about %d", n, c.want)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink = core.BuildProfile(core.NewAttributor(r.dict, r.nmap), r.samples)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(r.samples)), "ns/sample")
		})
	}
}

// TestNewAttributorFootprint gates what every armed engine run pays before
// its first sample is attributed: the per-instruction table stays within
// 24 bytes per native instruction plus the pooled credit lists, in a dozen
// allocations however large the program. The bytes are the least of
// several calls' TotalAlloc deltas: another goroutine's allocations can
// only add to a window, never take from it.
func TestNewAttributorFootprint(t *testing.T) {
	r := recordQ5(t, 5000)
	natives, refs := len(r.nmap.Region), 0
	for _, irs := range r.nmap.IRs {
		refs += len(irs)
	}
	got := math.MaxInt
	for range 5 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		att := core.NewAttributor(r.dict, r.nmap)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(att)
		got = min(got, int(after.TotalAlloc-before.TotalAlloc))
	}
	// The pooled credit lists: 16 B per credit, one per component and, at
	// most, one more per four IR references for instructions with several owners.
	table, pool := 24*natives, 16*(r.dict.Registry.Len()+1+refs/4)
	t.Logf("NewAttributor: %d bytes for %d native instructions and %d IR references", got, natives, refs)
	if got > table+pool+1024 {
		t.Errorf("NewAttributor allocated %d bytes, budget %d (24 B per native instruction + %d B of pooled credits)", got, table+pool+1024, pool)
	}
	if allocs := testing.AllocsPerRun(20, func() { sink = core.NewAttributor(r.dict, r.nmap) }); allocs > 12 {
		t.Errorf("NewAttributor made %.0f allocations, want <= 12", allocs)
	}
}

// TestBuildProfileFootprint gates what one profile of a dense log (q5 at
// the offline benchmark's period) costs: a 16-byte time record per sample,
// the dense per-instruction, per-component and per-IR sums, 64 bytes per
// entry of the exported maps, and 12 KiB for the rest (the walk memo, the
// struct, and the page the time records round up to) — nothing else per
// sample. A Sample is 80 bytes. The bytes are the least TotalAlloc delta of
// five calls, as in TestNewAttributorFootprint.
func TestBuildProfileFootprint(t *testing.T) {
	if size := unsafe.Sizeof(core.Sample{}); size != 80 {
		t.Errorf("core.Sample is %d bytes, want 80: its one-byte fields belong together at the end", size)
	}
	r := recordQ5(t, 500)
	att := core.NewAttributor(r.dict, r.nmap)
	got, entries := math.MaxInt, 0
	for range 5 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		p := core.BuildProfile(att, r.samples)
		runtime.ReadMemStats(&after)
		got = min(got, int(after.TotalAlloc-before.TotalAlloc))
		entries = len(p.OpWeight) + len(p.TaskWeight) + len(p.IRWeight) + len(p.RoutineCount) + len(p.ByWorker) + len(p.ByShard)
	}
	lo, hi := 0, 0
	for _, irs := range r.nmap.IRs {
		for _, id := range irs {
			lo, hi = min(lo, id), max(hi, id)
		}
	}
	dense := 8 * (len(r.nmap.Region) + 2*(r.dict.Registry.Len()+1) + hi - lo + 1)
	budget := 16*len(r.samples) + dense + 64*entries + 12<<10
	t.Logf("BuildProfile: %d bytes for %d samples (%d B dense sums, %d map entries)", got, len(r.samples), dense, entries)
	if got > budget {
		t.Errorf("BuildProfile allocated %d bytes, budget %d (16 B per sample + %d B of dense sums + 64 B per map entry + 12 KiB)", got, budget, dense)
	}
}

// TestCanonicalAllocs: Canonical writes a profile's bytes into one buffer,
// so a profile costs it a handful of allocations (the buffer and one sorted
// key list per map), not one string per field.
func TestCanonicalAllocs(t *testing.T) {
	r := recordQ5(t, 500)
	p := core.BuildProfile(core.NewAttributor(r.dict, r.nmap), r.samples)
	if !bytes.Equal(p.Canonical(), core.RefCanonical(p)) {
		t.Fatalf("Canonical():\n%s\nreference form:\n%s", p.Canonical(), core.RefCanonical(p))
	}
	allocs := testing.AllocsPerRun(20, func() { sink = p.Canonical() })
	t.Logf("Canonical: %.0f allocations for %d lines", allocs, bytes.Count(p.Canonical(), []byte("\n")))
	if allocs > 8 {
		t.Errorf("Canonical made %.0f allocations, want <= 8", allocs)
	}
}

// TestBuildProfileAllocs: a sample on CSE'd code decides its own credit
// list by its active task, and BuildProfile builds each (IP, task) list once,
// into one arena per profile, instead of allocating it per sample. A dense
// log of q14 has hundreds of such samples; the profile's allocations must
// not grow with them (a list allocated per such sample would make about
// 590 here), and its arena holds one list per distinct (IP, task).
func TestBuildProfileAllocs(t *testing.T) {
	eng := engine.New(datagen.Generate(datagen.Config{ScaleFactor: 0.2, Seed: 1}), engine.DefaultOptions())
	w, ok := queries.ByName("q14")
	if !ok {
		t.Fatal("q14 not in the suite")
	}
	cq, err := eng.CompileQuery(w.Query)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(cq, &pmu.Config{Event: vm.EvCycles, Period: 97, Format: pmu.FormatIPTimeRegs})
	if err != nil {
		t.Fatal(err)
	}
	dict, nmap := cq.Pipe.Dict, cq.Code.NMap
	att := core.NewAttributor(dict, nmap)
	type group struct {
		ip   int
		task core.ComponentID
	}
	walks, lists := 0, map[group]int{}
	for i, s := range res.Samples {
		if s.IP < 0 || s.IP >= len(nmap.Region) || nmap.Region[s.IP] != core.RegionGenerated {
			continue
		}
		for _, id := range nmap.IRs[s.IP] {
			if dict.IsShared(id) {
				// A register-tagged sample's active task is its tag, when
				// that names a task.
				g := group{ip: s.IP}
				if tag := core.ComponentID(s.Tag); s.HasRegs && tag > 0 && int(tag) <= dict.Registry.Len() && dict.Registry.Get(tag).Level == core.LevelTask {
					g.task = tag
				}
				walks++
				lists[g] = len(att.Attribute(&res.Samples[i]).Credits)
				break
			}
		}
	}
	want := 0
	for _, n := range lists {
		want += n
	}
	if got := len(core.WalkArena(core.BuildProfile(att, res.Samples))); got != want {
		t.Errorf("walk arena holds %d credits, want %d: one list for each of %d (IP, task) groups of %d samples", got, want, len(lists), walks)
	}
	allocs := testing.AllocsPerRun(5, func() { sink = core.BuildProfile(att, res.Samples) })
	t.Logf("BuildProfile: %.0f allocations for %d samples, %d on CSE'd code", allocs, len(res.Samples), walks)
	if walks < 200 {
		t.Fatalf("only %d of %d samples on CSE'd code; the test needs a walk-heavy log", walks, len(res.Samples))
	}
	if allocs > 32 {
		t.Errorf("BuildProfile made %.0f allocations, want <= 32", allocs)
	}
}
