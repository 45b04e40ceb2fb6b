package core_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/queries"
	"repro/internal/vm"
)

var updateCorpus = flag.Bool("update-corpus", false, "rewrite testdata/fuzz from freshly recorded suite logs (after a format change)")

// seedFiles records the suite's smallest plan (topk) and its smallest TPC-H query (q6)
// at a tiny scale under each sample format and returns the offline files:
// the seeds of both fuzz targets, by name.
func seedFiles(tb testing.TB) (logs, metas map[string][]byte) {
	tb.Helper()
	logs, metas = map[string][]byte{}, map[string][]byte{}
	opts := engine.DefaultOptions()
	opts.Workers, opts.Shards = 2, 2
	eng := engine.New(datagen.Generate(datagen.Config{ScaleFactor: 0.01, Seed: 7}), opts)
	for _, name := range []string{"topk", "q6"} {
		w, ok := queries.ByName(name)
		if !ok {
			tb.Fatalf("%s not in the suite", name)
		}
		cq, err := eng.CompileQuery(w.Query)
		if err != nil {
			tb.Fatal(err)
		}
		for _, sm := range samplings {
			cfg := sm.cfg
			cfg.Period *= 16 // a few dozen samples: seeds stay a few KB
			res, err := eng.Run(cq, &cfg)
			if err != nil {
				tb.Fatal(err)
			}
			var log bytes.Buffer
			if err := core.WriteSamples(&log, res.Samples); err != nil {
				tb.Fatal(err)
			}
			logs[w.Name+"-"+sm.name] = log.Bytes()
		}
		if w.Name == "q6" {
			continue // a 13 KB meta-data seed leaves the fuzzer minimizing instead of mutating
		}
		par, err := cq.Parallel()
		if err != nil {
			tb.Fatal(err)
		}
		var meta bytes.Buffer
		if err := core.WriteMetadata(&meta, par.Dict, par.Code.NMap); err != nil {
			tb.Fatal(err)
		}
		metas[w.Name] = meta.Bytes()
	}
	// A few-hundred-byte file whose Log B names an IR id near 2^31: the
	// reader must place it without a table that large.
	reg := core.NewRegistry()
	task := reg.Add(core.LevelTask, "scan", "scan", 0, reg.Add(core.LevelOperator, "tablescan", "tablescan", -1, core.NoComponent))
	dict := core.NewDictionary(reg)
	dict.LinkTask(task, reg.Get(task).Parent)
	nmap := core.NewNativeMap(2)
	for i, id := range []int{1, 1<<31 - 5} {
		dict.LinkIR(id, task)
		nmap.IRs[i] = []int{id}
	}
	dict.MarkShared(1<<31 - 4)
	var far bytes.Buffer
	if err := core.WriteMetadata(&far, dict, nmap); err != nil {
		tb.Fatal(err)
	}
	metas["far-ir"] = far.Bytes()
	return logs, metas
}

// TestSeedCorpus keeps the committed corpus honest: every seed under
// testdata/fuzz must still be a file its reader accepts (a format change
// that forgets the corpus fails here); -update-corpus rewrites the seeds.
func TestSeedCorpus(t *testing.T) {
	logs, metas := seedFiles(t)
	for target, seeds := range map[string]map[string][]byte{"FuzzReadSamples": logs, "FuzzReadMetadata": metas} {
		dir := filepath.Join("testdata", "fuzz", target)
		if *updateCorpus {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			for name, data := range seeds {
				entry := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
				if err := os.WriteFile(filepath.Join(dir, "seed-"+name), []byte(entry), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		for name := range seeds {
			raw, err := os.ReadFile(filepath.Join(dir, "seed-"+name))
			if err != nil {
				t.Fatalf("%v (run go test ./internal/core -run TestSeedCorpus -update-corpus)", err)
			}
			var data []byte
			if _, err := fmt.Sscanf(string(raw), "go test fuzz v1\n[]byte(%q)", &data); err != nil {
				t.Fatalf("%s/seed-%s: %v", target, name, err)
			}
			if target == "FuzzReadSamples" {
				_, err = core.ReadSamples(bytes.NewReader(data))
			} else {
				_, _, err = core.ReadMetadata(bytes.NewReader(data))
			}
			if err != nil {
				t.Errorf("%s/seed-%s is no longer accepted: %v (regenerate with -update-corpus)", target, name, err)
			}
		}
	}
}

// FuzzReadSamples: no input makes the reader panic or allocate beyond the
// input's own size, and an accepted input re-encodes to bytes that decode
// to the same samples.
func FuzzReadSamples(f *testing.F) {
	logs, _ := seedFiles(f)
	for _, data := range logs {
		f.Add(data)
	}
	f.Add([]byte("TPSL"))
	f.Fuzz(func(t *testing.T, data []byte) {
		samples, err := core.ReadSamples(bytes.NewReader(data))
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := core.WriteSamples(&again, samples); err != nil {
			t.Fatalf("accepted log does not re-encode: %v", err)
		}
		back, err := core.ReadSamples(bytes.NewReader(again.Bytes()))
		if err != nil || !reflect.DeepEqual(samples, back) {
			t.Fatalf("re-encoded log decodes differently (%v):\n%+v\n%+v", err, samples, back)
		}
	})
}

// FuzzReadMetadata: the same property for the meta-data file, plus: what
// the reader accepts, attribution and every report can be run over.
func FuzzReadMetadata(f *testing.F) {
	_, metas := seedFiles(f)
	for _, data := range metas {
		f.Add(data)
	}
	f.Add([]byte("TPMD"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dict, nmap, err := core.ReadMetadata(bytes.NewReader(data))
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := core.WriteMetadata(&again, dict, nmap); err != nil {
			t.Fatalf("accepted file does not re-encode: %v", err)
		}
		dict2, nmap2, err := core.ReadMetadata(bytes.NewReader(again.Bytes()))
		if err != nil || !reflect.DeepEqual(dict, dict2) || !reflect.DeepEqual(nmap, nmap2) {
			t.Fatalf("re-encoded file decodes differently (%v)", err)
		}
		samples := make([]core.Sample, 0, 2*len(nmap.Region)+2)
		for ip := -1; ip <= len(nmap.Region); ip++ {
			samples = append(samples, core.Sample{IP: ip, TSC: uint64(ip + 1), Event: vm.EvMemLoads},
				core.Sample{IP: ip, TSC: uint64(ip + 1), Tag: int64(ip), HasRegs: true, Stack: []int{ip, ip + 2}, HasStack: true})
		}
		p := core.BuildProfile(core.NewAttributor(dict, nmap), samples)
		p.OperatorCosts()
		p.TaskCosts()
		p.BuildTimeline(8)
		p.Canonical()
		dict.Dump()
	})
}
