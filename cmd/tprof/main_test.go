package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/pipeline"
	"repro/internal/pmu"
	"repro/internal/queries"
	"repro/internal/vm"
)

// TestSavedParallelProfileMatchesInline: saveArtifacts, behind `tprof
// -save`, writes the metadata of the program a run executed, merge
// kernels included for a Workers 2 run of fig9, so tpostproc's rebuild of
// the profile from the two files — read the metadata, read the samples,
// attribute — equals the inline profile byte for byte, and the samples
// taken in the merge kernels land on their merge tasks and operators.
func TestSavedParallelProfileMatchesInline(t *testing.T) {
	opts := engine.DefaultOptions()
	opts.Workers = 2
	eng := engine.New(datagen.Generate(datagen.Config{ScaleFactor: 0.05, Seed: 7}), opts)
	w, _ := queries.ByName("fig9")
	cq, err := eng.CompileQuery(w.Query)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(cq, &pmu.Config{Event: vm.EvInstRetired, Period: 97, Format: pmu.FormatIPTimeRegs})
	if err != nil {
		t.Fatal(err)
	}
	prefix := filepath.Join(t.TempDir(), "fig9")
	if err := saveArtifacts(prefix, res); err != nil {
		t.Fatal(err)
	}

	mf, err := os.Open(prefix + ".meta.bin")
	if err != nil {
		t.Fatal(err)
	}
	dict, nmap, err := core.ReadMetadata(mf)
	mf.Close()
	if err != nil {
		t.Fatal(err)
	}
	sf, err := os.Open(prefix + ".samples.bin")
	if err != nil {
		t.Fatal(err)
	}
	samples, err := core.ReadSamples(sf)
	sf.Close()
	if err != nil {
		t.Fatal(err)
	}
	offline := core.BuildProfile(core.NewAttributor(dict, nmap), samples)

	if !bytes.Equal(offline.Canonical(), res.Profile.Canonical()) {
		t.Fatalf("the rebuilt profile differs from the inline one:\n%s\ninline:\n%s", offline.Canonical(), res.Profile.Canonical())
	}
	merge := 0.0
	for id, wt := range offline.TaskWeight {
		if c, ok := offline.Registry.Lookup(id); ok && pipeline.MergeRole(c.Kind) {
			if offline.Dict.OperatorOf(id) == core.NoComponent {
				t.Fatalf("merge task %s has no operator", c.Name)
			}
			merge += wt
		}
	}
	if merge == 0 {
		t.Fatal("no sample of the saved run is attributed to a merge kernel")
	}
}
