package engine

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/pmu"
	"repro/internal/queries"
	"repro/internal/vm"
)

// TestOfflinePostProcessing exercises the full §5.2.2 split on a real
// query: serialize the Tagging Dictionary meta-data and the sample log,
// reload both, and verify the offline profile matches the in-process one.
func TestOfflinePostProcessing(t *testing.T) {
	cat := testCatalog(t)
	cq, res := runOnce(t, cat, queries.Intro(true).Query, DefaultOptions(), &pmu.Config{Event: vm.EvCycles, Period: 499, Format: pmu.FormatIPTimeRegs})

	var meta, slog bytes.Buffer
	if err := core.WriteMetadata(&meta, cq.Pipe.Dict, cq.Code.NMap); err != nil {
		t.Fatal(err)
	}
	if err := core.WriteSamples(&slog, res.Samples); err != nil {
		t.Fatal(err)
	}

	dict, nmap, err := core.ReadMetadata(&meta)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := core.ReadSamples(&slog)
	if err != nil {
		t.Fatal(err)
	}
	offline := core.BuildProfile(core.NewAttributor(dict, nmap), samples)

	if offline.TotalSamples != res.Profile.TotalSamples {
		t.Fatalf("samples %d vs %d", offline.TotalSamples, res.Profile.TotalSamples)
	}
	onCosts := res.Profile.OperatorCosts()
	offCosts := offline.OperatorCosts()
	if len(onCosts) != len(offCosts) {
		t.Fatalf("operator count %d vs %d", len(onCosts), len(offCosts))
	}
	for i := range onCosts {
		if onCosts[i].Name != offCosts[i].Name ||
			math.Abs(onCosts[i].Pct-offCosts[i].Pct) > 1e-9 {
			t.Fatalf("row %d: %+v vs %+v", i, onCosts[i], offCosts[i])
		}
	}
	a, b := res.Profile.Attribution(), offline.Attribution()
	if math.Abs(a.UnattributedPct-b.UnattributedPct) > 1e-9 {
		t.Fatalf("attribution differs: %+v vs %+v", a, b)
	}
}

// TestSuiteAtScale is a soak test: the whole suite against the reference
// executor on a larger dataset and a different seed.
func TestSuiteAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	(&lattice{src: source{build: func() *catalog.Catalog { return datagen.Generate(datagen.Config{ScaleFactor: 1.0, Seed: 99}) },
		stmts: suiteStmts(), opts: DefaultOptions()}}).run(t)
}
