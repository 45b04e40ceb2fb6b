package engine

import (
	"testing"

	"repro/internal/datagen"

	"repro/internal/core"
	"repro/internal/pmu"
	"repro/internal/queries"
	"repro/internal/vm"
)

// TestCallStackSamplingResolvesSharedCode runs with the call-stack record
// format and Register Tagging disabled: samples landing in the shared
// ht_insert routine must still resolve to the right task via the recorded
// call stack (the paper's fallback for managed runtimes, §4.2.5).
func TestCallStackSamplingResolvesSharedCode(t *testing.T) {
	cat := testCatalog(t)
	opts := DefaultOptions()
	opts.RegisterTagging = false
	cq, res := runOnce(t, cat, queries.Intro(true).Query, opts, &pmu.Config{Event: vm.EvCycles, Period: 199, Format: pmu.FormatCallStack})
	// Some samples must land inside ht_insert and be resolved.
	att := core.NewAttributor(cq.Pipe.Dict, cq.Code.NMap)
	inShared, resolved := 0, 0
	for i := range res.Samples {
		s := &res.Samples[i]
		if s.IP < len(cq.Code.NMap.Region) && cq.Code.NMap.Region[s.IP] == core.RegionShared {
			inShared++
			if att.Attribute(s).Class == core.ClassOperator {
				resolved++
			}
		}
	}
	if inShared == 0 {
		t.Skip("no samples landed in shared code this run")
	}
	if resolved != inShared {
		t.Fatalf("resolved %d/%d shared samples via call stacks", resolved, inShared)
	}
	a := res.Profile.Attribution()
	if a.AttributedPct < 90 {
		t.Fatalf("attribution with call stacks = %.1f%%", a.AttributedPct)
	}
}

// TestRegisterTaggingDisabledLosesSharedSamples: with neither tagging nor
// call stacks, shared-code samples cannot be attributed — the gap Register
// Tagging exists to close.
func TestRegisterTaggingDisabledLosesSharedSamples(t *testing.T) {
	cat := testCatalog(t)
	opts := DefaultOptions()
	opts.RegisterTagging = false
	// No registers and no call stack.
	cq, res := runOnce(t, cat, queries.Intro(true).Query, opts, &pmu.Config{Event: vm.EvCycles, Period: 97, Format: pmu.FormatIPTime})
	att := core.NewAttributor(cq.Pipe.Dict, cq.Code.NMap)
	lost := 0
	for i := range res.Samples {
		s := &res.Samples[i]
		if s.IP < len(cq.Code.NMap.Region) && cq.Code.NMap.Region[s.IP] == core.RegionShared {
			if att.Attribute(s).Class == core.ClassUnattributed {
				lost++
			}
		}
	}
	if lost == 0 {
		t.Skip("no shared-code samples this run")
	}
}

// TestSampledRunsAreDeterministic: identical configuration ⇒ identical
// samples (the property all regression comparisons rely on).
func TestSampledRunsAreDeterministic(t *testing.T) {
	cat := testCatalog(t)
	e := New(cat, DefaultOptions())
	cq, err := e.CompileQuery(queries.Fig9().Query)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &pmu.Config{Event: vm.EvCycles, Period: 499, Format: pmu.FormatIPTimeRegs}
	r1, err := e.Run(cq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Run(cq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Samples) != len(r2.Samples) {
		t.Fatalf("sample counts differ: %d vs %d", len(r1.Samples), len(r2.Samples))
	}
	for i := range r1.Samples {
		a, b := r1.Samples[i], r2.Samples[i]
		if a.IP != b.IP || a.TSC != b.TSC || a.Tag != b.Tag || a.Addr != b.Addr {
			t.Fatalf("sample %d differs: %+v vs %+v", i, a, b)
		}
	}
	if r1.Stats != r2.Stats {
		t.Fatalf("stats differ: %+v vs %+v", r1.Stats, r2.Stats)
	}
}

// TestInstructionsEventProfile: sampling INST_RETIRED yields a profile too
// (uniform per instruction rather than cost-weighted).
func TestInstructionsEventProfile(t *testing.T) {
	cat := testCatalog(t)
	_, res := runOnce(t, cat, queries.Intro(true).Query, DefaultOptions(), &pmu.Config{Event: vm.EvInstRetired, Period: 503, Format: pmu.FormatIPTimeRegs})
	if res.Profile.TotalSamples < 50 {
		t.Fatalf("samples = %d", res.Profile.TotalSamples)
	}
	if a := res.Profile.Attribution(); a.AttributedPct < 90 {
		t.Fatalf("attribution = %.1f%%", a.AttributedPct)
	}
}

// TestProfileWeightConservation: per-operator weights + unattributed must
// sum to the sample count (no weight is created or destroyed).
func TestProfileWeightConservation(t *testing.T) {
	cat := testCatalog(t)
	e := New(cat, DefaultOptions())
	for _, w := range queries.Suite()[:6] {
		cq, err := e.CompileQuery(w.Query)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(cq, &pmu.Config{Event: vm.EvCycles, Period: 997, Format: pmu.FormatIPTimeRegs})
		if err != nil {
			t.Fatal(err)
		}
		p := res.Profile
		total := p.Unattributed
		for _, wgt := range p.OpWeight {
			total += wgt
		}
		if diff := total - float64(p.TotalSamples); diff > 0.01 || diff < -0.01 {
			t.Errorf("%s: weight sum %f != samples %d", w.Name, total, p.TotalSamples)
		}
	}
}

// TestEagerColumnLoadsPreserveResults: the Fig. 12 attribution mode must
// not change query semantics.
func TestEagerColumnLoadsPreserveResults(t *testing.T) {
	cat := testCatalog(t)
	lazy := New(cat, DefaultOptions())
	opts := DefaultOptions()
	opts.EagerColumnLoads = true
	eager := New(cat, opts)
	for _, w := range []string{"intro-nogj", "fig9", "q16"} {
		wl, _ := queries.ByName(w)
		c1, err := lazy.CompileQuery(wl.Query)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := eager.CompileQuery(wl.Query)
		if err != nil {
			t.Fatal(err)
		}
		r1, err := lazy.Run(c1, nil)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := eager.Run(c2, nil)
		if err != nil {
			t.Fatal(err)
		}
		rowsEqual(t, r1.Rows, r2.Rows, len(c1.Plan.OrderBy) > 0)
	}
}

// TestCompileSQLEndToEnd goes SQL text → rows.
func TestCompileSQLEndToEnd(t *testing.T) {
	cat := testCatalog(t)
	e := New(cat, DefaultOptions())
	cq, err := e.CompileSQL(`select count(*) as n from lineitem where l_quantity < 10`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(cq, nil)
	if err != nil {
		t.Fatal(err)
	}
	li, _ := cat.Table("lineitem")
	want := int64(0)
	for _, q := range li.Col("l_quantity").Data {
		if q < 10 {
			want++
		}
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != want {
		t.Fatalf("count = %v, want %d", res.Rows, want)
	}
}

func TestCompileSQLSyntaxError(t *testing.T) {
	e := New(testCatalog(t), DefaultOptions())
	if _, err := e.CompileSQL("selec broken"); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := e.CompileSQL("select x from no_such_table"); err == nil {
		t.Fatal("expected planning error")
	}
}

// TestCacheMissAttribution: sampling L3 misses attributes DRAM traffic to
// the hash-table operators, not the sequential scans — the operator
// developer's "which data structure hurts" workflow (§6.1).
func TestCacheMissAttribution(t *testing.T) {
	cat := datagen.Generate(datagen.Config{ScaleFactor: 1.0, Seed: 5})
	_, res := runOnce(t, cat, queries.Fig9().Query, DefaultOptions(), &pmu.Config{Event: vm.EvL3Miss, Period: 13, Format: pmu.FormatIPTimeRegs})
	if res.Profile.TotalSamples < 30 {
		t.Skipf("only %d L3-miss samples", res.Profile.TotalSamples)
	}
	shares := map[string]float64{}
	for _, c := range res.Profile.OperatorCosts() {
		shares[c.Kind] += c.Pct
	}
	htShare := shares["hash join"] + shares["group by"]
	scanShare := shares["tablescan"] + shares["tablescan+filter"]
	if htShare <= scanShare {
		t.Errorf("hash operators (%.1f%%) should dominate DRAM misses over scans (%.1f%%)",
			htShare, scanShare)
	}
}
