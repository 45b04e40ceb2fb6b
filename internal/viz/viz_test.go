package viz

import (
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/pmu"
	"repro/internal/queries"
	"repro/internal/vm"
)

// profiled compiles and runs a workload with sampling.
func profiled(t *testing.T, name string, ev vm.Event) (*engine.Compiled, *engine.Result) {
	t.Helper()
	return profiledAt(t, 11, name, &pmu.Config{Event: ev, Period: 499, Format: pmu.FormatIPTimeRegs})
}

func profiledAt(t *testing.T, seed uint64, name string, cfg *pmu.Config) (*engine.Compiled, *engine.Result) {
	t.Helper()
	cat := datagen.Generate(datagen.Config{ScaleFactor: 0.2, Seed: seed})
	eng := engine.New(cat, engine.DefaultOptions())
	w, ok := queries.ByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	cq, err := eng.CompileQuery(w.Query)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(cq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cq, res
}

func TestAnnotatedPlanShowsPercentages(t *testing.T) {
	cq, res := profiled(t, "intro-nogj", vm.EvCycles)
	out := AnnotatedPlan(cq.Plan, cq.Pipe, res.Profile)
	if !strings.Contains(out, "%") || !strings.Contains(out, "group by") {
		t.Fatalf("plan annotation missing:\n%s", out)
	}
	if !strings.Contains(out, "[σ") {
		t.Fatalf("filter annotation missing:\n%s", out)
	}
}

func TestOperatorTableFormat(t *testing.T) {
	_, res := profiled(t, "fig9", vm.EvCycles)
	out := OperatorTable(res.Profile)
	for _, want := range []string{"operator", "share", "kernel", "<unattributed>"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

func TestAnnotatedIRRendersSuffixes(t *testing.T) {
	cq, res := profiled(t, "intro-nogj", vm.EvCycles)
	var probe string
	for _, p := range cq.Pipe.Pipelines {
		for _, tid := range p.Tasks {
			if cq.Pipe.Registry.Get(tid).Kind == "probe" {
				probe = p.Func
			}
		}
	}
	f := cq.Pipe.Module.FuncByName(probe)
	out := AnnotatedIR(f, cq.Pipe, res.Profile)
	if !strings.Contains(out, "join") || !strings.Contains(out, "group by") {
		t.Fatalf("IR annotation missing operators:\n%s", out)
	}
	if !strings.Contains(out, "loopHashChain") {
		t.Fatalf("block names missing:\n%s", out)
	}
}

// TestAnnotatedIRReproducible: block headers list operators by weight,
// and under sparse sampling operators tie exactly (q13 at seed 104 is
// where the benchmark saw the listing change run to run); 20 renders of
// one profile must be byte-equal.
func TestAnnotatedIRReproducible(t *testing.T) {
	cq, res := profiledAt(t, 104, "q13", &pmu.Config{Event: vm.EvCycles, Period: 5000, Format: pmu.FormatIPTimeRegs})
	render := func() string {
		var sb strings.Builder
		for _, f := range cq.Pipe.Module.Funcs {
			sb.WriteString(AnnotatedIR(f, cq.Pipe, res.Profile))
		}
		return sb.String()
	}
	first := render()
	for i := 1; i < 20; i++ {
		if again := render(); again != first {
			t.Fatalf("render %d differs from the first", i)
		}
	}
}

func TestTimelineChartDimensions(t *testing.T) {
	_, res := profiled(t, "fig9", vm.EvCycles)
	tl := res.Profile.BuildTimeline(40)
	out := TimelineChart(tl, 3.5)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 3 {
		t.Fatalf("chart too short:\n%s", out)
	}
	for _, l := range lines[1:] {
		if !strings.HasSuffix(l, "|") {
			t.Fatalf("row not terminated: %q", l)
		}
	}
}

func TestTimelineSeriesParsable(t *testing.T) {
	_, res := profiled(t, "fig9", vm.EvCycles)
	tl := res.Profile.BuildTimeline(10)
	out := TimelineSeries(tl, 3.5)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 11 { // header + 10 bins
		t.Fatalf("series lines = %d", len(lines))
	}
	cols := strings.Split(lines[0], "\t")
	for _, l := range lines[1:] {
		if got := len(strings.Split(l, "\t")); got != len(cols) {
			t.Fatalf("ragged series row: %q", l)
		}
	}
}

func TestMemoryProfileFiltersFloor(t *testing.T) {
	_, res := profiled(t, "fig9", vm.EvMemLoads)
	all := MemoryProfile(res.Profile, 40, 4, 0)
	filtered := MemoryProfile(res.Profile, 40, 4, engine.DataFloor)
	if len(all) == 0 {
		t.Fatal("no memory profile at all")
	}
	if len(filtered) >= len(all)+100 {
		t.Fatal("floor filter increased output?")
	}
	if strings.Contains(filtered, "span 1B") && !strings.Contains(all, "span 1B") {
		t.Fatal("floor introduced degenerate spans")
	}
}

func TestResultTableDecodesValues(t *testing.T) {
	cat := datagen.Generate(datagen.Config{ScaleFactor: 0.2, Seed: 11})
	eng := engine.New(cat, engine.DefaultOptions())
	cq, err := eng.CompileSQL(`select o_orderkey, o_orderdate from orders order by o_orderkey limit 3`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(cq, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := ResultTable(res, 10)
	if !strings.Contains(out, "199") { // a 1990s date string
		t.Fatalf("dates not decoded:\n%s", out)
	}
	// Truncation note.
	out = ResultTable(res, 2)
	if !strings.Contains(out, "rows total") {
		t.Fatalf("truncation note missing:\n%s", out)
	}
}

func TestShadeBounds(t *testing.T) {
	if shade(0) != ' ' {
		t.Fatal("zero intensity should be blank")
	}
	if shade(1.5) != '@' || shade(-1) != ' ' {
		t.Fatal("shade does not clamp")
	}
}
