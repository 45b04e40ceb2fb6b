package engine

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/plan"
	"repro/internal/pmu"
	"repro/internal/queries"
	"repro/internal/vm"
)

// canon sorts rows lexicographically for order-insensitive comparison.
func canon(rows [][]int64) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

func rowsEqual(t *testing.T, got, want [][]int64, ordered bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("row count: got %d, want %d", len(got), len(want))
	}
	g, w := canon(got), canon(want)
	if ordered {
		g, w = make([]string, len(got)), make([]string, len(want))
		for i := range got {
			g[i] = fmt.Sprint(got[i])
			w[i] = fmt.Sprint(want[i])
		}
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("row %d: got %s, want %s", i, g[i], w[i])
		}
	}
}

// TestSuiteMatchesReference compiles and runs every workload of the
// evaluation suite and compares against the interpreted reference
// executor — the end-to-end conformance test of the whole stack.
func TestSuiteMatchesReference(t *testing.T) { suiteMatchesReference().run(t) }

func suiteMatchesReference() *lattice {
	src := testSource(suiteStmts()...)
	src.opts.MorselRows = 0
	return &lattice{src: src}
}

// TestSuiteOptimizationsPreserveResults re-runs the suite with IR
// optimizations and instruction fusing disabled; results must not change
// (Table 1 transformations are semantics-preserving).
func TestSuiteOptimizationsPreserveResults(t *testing.T) { suiteOptimizations().run(t) }

// plainOptions are DefaultOptions with the IR optimizations and
// instruction fusing off.
func plainOptions() Options {
	o := DefaultOptions()
	o.Optimize.CSE, o.Optimize.ConstFold, o.Optimize.DCE, o.FuseCmpBranch = false, false, false, false
	return o
}

func suiteOptimizations() *lattice {
	return &lattice{src: suiteMatchesReference().src, axes: []axis{optionsAxis(DefaultOptions(), plainOptions())}}
}

// TestSuiteProfiledAttribution runs every workload under sampling and
// requires high attribution — the per-query backbone of Table 2.
func TestSuiteProfiledAttribution(t *testing.T) {
	cat := testCatalog(t)
	for _, w := range queries.Suite() {
		t.Run(w.Name, func(t *testing.T) {
			_, res := runOnce(t, cat, w.Query, DefaultOptions(), &pmu.Config{Event: vm.EvCycles, Period: 997, Format: pmu.FormatIPTimeRegs})
			if res.Profile.TotalSamples < 20 {
				t.Skipf("only %d samples", res.Profile.TotalSamples)
			}
			att := res.Profile.Attribution()
			if att.AttributedPct < 90 {
				t.Errorf("attribution %.1f%% below 90%% (%+v)", att.AttributedPct, att)
			}
		})
	}
}

// TestPlanShapesForFig10 checks that the hints produce the two distinct
// probe orders of the optimizer use case.
func TestPlanShapesForFig10(t *testing.T) {
	cat := testCatalog(t)
	e := New(cat, DefaultOptions())
	for _, alt := range []bool{false, true} {
		w := queries.Fig10(alt)
		cq, err := e.CompileQuery(w.Query)
		if err != nil {
			t.Fatal(err)
		}
		top, ok := cq.Plan.Input.(*plan.GroupBy)
		if !ok {
			t.Fatalf("%s: top is %T, want GroupBy", w.Name, cq.Plan.Input)
		}
		j2, ok := top.Input.(*plan.Join)
		if !ok {
			t.Fatalf("%s: below group-by is %T", w.Name, top.Input)
		}
		j1, ok := j2.Probe.(*plan.Join)
		if !ok {
			t.Fatalf("%s: probe side is %T, want a second join", w.Name, j2.Probe)
		}
		outer := j2.Build.(*plan.Scan).Alias
		inner := j1.Build.(*plan.Scan).Alias
		wantInner, wantOuter := "partsupp", "orders"
		if alt {
			wantInner, wantOuter = "orders", "partsupp"
		}
		if inner != wantInner || outer != wantOuter {
			t.Fatalf("%s: probe order %s→%s, want %s→%s", w.Name, inner, outer, wantInner, wantOuter)
		}
	}
}
