package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/queries"
)

// smallEnv keeps the integration smoke tests fast.
func smallEnv(t *testing.T) *Env {
	t.Helper()
	return NewEnv(0.15, 3)
}

func TestListing1Report(t *testing.T) {
	out, err := smallEnv(t).Listing1()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"loopHashChain", "Log A", "Tagging Dictionary"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

// TestPlanCostsReport: fig9's group-by and join operators together hold
// at least 80 % of its samples (ROADMAP item 1(b)'s bound; Fig. 9b's
// two workhorses hold 97.5 %).
func TestPlanCostsReport(t *testing.T) {
	out, costs, err := smallEnv(t).PlanCosts()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "fig9") || !strings.Contains(out, "group by") {
		t.Fatalf("report incomplete:\n%s", out)
	}
	fig9 := costs[0]
	if fig9.Query != "fig9" {
		t.Fatalf("first plan is %s, want fig9", fig9.Query)
	}
	t.Logf("fig9: group by %.1f %%, join %.1f %%", fig9.GroupByPct, fig9.JoinPct)
	if sum := fig9.GroupByPct + fig9.JoinPct; sum < 80 {
		t.Errorf("fig9's group by and join hold %.1f %% of its samples, want >= 80 %%", sum)
	}
}

// TestOptimizerReportShowsSpeedup: Fig. 10's alternative plan is at least
// 1.3x faster than the optimizer's (ROADMAP item 1(b)'s bound).
func TestOptimizerReportShowsSpeedup(t *testing.T) {
	out, speedup, err := smallEnv(t).Optimizer()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("Fig. 10 speedup of the alternative plan: %.2fx", speedup)
	if speedup < 1.3 {
		t.Errorf("alternative plan is %.2fx faster than the optimizer's, want >= 1.3x", speedup)
	}
	if !strings.Contains(out, "mispredictions") {
		t.Fatal("no branch statistics")
	}
}

func TestOverheadOrdering(t *testing.T) {
	_, points, err := smallEnv(t).Overhead()
	if err != nil {
		t.Fatal(err)
	}
	// At every frequency: callstack ≫ regs ≥ time; overhead grows with
	// frequency within each config.
	byLabel := map[string][]OverheadPoint{}
	for _, p := range points {
		byLabel[p.Label] = append(byLabel[p.Label], p)
	}
	for label, ps := range byLabel {
		for i := 1; i < len(ps); i++ {
			if ps[i].FreqKHz > ps[i-1].FreqKHz && ps[i].Overhead < ps[i-1].Overhead {
				t.Errorf("%s: overhead not monotone in frequency: %+v", label, ps)
			}
		}
	}
	cs := byLabel["IP, Callstack"]
	rg := byLabel["IP, Time, Registers"]
	tm := byLabel["IP, Time"]
	for i := range cs {
		if cs[i].Overhead < 5*rg[i].Overhead {
			t.Errorf("callstack overhead (%.2f) not ≫ register overhead (%.2f) at %v kHz",
				cs[i].Overhead, rg[i].Overhead, cs[i].FreqKHz)
		}
		if rg[i].Overhead < tm[i].Overhead {
			t.Errorf("registers cheaper than plain at %v kHz", cs[i].FreqKHz)
		}
	}
}

func TestAttributionRows(t *testing.T) {
	_, rows, err := smallEnv(t).Attribution()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	total := rows[len(rows)-1]
	if total.Query != "TOTAL" {
		t.Fatal("missing TOTAL row")
	}
	// Table 2's three buckets within ±3 points of the paper's
	// 95.4 / 2.6 / 2.0 %, from above and from below.
	for _, b := range []struct {
		name       string
		got, paper float64
	}{
		{"operators", total.OperatorPct, 95.4},
		{"kernel", total.KernelPct, 2.6},
		{"unattributed", total.NoAttrib, 2.0},
	} {
		t.Logf("%s: %.1f%% (paper %.1f%%)", b.name, b.got, b.paper)
		if math.Abs(b.got-b.paper) > 3 {
			t.Errorf("%s = %.1f%%, want within ±3 points of the paper's %.1f%%", b.name, b.got, b.paper)
		}
	}
}

// TestTagEverythingSuiteZeroMismatches extends §6.3(a)'s cross-check from
// intro-nogj to all 22 suite plans: every sampled tag must name the task
// owning the sampled instruction, in code the optimizer moved (fig10-opt,
// fig10-alt) and after a pipeline call returns to main (q3).
func TestTagEverythingSuiteZeroMismatches(t *testing.T) {
	env := NewEnv(0.2, 1)
	total := 0
	for _, w := range queries.Suite() {
		checked, mismatches, err := tagCrossCheck(env.Cat, w.Query)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if mismatches != 0 {
			t.Errorf("%s: %d of %d cross-checked samples carry another task's tag", w.Name, mismatches, checked)
		}
		total += checked
	}
	if total < 10000 {
		t.Fatalf("checked only %d samples over the suite", total)
	}
	t.Logf("%d samples cross-checked over %d plans", total, len(queries.Suite()))
}

func TestAccuracyZeroMismatches(t *testing.T) {
	_, st, err := smallEnv(t).Accuracy()
	if err != nil {
		t.Fatal(err)
	}
	// A load carries its folded address Add's IR ID; counting only
	// single-ID instructions would check about a third of these.
	if st.TagChecked < 500 {
		t.Fatalf("checked only %d samples", st.TagChecked)
	}
	if st.TagMismatches != 0 {
		t.Fatalf("tag mismatches = %d (paper: 0)", st.TagMismatches)
	}
	if st.LoadSamplesOnLoads < 0.999 {
		t.Fatalf("load plausibility = %v", st.LoadSamplesOnLoads)
	}
	if st.BranchMissOnBranches < 0.999 {
		t.Fatalf("branch plausibility = %v", st.BranchMissOnBranches)
	}
}

func TestTable1AllImplementedVerified(t *testing.T) {
	_, rows, err := smallEnv(t).Table1()
	if err != nil {
		t.Fatal(err)
	}
	motion := false
	for _, r := range rows {
		if r.Implemented && !r.Verified {
			t.Errorf("%s: implemented but failed verification (%s)", r.Optimization, r.Note)
		}
		motion = motion || r.Optimization == "Code motion" && r.Verified
	}
	if !motion {
		t.Error("no verified Code motion row")
	}
}

func TestLoCCountsThisRepo(t *testing.T) {
	out, err := LoC("../..")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "internal/core") || !strings.Contains(out, "TOTAL") {
		t.Fatalf("loc report incomplete:\n%s", out)
	}
}
