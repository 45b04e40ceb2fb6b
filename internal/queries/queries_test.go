package queries

import (
	"reflect"
	"testing"

	"repro/internal/datagen"
	"repro/internal/plan"
	"repro/internal/sqlparse"
)

// TestSuiteIsItsSQL: a workload's query is its statement read by the one
// parser, plus hints — in both suites — and the printer/parser law holds
// on it, so tools may show either form.
func TestSuiteIsItsSQL(t *testing.T) {
	for _, w := range append(Suite(), SQLSuite()...) {
		q, err := sqlparse.Parse(w.SQL)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		q.Hints = w.Query.Hints
		if !reflect.DeepEqual(q, w.Query) {
			t.Errorf("%s: Query is not its SQL parsed:\n  %s\n  %s", w.Name, w.Query.SQL(), q.SQL())
		}
		back, err := sqlparse.Parse(w.Query.SQL())
		if err != nil {
			t.Fatalf("%s: printed form does not parse: %v", w.Name, err)
		}
		back.Hints = w.Query.Hints
		if !reflect.DeepEqual(back, w.Query) {
			t.Errorf("%s: %q re-parses to %q", w.Name, w.Query.SQL(), back.SQL())
		}
	}
}

func TestSuiteUniqueNames(t *testing.T) {
	seen := map[string]bool{}
	for _, w := range Suite() {
		if w.Name == "" || w.Description == "" {
			t.Errorf("workload with empty name/description: %+v", w)
		}
		if seen[w.Name] {
			t.Errorf("duplicate workload name %q", w.Name)
		}
		seen[w.Name] = true
	}
}

func TestSuiteAllPlannable(t *testing.T) {
	cat := datagen.Generate(datagen.Config{ScaleFactor: 0.1, Seed: 1})
	for _, w := range Suite() {
		if _, err := plan.Plan(cat, w.Query); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("fig9"); !ok {
		t.Fatal("fig9 missing")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("bogus name found")
	}
}

func TestFig10PlansDiffer(t *testing.T) {
	a, b := Fig10(false), Fig10(true)
	if a.Query.Hints.ProbeOrder[0] == b.Query.Hints.ProbeOrder[0] {
		t.Fatal("fig10 variants share a probe order")
	}
}

func TestIntroVariants(t *testing.T) {
	if !Intro(true).Query.Hints.NoGroupJoin {
		t.Fatal("intro-nogj lacks hint")
	}
	if Intro(false).Query.Hints.NoGroupJoin {
		t.Fatal("intro should allow fusion")
	}
}

func TestLimitsDefaulted(t *testing.T) {
	for _, w := range Suite() {
		if w.Query.Limit == 0 {
			t.Errorf("%s: zero limit would return no rows", w.Name)
		}
	}
}

// TestSuiteHasTwentyTwoQueries mirrors the paper's evaluation breadth
// ("all 22 TPC-H queries").
func TestSuiteHasTwentyTwoQueries(t *testing.T) {
	if got := len(Suite()); got != 22 {
		t.Fatalf("suite has %d workloads, want 22", got)
	}
}
