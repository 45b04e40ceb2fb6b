package tprof

import (
	"strings"
	"testing"

	"repro/internal/plan"
)

// TestPublicAPIRoundTrip exercises the exported surface the README's
// quick start uses: generate data, compile SQL, run under sampling,
// render reports.
func TestPublicAPIRoundTrip(t *testing.T) {
	cat := GenerateData(DataConfig{ScaleFactor: 0.1, Seed: 1})
	eng := NewEngine(cat, DefaultOptions())
	cq, err := eng.CompileSQL(`
		select l_orderkey, avg(l_extendedprice) as avg_price
		from lineitem, orders
		where o_orderdate < '1995-04-01' and o_orderkey = l_orderkey
		group by l_orderkey`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(cq, &SamplingConfig{
		Event: EventCycles, Period: 997, Format: FormatIPTimeRegs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 || res.Profile.TotalSamples == 0 {
		t.Fatal("no rows or samples")
	}

	// Cross-check against the reference executor.
	want, err := ReferenceExecute(cq.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(res.Rows) {
		t.Fatalf("rows %d vs reference %d", len(res.Rows), len(want))
	}

	// The optimizer fuses this shape into a groupjoin (§5.4).
	planTxt := AnnotatedPlan(cq.Plan, cq, res.Profile)
	if !strings.Contains(planTxt, "groupjoin") || !strings.Contains(planTxt, "%") {
		t.Fatalf("plan report:\n%s", planTxt)
	}
	if !strings.Contains(OperatorTable(res.Profile), "groupjoin") {
		t.Fatal("operator table missing groupjoin")
	}
	if len(TimelineChart(res.Profile, 20)) == 0 {
		t.Fatal("timeline empty")
	}
	if !strings.Contains(ResultTable(res, 5), "l_orderkey") {
		t.Fatal("result table missing header")
	}
}

// TestPublicZoom drills into a sub-interval.
func TestPublicZoom(t *testing.T) {
	cat := GenerateData(DataConfig{ScaleFactor: 0.1, Seed: 1})
	eng := NewEngine(cat, DefaultOptions())
	cq, err := eng.CompileSQL(`select count(*) from lineitem, orders where o_orderkey = l_orderkey`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(cq, &SamplingConfig{Event: EventCycles, Period: 499, Format: FormatIPTimeRegs})
	if err != nil {
		t.Fatal(err)
	}
	mid := (res.Profile.MinTSC + res.Profile.MaxTSC) / 2
	sub := Zoom(res, res.Profile.MinTSC, mid)
	if sub.TotalSamples == 0 || sub.TotalSamples >= res.Profile.TotalSamples {
		t.Fatalf("zoom samples = %d of %d", sub.TotalSamples, res.Profile.TotalSamples)
	}
	if sub.MaxTSC > mid {
		t.Fatal("zoom did not respect the interval")
	}
}

// TestPublicAnalyze covers the EXPLAIN ANALYZE surface.
func TestPublicAnalyze(t *testing.T) {
	cat := GenerateData(DataConfig{ScaleFactor: 0.1, Seed: 1})
	opts := DefaultOptions()
	opts.TupleCounters = true
	eng := NewEngine(cat, opts)
	cq, err := eng.CompileSQL(`select o_custkey, count(*) from orders group by o_custkey`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(cq, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := AnalyzedPlan(cq, res)
	if !strings.Contains(out, "rows=") {
		t.Fatalf("analyzed plan:\n%s", out)
	}
}

// TestProgrammaticPlans builds a query without SQL through the plan
// package's constructors (the custom_dataflow example's path).
func TestProgrammaticPlans(t *testing.T) {
	cat := GenerateData(DataConfig{ScaleFactor: 0.1, Seed: 1})
	eng := NewEngine(cat, DefaultOptions())
	q := &Query{
		Tables: []plan.TableRef{{Name: "orders"}},
		Where:  []plan.Expr{plan.Lt(plan.Col("o_orderdate"), plan.Str("1994-01-01"))},
		Select: []plan.SelectItem{
			{Expr: plan.Col("o_orderkey")},
		},
		Limit: 10,
	}
	cq, err := eng.CompileQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(cq, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}
