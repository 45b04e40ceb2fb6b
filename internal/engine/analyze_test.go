package engine

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/queries"
)

// TestTupleCountersMatchGroundTruth: the EXPLAIN ANALYZE counters must
// agree with counts computed host-side from the catalog.
func TestTupleCountersMatchGroundTruth(t *testing.T) {
	cat := testCatalog(t)
	opts := DefaultOptions()
	opts.TupleCounters = true
	cq, res := runOnce(t, cat, queries.Fig9().Query, opts, nil)
	if len(res.TupleCounts) == 0 {
		t.Fatal("no counters collected")
	}

	byName := map[string]int64{}
	for _, task := range cq.Pipe.Registry.ByLevel(core.LevelTask) {
		if n, ok := res.TupleCounts[task.ID]; ok {
			byName[task.Name] = n
		}
	}

	li, _ := cat.Table("lineitem")
	orders, _ := cat.Table("orders")
	cutoff, _ := catalog.ParseDate("1995-04-01")

	// Ground truth.
	passDates := map[int64]bool{}
	var filtered int64
	for i, d := range orders.Col("o_orderdate").Data {
		if d < cutoff {
			filtered++
			passDates[orders.Col("o_orderkey").Data[i]] = true
		}
	}
	var joined int64
	for _, k := range li.Col("l_orderkey").Data {
		if passDates[k] {
			joined++
		}
	}

	if got := byName["scan(tablescan lineitem)"]; got != int64(li.Rows()) {
		t.Errorf("lineitem scan counter = %d, want %d", got, li.Rows())
	}
	if got := byName["scan(tablescan orders)"]; got != int64(orders.Rows()) {
		t.Errorf("orders scan counter = %d, want %d", got, orders.Rows())
	}
	if got := byName["filter(tablescan orders)"]; got != filtered {
		t.Errorf("filter counter = %d, want %d", got, filtered)
	}
	if got := byName["build(join orders)"]; got != filtered {
		t.Errorf("build counter = %d, want %d", got, filtered)
	}
	if got := byName["probe(join orders)"]; got != joined {
		t.Errorf("probe counter = %d, want %d (join cardinality)", got, joined)
	}
	if got := byName["output(output)"]; got != int64(len(res.Rows)) {
		t.Errorf("output counter = %d, want %d rows", got, len(res.Rows))
	}
	if byName["aggregate(group by)"] != byName["htscan(group by)"] {
		t.Errorf("group insert (%d) != group scan (%d)",
			byName["aggregate(group by)"], byName["htscan(group by)"])
	}
}

// TestTupleCountersPreserveResults: instrumentation must not change query
// results.
func TestTupleCountersPreserveResults(t *testing.T) {
	cat := testCatalog(t)
	plain := New(cat, DefaultOptions())
	opts := DefaultOptions()
	opts.TupleCounters = true
	counted := New(cat, opts)
	for _, name := range []string{"intro-nogj", "intro", "fig9", "q16"} {
		w, _ := queries.ByName(name)
		c1, err := plain.CompileQuery(w.Query)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := counted.CompileQuery(w.Query)
		if err != nil {
			t.Fatal(err)
		}
		r1, err := plain.Run(c1, nil)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := counted.Run(c2, nil)
		if err != nil {
			t.Fatal(err)
		}
		rowsEqual(t, r1.Rows, r2.Rows, len(c1.Plan.OrderBy) > 0)
	}
}
