package cost

// Unit tests for the cost layer: history EWMA/versioning semantics and
// concurrency safety (run under -race in CI), the estimators, the cycle
// model, the knob decisions, and the model checker.

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/plan"
	"repro/internal/sqlparse"
)

func TestHistoryObserveSemantics(t *testing.T) {
	h := NewHistory()
	if _, ok := h.Lookup("e1"); ok {
		t.Fatal("empty history answered a lookup")
	}
	if !h.Observe("e1", 100) {
		t.Fatal("first observation must be material")
	}
	if r, ok := h.Lookup("e1"); !ok || r != 100 {
		t.Fatalf("Lookup = %v,%v want 100,true", r, ok)
	}
	v := h.Version()
	if h.Observe("e1", 100) {
		t.Fatal("repeat of the same value must not be material")
	}
	if h.Version() != v {
		t.Fatal("version bumped without a material change")
	}
	// EWMA with alpha=0.5: 100 -> 150 on observing 200, a 50% shift.
	if !h.Observe("e1", 200) {
		t.Fatal("a 50% shift must be material")
	}
	if r, _ := h.Lookup("e1"); r != 150 {
		t.Fatalf("EWMA = %v, want 150", r)
	}
	if h.Version() != v+1 {
		t.Fatalf("version = %d, want %d", h.Version(), v+1)
	}
	// A small drift stays immaterial: 150 -> 155 is ~3%.
	if h.Observe("e1", 160) {
		t.Fatal("a 3% smoothed shift must not be material")
	}
	// Non-positive counts clamp to one row.
	h.Observe("e2", 0)
	if r, _ := h.Lookup("e2"); r != 1 {
		t.Fatalf("clamped rows = %v, want 1", r)
	}
	if h.Len() != 2 {
		t.Fatalf("Len = %d, want 2", h.Len())
	}
}

// TestHistoryConcurrency hammers one history from many goroutines —
// meaningful under -race (the CI ce-smoke job runs this package with it).
func TestHistoryConcurrency(t *testing.T) {
	h := NewHistory()
	var wg sync.WaitGroup
	canons := []string{"a", "b", "c", "d"}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c := canons[(g+i)%len(canons)]
				h.Observe(c, int64(100+i%50))
				h.Lookup(c)
				h.Version()
				h.Len()
			}
		}(g)
	}
	wg.Wait()
	if h.Len() != len(canons) {
		t.Fatalf("Len = %d, want %d", h.Len(), len(canons))
	}
	for _, c := range canons {
		if r, ok := h.Lookup(c); !ok || r < 1 || r > 200 {
			t.Fatalf("Lookup(%s) = %v,%v out of range", c, r, ok)
		}
	}
}

func TestHistoryKeying(t *testing.T) {
	// The history keys by sqlparse.Hash64 of the canon — equal canons
	// share an entry regardless of which string instance observed them.
	h := NewHistory()
	h.Observe("scan(x)", 42)
	if r, ok := h.Lookup("scan(" + "x)"); !ok || r != 42 {
		t.Fatalf("Lookup through equal canon = %v,%v", r, ok)
	}
	if sqlparse.Hash64("scan(x)") == sqlparse.Hash64("scan(y)") {
		t.Fatal("distinct canons share a hash")
	}
}

func costCat() *catalog.Catalog {
	return datagen.Generate(datagen.Config{ScaleFactor: 0.05, Seed: 42})
}

func planSQL(t testing.TB, cat *catalog.Catalog, sql string, est plan.Estimator) *plan.Output {
	t.Helper()
	q, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.PlanWith(cat, q, est)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestAnnotateAndCheckModel(t *testing.T) {
	cat := costCat()
	pl := planSQL(t, cat, "select o_orderkey, sum(l_extendedprice) from lineitem, orders "+
		"where o_orderkey = l_orderkey and o_orderdate < '1995-04-01' group by o_orderkey", nil)
	m := Annotate(pl)
	want := 0
	plan.Walk(pl, func(plan.Node) { want++ })
	if len(m.PerNode) != want {
		t.Fatalf("annotated %d of %d nodes", len(m.PerNode), want)
	}
	if m.TotalCycles <= 0 {
		t.Fatalf("TotalCycles = %v", m.TotalCycles)
	}
	if ds := CheckModel(m); len(ds) != 0 {
		t.Fatalf("clean plan produced diagnostics: %v", ds)
	}
	// Corrupt one estimate: the checker must notice both the NaN and the
	// model-vs-node disagreement.
	var victim plan.Node
	plan.Walk(pl, func(n plan.Node) {
		if _, ok := n.(*plan.Scan); ok && victim == nil {
			victim = n
		}
	})
	e := m.PerNode[victim]
	e.Rows = math.NaN()
	m.PerNode[victim] = e
	if ds := CheckModel(m); len(ds) == 0 {
		t.Fatal("NaN estimate not flagged")
	}
}

func TestDecideKnobs(t *testing.T) {
	cat := costCat()
	li, err := cat.Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(buildEst, probeEst, joinEst float64) *Model {
		b := &plan.Scan{Table: li, Est: buildEst}
		p := &plan.Scan{Table: li, Est: probeEst}
		j := &plan.Join{Build: b, Probe: p, BuildKey: &plan.PCol{}, ProbeKey: &plan.PCol{}, Est: joinEst}
		return Annotate(&plan.Output{Input: j})
	}
	// Tiny hash tables shrink the partition count; big ones keep it.
	if _, parts := Decide(mk(100, 1000, 100), true, 8); parts != 2 {
		t.Errorf("partitions = %d, want 2 for a tiny build", parts)
	}
	if _, parts := Decide(mk(5000, 50000, 5000), true, 8); parts != 8 {
		t.Errorf("partitions = %d, want 8 for a large build", parts)
	}
	if _, parts := Decide(mk(100, 1000, 100), true, 0); parts != 0 {
		t.Errorf("partitions = %d, want 0 passed through", parts)
	}
}

func TestEstimatorStatsSources(t *testing.T) {
	cat := costCat()
	li, err := cat.Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := (FreshStats{}).ColStats(li, "l_quantity"); ok {
		t.Error("FreshStats must decline (live table wins)")
	}
	// HistoryCorrected layers Rows over its base.
	h := NewHistory()
	hc := &HistoryCorrected{Base: &Naive{Stats: FreshStats{}}, H: h}
	if _, ok := hc.Rows("scan(lineitem)", 10); ok {
		t.Error("empty history answered Rows")
	}
	h.Observe("scan(lineitem)", 2957)
	if r, ok := hc.Rows("scan(lineitem)", 10); !ok || r != 2957 {
		t.Errorf("history Rows = %v,%v want 2957,true", r, ok)
	}
}

// TestHistoryCapacityCap: under a churning workload with 10k distinct
// fingerprints the history must stay at its capacity bound, evicting
// least-recently-touched entries while keeping hot ones resident.
func TestHistoryCapacityCap(t *testing.T) {
	h := NewHistoryCap(64)
	// A hot expression observed throughout must survive the churn.
	hot := "hot-expression"
	h.Observe(hot, 100)
	for i := 0; i < 10000; i++ {
		h.Observe(fmt.Sprintf("churn-expression-%d", i), int64(i+1))
		if i%50 == 0 {
			h.Observe(hot, 100) // keep it recent
		}
	}
	if got := h.Len(); got > h.Cap() {
		t.Fatalf("history grew to %d entries, cap is %d", got, h.Cap())
	}
	if got := h.Len(); got != 64 {
		t.Fatalf("history holds %d entries, want full cap 64", got)
	}
	if _, ok := h.Lookup(hot); !ok {
		t.Fatalf("hot entry evicted despite constant touches")
	}
	// The earliest churn entries must be gone; the latest resident.
	if _, ok := h.Lookup("churn-expression-0"); ok {
		t.Fatalf("oldest churn entry still resident past the cap")
	}
	if _, ok := h.Lookup("churn-expression-9999"); !ok {
		t.Fatalf("newest churn entry missing")
	}
}

// TestHistoryDefaultCap: the default constructor applies the documented
// bound so no service-owned history can grow without limit.
func TestHistoryDefaultCap(t *testing.T) {
	h := NewHistory()
	if h.Cap() != DefaultHistoryCap {
		t.Fatalf("default cap = %d, want %d", h.Cap(), DefaultHistoryCap)
	}
	for i := 0; i < DefaultHistoryCap+512; i++ {
		h.Observe(fmt.Sprintf("e%d", i), 10)
	}
	if h.Len() != DefaultHistoryCap {
		t.Fatalf("len = %d, want %d", h.Len(), DefaultHistoryCap)
	}
}

func TestQError(t *testing.T) {
	for _, c := range []struct {
		est  float64
		rows int64
		want float64
	}{{100, 100, 1}, {200, 100, 2}, {50, 100, 2}, {0.25, 0, 1}, {0, 8, 8}, {4, -3, 4}} {
		if got := QError(c.est, c.rows); got != c.want {
			t.Errorf("QError(%v, %d) = %v, want %v", c.est, c.rows, got, c.want)
		}
	}
}
