package engine

import (
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/plan"
	"repro/internal/pmu"
	"repro/internal/vm"
)

func testCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	return datagen.Generate(datagen.Config{ScaleFactor: 0.05, Seed: 7})
}

// introQuery is the paper's Fig. 3a example.
func introQuery(noGroupJoin bool) *plan.Query {
	return &plan.Query{
		Tables: []plan.TableRef{{Name: "sales", Alias: "s"}, {Name: "products", Alias: "p"}},
		Where: []plan.Expr{
			plan.Eq(plan.Col("s.id"), plan.Col("p.id")),
			plan.Eq(plan.Col("p.category"), plan.Str("Chip")),
		},
		Select: []plan.SelectItem{
			{Expr: plan.Col("s.id")},
			{Expr: &plan.Agg{Fn: plan.AggAvg, Arg: &plan.Bin{
				Op: plan.OpDiv,
				L:  &plan.Bin{Op: plan.OpDiv, L: plan.Col("s.price"), R: plan.Col("s.vat_factor")},
				R:  plan.Col("s.prod_costs"),
			}}, Alias: "avg_margin"},
		},
		GroupBy: []plan.Expr{plan.Col("s.id")},
		Limit:   -1,
		Hints:   plan.Hints{NoGroupJoin: noGroupJoin},
	}
}

// refIntro computes the intro query's expected result host-side.
func refIntro(cat *catalog.Catalog) map[int64][2]int64 {
	products, _ := cat.Table("products")
	sales, _ := cat.Table("sales")
	chip, _ := products.Col("category").Dict.Lookup("Chip")
	chips := map[int64]bool{}
	for i, id := range products.Col("id").Data {
		if products.Col("category").Data[i] == chip {
			chips[id] = true
		}
	}
	agg := map[int64][2]int64{}
	id := sales.Col("id").Data
	price := sales.Col("price").Data
	vat := sales.Col("vat_factor").Data
	costs := sales.Col("prod_costs").Data
	for i := range id {
		if !chips[id[i]] {
			continue
		}
		v := price[i] / vat[i] / costs[i]
		a := agg[id[i]]
		a[0] += v
		a[1]++
		agg[id[i]] = a
	}
	return agg
}

func checkIntroResult(t *testing.T, res *Result, want map[int64][2]int64) {
	t.Helper()
	if len(res.Rows) != len(want) {
		t.Fatalf("got %d groups, want %d", len(res.Rows), len(want))
	}
	for _, row := range res.Rows {
		w, ok := want[row[0]]
		if !ok {
			t.Fatalf("unexpected group %d", row[0])
		}
		if avg := w[0] / w[1]; row[1] != avg {
			t.Fatalf("group %d: avg = %d, want %d", row[0], row[1], avg)
		}
	}
}

func TestIntroQueryGroupBy(t *testing.T) {
	cat := testCatalog(t)
	cq, res := runOnce(t, cat, introQuery(true), DefaultOptions(), nil)
	if _, isGJ := cq.Plan.Input.(*plan.GroupJoin); isGJ {
		t.Fatal("NoGroupJoin hint ignored")
	}
	checkIntroResult(t, res, refIntro(cat))
}

func TestIntroQueryGroupJoin(t *testing.T) {
	cat := testCatalog(t)
	cq, res := runOnce(t, cat, introQuery(false), DefaultOptions(), nil)
	if _, isGJ := cq.Plan.Input.(*plan.GroupJoin); !isGJ {
		t.Fatalf("expected group-join fusion, got %T", cq.Plan.Input)
	}
	checkIntroResult(t, res, refIntro(cat))
}

// TestIntroQueryProfiled runs the intro query under PMU sampling and
// sanity-checks the attribution: most samples must land on operators, and
// the aggregation must dominate the join (the paper's headline example).
func TestIntroQueryProfiled(t *testing.T) {
	cat := testCatalog(t)
	_, res := runOnce(t, cat, introQuery(true), DefaultOptions(), &pmu.Config{Event: vm.EvCycles, Period: 500, Format: pmu.FormatIPTimeRegs})
	checkIntroResult(t, res, refIntro(cat))

	p := res.Profile
	if p.TotalSamples < 100 {
		t.Fatalf("too few samples: %d", p.TotalSamples)
	}
	att := p.Attribution()
	if att.AttributedPct < 90 {
		t.Fatalf("attribution too low: %+v", att)
	}
	costs := p.OperatorCosts()
	if len(costs) == 0 {
		t.Fatal("no operator costs")
	}
	byKind := map[string]float64{}
	for _, c := range costs {
		byKind[c.Kind] += c.Pct
	}
	// Both pipeline workhorses must carry substantial cost (the paper's
	// example splits roughly between aggregation and join; the exact
	// ratio depends on data selectivity).
	if byKind["group by"] < 10 {
		t.Errorf("group by share too small: %f%%", byKind["group by"])
	}
	if byKind["hash join"] < 10 {
		t.Errorf("hash join share too small: %f%%", byKind["hash join"])
	}
}

// TestOrderByLimit exercises host-side sorting.
func TestOrderByLimit(t *testing.T) {
	cat := testCatalog(t)
	q := &plan.Query{
		Tables: []plan.TableRef{{Name: "orders", Alias: "o"}},
		Select: []plan.SelectItem{
			{Expr: plan.Col("o.o_orderkey")},
			{Expr: plan.Col("o.o_totalprice")},
		},
		OrderBy: []plan.OrderItem{{Expr: plan.Col("o.o_totalprice"), Desc: true}},
		Limit:   10,
	}
	_, res := runOnce(t, cat, q, DefaultOptions(), nil)
	if len(res.Rows) != 10 {
		t.Fatalf("limit: got %d rows", len(res.Rows))
	}
	orders, _ := cat.Table("orders")
	prices := append([]int64{}, orders.Col("o_totalprice").Data...)
	sort.Slice(prices, func(i, j int) bool { return prices[i] > prices[j] })
	var got []int64
	for _, r := range res.Rows {
		got = append(got, r[1])
	}
	if !reflect.DeepEqual(got, prices[:10]) {
		t.Fatalf("top-10 prices mismatch:\n got %v\nwant %v", got, prices[:10])
	}
}

// TestBudgetErrorThroughRun: an exhausted instruction budget reaches the
// caller of Engine.Run as a *vm.BudgetError, on the serial path (Run) and
// on the morsel scheduler's (CallFunction per morsel).
func TestBudgetErrorThroughRun(t *testing.T) {
	cat := testCatalog(t)
	for _, workers := range []int{0, 2} {
		opts := DefaultOptions()
		opts.Workers = workers
		opts.MaxInstructions = 100
		e := New(cat, opts)
		cq, err := e.CompileQuery(introQuery(true))
		if err != nil {
			t.Fatal(err)
		}
		_, err = e.Run(cq, nil)
		var be *vm.BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("workers=%d: Run under a budget of 100 returned %v, want a *vm.BudgetError", workers, err)
		}
		if be.Budget < 100 || !strings.Contains(err.Error(), "instruction budget") {
			t.Errorf("workers=%d: %v (budget %d)", workers, err, be.Budget)
		}
	}
}
