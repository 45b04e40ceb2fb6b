package verify

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/mview"
)

// viewFixture builds a consistent view fixture: base(k, v) with 400
// rows, a view grouped by k, one append batch, and one incremental
// refresh — so the ledger has a build entry plus a refresh entry backed
// by an epoch-journal append.
func viewFixture(t *testing.T) (*catalog.Catalog, *mview.Manager) {
	t.Helper()
	c := catalog.New()
	tb := catalog.NewTable("base")
	k := tb.AddCol("k", catalog.TInt)
	v := tb.AddCol("v", catalog.TInt)
	for i := 0; i < 400; i++ {
		k.Data = append(k.Data, int64(i%8))
		v.Data = append(v.Data, int64(i*7%101))
	}
	c.Add(tb)
	m := mview.NewManager(c)
	if _, err := m.Create("agg", "select k, sum(v), min(v), max(v) from base group by k", mview.RefreshIncremental); err != nil {
		t.Fatal(err)
	}
	var rows [][]int64
	for i := 400; i < 500; i++ {
		rows = append(rows, []int64{int64(i % 8), int64(i * 3 % 97)})
	}
	if _, err := c.Append("base", rows); err != nil {
		t.Fatal(err)
	}
	if err := m.Refresh("agg"); err != nil {
		t.Fatal(err)
	}
	return c, m
}

func diagChecks(diags []core.Diag) string {
	var names []string
	for _, d := range diags {
		names = append(names, d.Check)
	}
	return strings.Join(names, ",")
}

func TestCheckViewsCleanFixture(t *testing.T) {
	c, m := viewFixture(t)
	if diags := CheckViews(c, m); len(diags) != 0 {
		t.Fatalf("clean fixture must verify silently, got: %s", diagChecks(diags))
	}
}

func TestCheckViewsCatchesCorruptedPartial(t *testing.T) {
	c, m := viewFixture(t)
	vt, err := c.Table("__mv_agg")
	if err != nil {
		t.Fatal(err)
	}
	vt.Col("agg0").Data[3] += 17 // silently corrupt one stored sum partial
	diags := CheckViews(c, m)
	if !strings.Contains(diagChecks(diags), "views/content-mismatch") {
		t.Fatalf("corrupted partial not caught: %s", diagChecks(diags))
	}
}

func TestCheckViewsCatchesCorruptedKey(t *testing.T) {
	c, m := viewFixture(t)
	vt, err := c.Table("__mv_agg")
	if err != nil {
		t.Fatal(err)
	}
	vt.Col("k").Data[0] = 99 // group key no base row produces
	diags := CheckViews(c, m)
	if !strings.Contains(diagChecks(diags), "views/content-mismatch") {
		t.Fatalf("corrupted group key not caught: %s", diagChecks(diags))
	}
}

func TestCheckViewsCatchesUnledgeredRows(t *testing.T) {
	c, m := viewFixture(t)
	// Rows appended to the backing table behind the manager's back: the
	// journal records them, the ledger does not.
	if _, err := c.AppendCols("__mv_agg", [][]int64{{42}, {1}, {2}, {3}, {4}}); err != nil {
		t.Fatal(err)
	}
	diags := CheckViews(c, m)
	if !strings.Contains(diagChecks(diags), "views/rows-mismatch") {
		t.Fatalf("unledgered view rows not caught: %s", diagChecks(diags))
	}
}

func TestCheckViewsCatchesBaseMutatedInPlace(t *testing.T) {
	c, m := viewFixture(t)
	bt, err := c.Table("base")
	if err != nil {
		t.Fatal(err)
	}
	// In-place mutation of a covered base row: the stored partials no
	// longer replay from the base prefix.
	bt.Col("v").Data[10] += 1000
	diags := CheckViews(c, m)
	if !strings.Contains(diagChecks(diags), "views/content-mismatch") {
		t.Fatalf("in-place base mutation not caught: %s", diagChecks(diags))
	}
}

func TestCheckViewsCatchesMissingBackingTable(t *testing.T) {
	c, m := viewFixture(t)
	c.Remove("__mv_agg")
	diags := CheckViews(c, m)
	if !strings.Contains(diagChecks(diags), "views/table-missing") {
		t.Fatalf("missing backing table not caught: %s", diagChecks(diags))
	}
}
