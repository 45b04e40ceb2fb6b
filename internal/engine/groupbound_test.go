package engine

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/pipeline"
	"repro/internal/plan"
	"repro/internal/queries"
)

// TestGroupBoundSafe: a group-by's hash table is sized for the groups it
// can hold, and that size is safe. The bounds follow the plan — a constant
// key has one group, a key that is an inner join's probe key has at most
// the build's rows, any other key the input's rows — and every suite
// statement returns the reference rows, with no sink overflow, across
// Workers {0, 4} × morsel {default, 7} × Shards {0, 3}, with pruning and
// partitions {8, 2} paired with each. Morsels of 7 rows
// give a one-group sink hundreds of partial entries to merge.
func TestGroupBoundSafe(t *testing.T) {
	cat := datagen.Generate(datagen.Config{ScaleFactor: 0.002, Seed: 7})
	capOf := func(table string) int {
		tb, err := cat.Table(table)
		if err != nil {
			t.Fatal(err)
		}
		return tb.RowCap()
	}
	for _, tc := range []struct {
		query string
		want  int
	}{
		{"q6", 1},
		{"fig9", capOf("orders")},
		{"q3", capOf("orders")},
		{"q12", capOf("orders")},
		{"q15", capOf("lineitem")},
	} {
		w, ok := queries.ByName(tc.query)
		if !ok {
			t.Fatalf("no query %s", tc.query)
		}
		if got := groupBound(t, cat, w.Query); got != tc.want {
			t.Errorf("%s: group-by bound %d, want %d", tc.query, got, tc.want)
		}
	}

	groupBoundSafe().run(t)
}

// groupBoundSafe runs every suite statement over a catalog at scale 0.002.
func groupBoundSafe() *lattice {
	src := source{build: func() *catalog.Catalog { return datagen.Generate(datagen.Config{ScaleFactor: 0.002, Seed: 7}) }, opts: DefaultOptions()}
	src.stmts = suiteStmts()
	for _, w := range queries.SQLSuite() {
		src.stmts = append(src.stmts, sqlStmt(w.Name, w.SQL))
	}
	return &lattice{src: src, axes: []axis{workersAxis(0, 4), morselAxis(0, 7), shardsAxis(0, 3), pruningAxis, partitionsAxis(8, 2)}, full: 3, name: byKnobs}
}

// groupBound plans q and returns the hash-table bound of its one group-by.
func groupBound(t *testing.T, cat *catalog.Catalog, q *plan.Query) int {
	t.Helper()
	cq, err := New(cat, DefaultOptions()).CompileQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	var gs []*plan.GroupBy
	plan.Walk(cq.Plan, func(n plan.Node) {
		if g, ok := n.(*plan.GroupBy); ok {
			gs = append(gs, g)
		}
	})
	if len(gs) != 1 {
		t.Fatalf("%d group-bys, want 1", len(gs))
	}
	return pipeline.BuildBound(gs[0])
}
