package engine

import (
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/pmu"
	"repro/internal/vm"
)

// edgeCatalog builds tables with degenerate shapes: empty, one row,
// duplicate keys, and negative keys (a and b).
func edgeCatalog() *catalog.Catalog {
	c := catalog.New()

	empty := catalog.NewTable("empty")
	ek := empty.AddCol("k", catalog.TInt)
	ek.Unique = true
	empty.AddCol("v", catalog.TInt)
	c.Add(empty)

	one := catalog.NewTable("one")
	ok := one.AddCol("k", catalog.TInt)
	ok.Unique = true
	ok.Data = []int64{42}
	one.AddCol("v", catalog.TInt).Data = []int64{7}
	c.Add(one)

	dup := catalog.NewTable("dup")
	dup.AddCol("k", catalog.TInt).Data = []int64{1, 1, 1, 2}
	dup.AddCol("v", catalog.TInt).Data = []int64{10, 20, 30, 40}
	c.Add(dup)

	a := catalog.NewTable("a")
	a.AddCol("k", catalog.TInt).Data = []int64{-5, -1, 0, 3}
	a.AddCol("v", catalog.TInt).Data = []int64{1, 2, 3, 4}
	c.Add(a)
	b := catalog.NewTable("b")
	kb := b.AddCol("k", catalog.TInt)
	kb.Unique = true
	kb.Data = []int64{-5, 3}
	b.AddCol("w", catalog.TInt).Data = []int64{100, 200}
	c.Add(b)
	return c
}

// edgeStmts are the degenerate statements, by name.
var edgeStmts = []stmt{
	sqlStmt("empty-scan", "select k, v from empty"),
	sqlStmt("empty-build", "select d.v from dup d, empty e where d.k = e.k"),
	sqlStmt("empty-probe", "select e.v from empty e, one o where e.k = o.k"),
	sqlStmt("empty-group", "select k, count(*) from empty group by k"),
	sqlStmt("empty-agg", "select count(*) from empty"),
	sqlStmt("one-row-join", "select o.v from one o, dup d where d.k = o.k"),
	sqlStmt("dup-keys", "select d.v, o.v from dup d, one o where d.k = o.k"),
	sqlStmt("self-join", "select a.v, b.v from dup a, dup b where a.k = b.k"),
	sqlStmt("filter-none", "select v from dup where k > 100"),
	sqlStmt("arithmetic", "select v * 2 + k from dup where k = 2"),
	sqlStmt("min-max", "select k, min(v), max(v), avg(v) from dup group by k order by k"),
	sqlStmt("limit", "select v from dup order by v limit 2"),
	sqlStmt("limit-past", "select v from dup order by v limit 9"),
	sqlStmt("negative-keys", "select v, w from a, b where a.k = b.k"),
}

// TestEdgeShapesLattice runs the degenerate statements where their tables
// meet Workers, morsels of one and seven rows, Shards, pruning, appends
// and a pinned snapshot: an empty build or probe side, one-row and
// duplicate keys, a LIMIT past the rows and negative keys through the
// hash.
func TestEdgeShapesLattice(t *testing.T) { edgeShapes().run(t) }

func edgeShapes() *lattice {
	return &lattice{src: source{build: edgeCatalog, stmts: edgeStmts, opts: DefaultOptions()},
		axes: []axis{workersAxis(0, 1, 4), morselAxis(0, 1, 7), shardsAxis(0, 1, 3), pruningAxis, ingestAxis, pinnedAxis, eventAxis(evNone, evPGO)}}
}

// runEdge runs the named degenerate statement on the one-core path,
// sampled, and checks its rows against the reference.
func runEdge(t *testing.T, name string) *Result {
	t.Helper()
	e := New(edgeCatalog(), DefaultOptions())
	cq, err := edgeStmts[slices.IndexFunc(edgeStmts, func(s stmt) bool { return s.name == name })].compile(&e.Compiler)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(cq, &pmu.Config{Event: vm.EvCycles, Period: 100, Format: pmu.FormatIPTimeRegs})
	if err != nil {
		t.Fatal(err)
	}
	matchesReference(t, res.Rows, &Prepared{Compiled: cq})
	return res
}

func TestEmptyTableScan(t *testing.T) {
	res := runEdge(t, "empty-scan")
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestEmptyBuildSide(t *testing.T) {
	res := runEdge(t, "empty-build")
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestEmptyProbeSide(t *testing.T) {
	runEdge(t, "empty-probe")
}

func TestGroupByEmptyInput(t *testing.T) {
	res := runEdge(t, "empty-group")
	if len(res.Rows) != 0 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
}

func TestGlobalAggOverEmpty(t *testing.T) {
	// SQL semantics would return one row (count 0); our engine follows
	// group-by-with-no-groups semantics and returns none — the reference
	// executor agrees, which is what this pins down.
	runEdge(t, "empty-agg")
}

func TestSingleRowJoin(t *testing.T) {
	res := runEdge(t, "one-row-join")
	if len(res.Rows) != 0 {
		t.Fatalf("42 should not match dup keys: %v", res.Rows)
	}
}

func TestDuplicateKeysAllMatch(t *testing.T) {
	runEdge(t, "dup-keys")
}

func TestSelfJoinViaAliases(t *testing.T) {
	res := runEdge(t, "self-join")
	// 3×3 for key 1 plus 1×1 for key 2.
	if len(res.Rows) != 10 {
		t.Fatalf("self join rows = %d, want 10", len(res.Rows))
	}
}

func TestFilterSelectsNothing(t *testing.T) {
	res := runEdge(t, "filter-none")
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestArithmeticInProjection(t *testing.T) {
	res := runEdge(t, "arithmetic")
	if len(res.Rows) != 1 || res.Rows[0][0] != 82 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestMinMaxSingleGroup(t *testing.T) {
	res := runEdge(t, "min-max")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][1] != 10 || res.Rows[0][2] != 30 || res.Rows[0][3] != 20 {
		t.Fatalf("key1 aggs = %v", res.Rows[0])
	}
}

func TestLimitZeroRowsRemaining(t *testing.T) {
	res := runEdge(t, "limit")
	if len(res.Rows) != 2 || res.Rows[0][0] != 10 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

// TestNegativeValuesThroughHash: negative keys must hash and compare
// correctly end to end.
func TestNegativeValuesThroughHash(t *testing.T) {
	res := runEdge(t, "negative-keys")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}
