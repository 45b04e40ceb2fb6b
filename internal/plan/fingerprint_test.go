package plan_test

// Property tests for plan-expression fingerprints (external test package:
// parsing SQL requires sqlparse, which imports plan). The invariants are
// the ones the cardinality-history cache leans on: structural equality of
// expressions implies equal canon and equal hash, literals deduplicate by
// value, physically different plans for one expression share a canon, and
// distinct expressions across the whole corpus never collide.

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/plan"
	"repro/internal/queries"
	"repro/internal/sqlparse"
)

var (
	fpCatOnce sync.Once
	fpCatVal  *catalog.Catalog
)

// fpCat returns a shared sf=0.05 dataset (generation is deterministic;
// fingerprints only read schema and statistics, never data).
func fpCat() *catalog.Catalog {
	fpCatOnce.Do(func() {
		fpCatVal = datagen.Generate(datagen.Config{ScaleFactor: 0.05, Seed: 42})
	})
	return fpCatVal
}

func mustPlan(t testing.TB, sql string, est plan.Estimator) *plan.Output {
	t.Helper()
	q, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	pl, err := plan.PlanWith(fpCat(), q, est)
	if err != nil {
		t.Fatalf("plan %q: %v", sql, err)
	}
	return pl
}

// TestFingerprintInvariance: pairs of statements whose root expressions
// must share one canon (and therefore one fingerprint), against controls
// that must not.
func TestFingerprintInvariance(t *testing.T) {
	same := [][2]string{
		{ // table aliases disappear
			"select l_orderkey from lineitem where l_quantity < 4",
			"select x.l_orderkey from lineitem x where x.l_quantity < 4",
		},
		{ // projection does not change cardinality
			"select l_orderkey from lineitem where l_quantity < 4",
			"select l_orderkey, l_extendedprice from lineitem where l_quantity < 4",
		},
		{ // conjunct order is canonicalized
			"select l_orderkey from lineitem where l_quantity < 4 and l_discount < 2",
			"select l_orderkey from lineitem where l_discount < 2 and l_quantity < 4",
		},
		{ // FROM-list order (join order) is canonicalized
			"select o_orderkey, sum(l_extendedprice) from lineitem, orders " +
				"where o_orderkey = l_orderkey group by o_orderkey",
			"select o_orderkey, sum(l_extendedprice) from orders, lineitem " +
				"where l_orderkey = o_orderkey group by o_orderkey",
		},
		{ // literals deduplicate by value, not by occurrence
			"select count(*) from lineitem where l_quantity < 7",
			"select sum(l_discount) from lineitem where l_quantity < 7",
		},
	}
	for _, pair := range same {
		a, b := mustPlan(t, pair[0], nil), mustPlan(t, pair[1], nil)
		if plan.Canon(a) != plan.Canon(b) {
			t.Errorf("canons differ:\n  %q -> %s\n  %q -> %s", pair[0], plan.Canon(a), pair[1], plan.Canon(b))
		}
		if plan.Fingerprint(a) != plan.Fingerprint(b) {
			t.Errorf("fingerprints differ for %q vs %q", pair[0], pair[1])
		}
	}
	diff := [][2]string{
		{ // different literal values are different expressions
			"select l_orderkey from lineitem where l_quantity < 4",
			"select l_orderkey from lineitem where l_quantity < 5",
		},
		{ // different filter columns
			"select l_orderkey from lineitem where l_quantity < 4",
			"select l_orderkey from lineitem where l_discount < 4",
		},
		{ // aggregation is not its input
			"select l_orderkey from lineitem where l_quantity < 4",
			"select l_orderkey, count(*) from lineitem where l_quantity < 4 group by l_orderkey",
		},
	}
	for _, pair := range diff {
		a, b := mustPlan(t, pair[0], nil), mustPlan(t, pair[1], nil)
		if plan.Canon(a) == plan.Canon(b) {
			t.Errorf("distinct expressions share canon %s:\n  %q\n  %q", plan.Canon(a), pair[0], pair[1])
		}
	}
}

// stubEst overrides per-expression row estimates by canon — a hand-fed
// stand-in for the cardinality history.
type stubEst struct{ rows map[string]float64 }

func (stubEst) ColStats(*catalog.Table, string) (catalog.Stats, bool) { return catalog.Stats{}, false }
func (s stubEst) Rows(canon string, est float64) (float64, bool) {
	r, ok := s.rows[canon]
	return r, ok
}

// TestFingerprintFusedUnfused: one aggregation-over-join expression,
// planned twice into physically different trees — the heuristic
// estimates put orders on the probe side (no group-join fusion; the
// opaque arithmetic filters hide lineitem's true cardinality), while a
// corrected lineitem estimate flips the probe base and fuses the
// aggregation into a group-join. Both shapes must share one canonical
// expression; Shape must tell them apart.
func TestFingerprintFusedUnfused(t *testing.T) {
	const sql = "select l_orderkey, sum(l_extendedprice) from lineitem, orders " +
		"where o_orderkey = l_orderkey and l_quantity*1 < 45 and l_discount*1 < 45 " +
		"group by l_orderkey"
	base := mustPlan(t, sql, nil)
	if _, ok := base.Input.(*plan.GroupBy); !ok {
		t.Fatalf("heuristic plan root is %T, want *plan.GroupBy over a join", base.Input)
	}
	// Correct the filtered lineitem scan to (roughly) its true output.
	rows := map[string]float64{}
	plan.Walk(base, func(n plan.Node) {
		if s, ok := n.(*plan.Scan); ok && s.Table.Name == "lineitem" {
			rows[plan.Canon(s)] = 2655
		}
	})
	if len(rows) != 1 {
		t.Fatalf("expected one lineitem scan, got %d", len(rows))
	}
	corrected := mustPlan(t, sql, stubEst{rows: rows})
	if _, ok := corrected.Input.(*plan.GroupJoin); !ok {
		t.Fatalf("corrected plan root is %T, want *plan.GroupJoin", corrected.Input)
	}
	if plan.Canon(base) != plan.Canon(corrected) {
		t.Errorf("fused and unfused forms have different canons:\n  %s\n  %s",
			plan.Canon(base), plan.Canon(corrected))
	}
	if plan.Fingerprint(base) != plan.Fingerprint(corrected) {
		t.Error("fused and unfused forms have different fingerprints")
	}
	if plan.Shape(base) == plan.Shape(corrected) {
		t.Errorf("physically different plans share a Shape: %s", plan.Shape(base))
	}
}

// TestFingerprintCorpus: across every node of every plan of the SQL
// suite, canon equality and fingerprint equality coincide — no hash
// collisions between distinct expressions, no split fingerprints for one
// expression.
func TestFingerprintCorpus(t *testing.T) {
	byFP := map[uint64]string{}
	byCanon := map[string]uint64{}
	nodes := 0
	for _, w := range queries.SQLSuite() {
		pl := mustPlan(t, w.SQL, nil)
		plan.Walk(pl, func(n plan.Node) {
			nodes++
			c, fp := plan.Canon(n), plan.Fingerprint(n)
			if c == "" {
				t.Errorf("%s: empty canon for %s", w.Name, n.Kind())
			}
			if prev, ok := byFP[fp]; ok && prev != c {
				t.Errorf("fingerprint collision %#x: %q vs %q", fp, prev, c)
			}
			if prev, ok := byCanon[c]; ok && prev != fp {
				t.Errorf("canon %q got two fingerprints: %#x vs %#x", c, prev, fp)
			}
			byFP[fp] = c
			byCanon[c] = fp
		})
	}
	if nodes == 0 || len(byCanon) < 10 {
		t.Fatalf("corpus too small: %d nodes, %d distinct expressions", nodes, len(byCanon))
	}
}

// FuzzPlanFingerprint: any statement that parses and plans must
// fingerprint deterministically — two independent plannings of one text
// agree node for node — and Fingerprint must be exactly the hash of
// Canon.
func FuzzPlanFingerprint(f *testing.F) {
	for _, w := range queries.SQLSuite() {
		f.Add(w.SQL)
	}
	f.Add("select l_orderkey from lineitem where l_quantity < 4 and l_quantity < 4")
	f.Add("select count(*) from orders, lineitem where o_orderkey = l_orderkey")
	f.Fuzz(func(t *testing.T, sql string) {
		q1, err := sqlparse.Parse(sql)
		if err != nil {
			return
		}
		p1, err := plan.PlanWith(fpCat(), q1, nil)
		if err != nil {
			return
		}
		q2, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatalf("second parse failed where first succeeded: %v", err)
		}
		p2, err := plan.PlanWith(fpCat(), q2, nil)
		if err != nil {
			t.Fatalf("second plan failed where first succeeded: %v", err)
		}
		if c1, c2 := plan.Canon(p1), plan.Canon(p2); c1 != c2 {
			t.Fatalf("canon not deterministic: %q vs %q", c1, c2)
		}
		var n1, n2 []string
		plan.Walk(p1, func(n plan.Node) { n1 = append(n1, plan.Canon(n)) })
		plan.Walk(p2, func(n plan.Node) { n2 = append(n2, plan.Canon(n)) })
		if strings.Join(n1, "\n") != strings.Join(n2, "\n") {
			t.Fatal("per-node canons not deterministic across plannings")
		}
		if plan.Fingerprint(p1) != plan.Fingerprint(p2) {
			t.Fatal("fingerprint not deterministic")
		}
	})
}
