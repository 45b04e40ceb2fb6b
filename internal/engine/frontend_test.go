package engine

import (
	"testing"

	"repro/internal/plan"
	"repro/internal/queries"
	"repro/internal/ref"
	"repro/internal/sqlparse"
)

// TestFrontEndLaws is the execution half of the front end's law table
// (sqlparse.TestNormalizeLaws is the fingerprint half): every spelling
// of every row goes through a Service — normalize, cache, plan the
// canonical query, bind the lifted literals — without falling back to a
// direct compile, and returns the rows the reference executor computes
// from the original text, which never meets the normalizer.
func TestFrontEndLaws(t *testing.T) {
	svc := testService(t)
	se := svc.NewSession()
	for _, c := range queries.FrontEndCases() {
		spellings := append(append([]string{c.SQL}, c.Same...), c.Diff...)
		for _, sql := range spellings {
			p, res, err := se.Execute(sql, nil)
			if err != nil {
				t.Fatalf("execute %q: %v", sql, err)
			}
			if p.Fallback {
				t.Errorf("%q fell back to a direct compile", sql)
			}
			q, err := sqlparse.Parse(sql)
			if err != nil {
				t.Fatal(err)
			}
			pl, err := plan.Plan(svc.Catalog(), q)
			if err != nil {
				t.Fatalf("plan %q: %v", sql, err)
			}
			want, err := ref.ExecuteWith(pl, nil)
			if err != nil {
				t.Fatalf("reference executor on %q: %v", sql, err)
			}
			if !ref.SameRows(res.Rows, want, len(pl.OrderBy) > 0) {
				t.Errorf("%q (canon %q): %d rows differ from the reference's %d", sql, p.Canon, len(res.Rows), len(want))
			}
		}
	}
}
