package sqlparse_test

import (
	"reflect"
	"testing"

	"repro/internal/queries"
	"repro/internal/sqlparse"
)

func norm(t *testing.T, src string) *sqlparse.Fingerprint {
	t.Helper()
	fp, err := sqlparse.Normalize(src)
	if err != nil {
		t.Fatalf("Normalize(%q): %v", src, err)
	}
	return fp
}

// checkRoundTrip asserts the two laws every accepted statement obeys:
// Normalize is idempotent, and Parse(Canon) rebuilds Query node for node.
func checkRoundTrip(t *testing.T, src string, fp *sqlparse.Fingerprint) {
	t.Helper()
	again, err := sqlparse.Normalize(fp.Canon)
	if err != nil {
		t.Fatalf("canon of %q does not normalize: %v\n  canon %q", src, err, fp.Canon)
	}
	if again.Canon != fp.Canon || again.Hash != fp.Hash {
		t.Fatalf("not idempotent:\n  src   %q\n  canon %q\n  again %q", src, fp.Canon, again.Canon)
	}
	q, err := sqlparse.Parse(fp.Canon)
	if err != nil {
		t.Fatalf("canon of %q does not parse: %v\n  canon %q", src, err, fp.Canon)
	}
	if !reflect.DeepEqual(q, fp.Query) {
		t.Fatalf("Parse(Canon) differs from Query:\n  src   %q\n  canon %q\n  parse %q\n  query %q", src, fp.Canon, q.SQL(), fp.Query.SQL())
	}
	if q.NumParams < len(fp.Args) {
		t.Fatalf("canon %q takes %d parameters, %d lifted", fp.Canon, q.NumParams, len(fp.Args))
	}
}

// TestNormalizeLaws runs the front end's law table (queries.FrontEndCases):
// round trip for every spelling, one fingerprint per row across its Same
// spellings, a different one for every Diff spelling. The engine runs
// the same table against the reference executor (TestFrontEndLaws).
func TestNormalizeLaws(t *testing.T) {
	for _, c := range queries.FrontEndCases() {
		fp := norm(t, c.SQL)
		checkRoundTrip(t, c.SQL, fp)
		for _, s := range c.Same {
			v := norm(t, s)
			checkRoundTrip(t, s, v)
			if v.Canon != fp.Canon || v.Hash != fp.Hash || len(v.Args) != len(fp.Args) {
				t.Errorf("spellings do not collide:\n  %q -> %q %v\n  %q -> %q %v", c.SQL, fp.Canon, fp.Args, s, v.Canon, v.Args)
			}
		}
		for _, s := range c.Diff {
			v := norm(t, s)
			checkRoundTrip(t, s, v)
			if v.Canon == fp.Canon || v.Hash == fp.Hash {
				t.Errorf("different statements collide on %q:\n  %q\n  %q", fp.Canon, c.SQL, s)
			}
		}
	}
}

// FuzzNormalize: on any input Normalize does not panic, fails exactly
// when (and as) Parse fails, and otherwise obeys the round-trip laws and
// equals NormalizeQuery of the parsed statement (the AST route in).
func FuzzNormalize(f *testing.F) {
	for _, c := range queries.FrontEndCases() {
		f.Add(c.SQL)
		for _, s := range append(c.Same, c.Diff...) {
			f.Add(s)
		}
	}
	for _, w := range queries.Suite() {
		f.Add(w.SQL)
	}
	f.Add("select count(*) from t where a < $0 and b = 'it''s' and c in ($1, 5) order by 1 desc limit 3")
	f.Add("select -a * (0 - b) k, (a < b) = (c < d) from t x, u as y where not_a_keyword between -1 and +1")
	f.Fuzz(func(t *testing.T, src string) {
		fp, err := sqlparse.Normalize(src)
		q, perr := sqlparse.Parse(src)
		if (err == nil) != (perr == nil) || err != nil && err.Error() != perr.Error() {
			t.Fatalf("Normalize(%q) = %v, Parse = %v", src, err, perr)
		}
		if err != nil {
			return
		}
		checkRoundTrip(t, src, fp)
		if ast := sqlparse.NormalizeQuery(q); !reflect.DeepEqual(ast, fp) {
			t.Fatalf("NormalizeQuery(Parse(%q)) = %q %v, Normalize = %q %v", src, ast.Canon, ast.Args, fp.Canon, fp.Args)
		}
	})
}
