package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/xrand"
)

// declared is BENCHMARK.json, the contract this program is run under.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []declaredMetric `json:"end_to_end"`
	PerLayer   []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string
	Unit   string
	Better string
	Bound  *float64
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclaration keeps BENCHMARK.json and the tables in metrics.go in step.
func TestDeclaration(t *testing.T) {
	d := readDeclared(t)
	if len(d.EndToEnd) > 16 || len(d.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics; the limits are 16 and 128", len(d.EndToEnd), len(d.PerLayer))
	}
	if len(d.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, metrics.go %d", len(d.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range endToEndMetrics {
		g := d.EndToEnd[i]
		better := map[bool]string{true: "higher", false: "lower"}[m.higher]
		if g.Name != m.name || g.Unit != m.unit || g.Better != better || g.Bound == nil || *g.Bound != m.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, metrics.go %+v", i, g, m)
		}
	}
	var names []string
	for _, m := range d.PerLayer {
		names = append(names, m.Name)
		if units[m.Name] != m.Unit {
			t.Errorf("per-layer metric %s: BENCHMARK.json says %q, metrics.go %q", m.Name, m.Unit, units[m.Name])
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("per-layer metric %s: better is %q", m.Name, m.Better)
		}
	}
	if want := perLayerNames(); !reflect.DeepEqual(names, want) {
		t.Errorf("per-layer names differ:\n BENCHMARK.json %v\n metrics.go     %v", names, want)
	}
	for name, unit := range units {
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) {
			t.Errorf("metric %q with unit %q is outside the allowed alphabet", name, unit)
		}
	}
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, main.go %d", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.name || d.Workloads[i].Why == "" || len(d.Workloads[i].Why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json has %+v, main.go %q", i, d.Workloads[i], w.name)
		}
	}
}

// TestSmoke runs one tiny round of every workload, untraced and traced, and
// checks that exactly the declared metrics come out, with their units, and
// that the span file is a well-formed forest.
func TestSmoke(t *testing.T) {
	d := readDeclared(t)
	out := t.TempDir()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel() // the numbers are not looked at, only that they are there
			for trace, want := range [][]declaredMetric{d.EndToEnd, d.PerLayer} {
				var stdout, stderr bytes.Buffer
				args := []string{"-workload", w.name, "-seed", "7", "-rounds", "1", "-scale", "0.05", "-out", out, "-trace", []string{"0", "1"}[trace]}
				if code := cli(args, &stdout, &stderr); code != 0 {
					t.Fatalf("-trace %d: exit %d: %s", trace, code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				last := []byte(lines[len(lines)-1])
				var top map[string]json.RawMessage
				if err := json.Unmarshal(last, &top); err != nil {
					t.Fatalf("-trace %d: last line is not JSON: %v", trace, err)
				}
				if len(top) != 4 {
					t.Errorf("-trace %d: result has %d keys, want correct, attempted, failed, metrics", trace, len(top))
				}
				var res result
				if err := json.Unmarshal(last, &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("-trace %d: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("-trace %d: %d metrics printed, %d declared", trace, len(res.Metrics), len(want))
				}
				for _, m := range want {
					if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("-trace %d: metric %s: printed %+v, declared unit %q", trace, m.Name, got, m.Unit)
					}
				}
			}
			checkSpans(t, filepath.Join(out, "trace-"+w.name+".json"))
		})
	}
}

func checkSpans(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct{ Spans []span }
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(f.Spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	for i, s := range f.Spans {
		if s.ID != i+1 || s.End < s.Start || !strings.Contains(s.Name, ".") {
			t.Fatalf("%s: malformed span %+v", path, s)
		}
		for _, ref := range []int{s.Parent, s.ReplayOf} {
			if ref < 0 || ref >= s.ID {
				t.Fatalf("%s: span %+v refers to a span that does not precede it", path, s)
			}
		}
		if s.Parent != 0 {
			p := f.Spans[s.Parent-1]
			if s.Start < p.Start || s.End > p.End || s.Op != p.Op {
				t.Errorf("%s: span %+v is not inside its parent %+v", path, s, p)
			}
		}
		if s.ReplayOf != 0 && f.Spans[s.ReplayOf-1].Op != s.Op {
			t.Errorf("%s: span %+v explains a span of another op", path, s)
		}
	}
}

// TestOpListsFollowTheSeed: the same seed gives the same ops; another seed
// gives other literals but the same number of ops of each kind.
func TestOpListsFollowTheSeed(t *testing.T) {
	a, b, c := dashOpList(1, 1, 32), dashOpList(1, 1, 32), dashOpList(2, 1, 32)
	if !reflect.DeepEqual(a, b) {
		t.Error("dashboard_ingest: the same seed gave two op lists")
	}
	mix := func(ops []dashOp) (m [opAdapt + 1]int) {
		for _, op := range ops {
			m[op.kind]++
		}
		return m
	}
	if reflect.DeepEqual(a, c) || len(a) != len(c) || mix(a) != mix(c) {
		t.Errorf("dashboard_ingest: seeds 1 and 2 must differ in literals and order only (kind mix %v and %v)", mix(a), mix(c))
	}
	x, y, z := adhocStatements(xrand.New(1)), adhocStatements(xrand.New(1)), adhocStatements(xrand.New(2))
	if !reflect.DeepEqual(x, y) {
		t.Error("adhoc_cold: the same seed gave two statement lists")
	}
	if reflect.DeepEqual(x, z) || len(x) != len(z) || len(x) < 24 {
		t.Errorf("adhoc_cold: %d and %d statements for seeds 1 and 2; want the same count, at least 24, with different literals", len(x), len(z))
	}
}

func TestVerdict(t *testing.T) {
	lower := e2eMetric{name: "op_ms_p50", unit: "ms", bound: 0.10}
	higher := e2eMetric{name: "ops_per_s", unit: "1/s", higher: true, bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	times := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{70, 130, 85, 115, 100, 60, 140, 90, 110, 100}
	for _, c := range []struct {
		name      string
		m         e2eMetric
		old, cur  []float64
		won, want string
	}{
		{"identical", lower, steady, steady, "", "same"},
		{"slower than the bound", lower, steady, times(steady, 1.2), "", "worse"},
		{"slower within the bound", lower, steady, times(steady, 1.05), "", "same"},
		{"faster on every run", lower, steady, times(steady, 0.8), "all", "better"},
		{"throughput down", higher, steady, times(steady, 0.8), "", "worse"},
		{"throughput up", higher, steady, times(steady, 1.3), "all", "better"},
		{"spread wider than the bound", lower, noisy, times(noisy, 1.15), "", "unresolved"},
	} {
		won := 0
		if c.won == "all" {
			won = len(c.old)
		}
		if got, _, _ := verdict(c.m, c.old, c.cur, won, len(c.old)); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 { // statistics.quantiles(range(1, 11), n=4)
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
