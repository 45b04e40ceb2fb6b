package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/sqlparse"
)

// fakeTable has three modes whose checks never touch the catalog: the
// default fails the unit named "bad", -late fails at finish, -quiet passes.
func fakeTable(setups *int) []check {
	suite := func([]int) []unit { return []unit{{name: "good"}, {name: "bad"}} }
	mode := func(r run) func(*env) (*run, error) {
		return func(*env) (*run, error) { *setups++; return &r, nil }
	}
	return []check{
		{noun: "widgets", json: true, suite: suite, help: "the default fake",
			mods: []flagDoc{{"loud", "a modifier of the default"}},
			setup: mode(run{
				each: func(_ int, u unit) (string, error) {
					if u.name == "bad" {
						return "", errors.New("boom\n      a diagnostic")
					}
					return "fine", nil
				},
				report: func(failures int) any { return map[string]int{"failures": failures} },
			})},
		{flag: "late", noun: "gadgets", suite: suite, help: "mode: fails at finish",
			setup: mode(run{
				each: func(int, unit) (string, error) { return "", nil },
				finish: func(int) (string, []error) {
					return "never printed", []error{nil, errors.New("ledger: off by one")}
				},
			})},
		{flag: "quiet", noun: "gadgets", suite: suite, help: "mode: passes",
			setup: mode(run{
				each:   func(int, unit) (string, error) { return "", nil },
				finish: func(n int) (string, []error) { return "all quiet", nil },
			})},
	}
}

func TestDriver(t *testing.T) {
	cases := []struct {
		name   string
		args   string
		exit   int
		setups int    // 0: rejected before any data was generated
		stdout string // exact
		stderr string // substring; "" = must be empty
	}{
		{"an error is a FAIL line and exit 1", "-sf 0.01", 1, 1,
			"ok    good           fine\nFAIL  bad            boom\n      a diagnostic\ntprofvet check: 1 of 2 widgets FAILED\n", ""},
		{"-q keeps one unit", "-sf 0.01 -q good", 0, 1,
			"ok    good           fine\ntprofvet check: 1 widgets verified, 0 diagnostics\n", ""},
		{"-json replaces the text", "-sf 0.01 -json", 1, 1, "{\n  \"failures\": 1\n}\n", ""},
		{"a finish error fails the suite", "-sf 0.01 -late", 1, 1,
			"FAIL  (suite)        ledger: off by one\ntprofvet check -late: 1 of 2 gadgets FAILED\n", ""},
		{"finish words the clean summary", "-sf 0.01 -quiet -loud=false", 0, 1, "tprofvet check -quiet: all quiet\n", ""},
		{"unknown -q", "-q nope", 2, 0, "", `-q "nope" names no unit of tprofvet check`},
		{"two mode flags", "-late -quiet", 2, 0, "", "-late and -quiet are separate modes"},
		{"a modifier of another mode", "-quiet -loud", 2, 0, "", "-loud does not apply to tprofvet check -quiet"},
		{"-json on a mode without a document", "-quiet -json", 2, 0, "", "-json supports"},
		{"bad -workers", "-workers 1,x", 2, 0, "", `bad -workers value "x"`},
	}
	for _, c := range cases {
		setups := 0
		var stdout, stderr bytes.Buffer
		exit := runCheck(fakeTable(&setups), strings.Fields(c.args), &stdout, &stderr)
		if exit != c.exit || setups != c.setups {
			t.Errorf("%s: exit %d after %d setups, want %d after %d", c.name, exit, setups, c.exit, c.setups)
		}
		if stdout.String() != c.stdout {
			t.Errorf("%s: stdout %q, want %q", c.name, &stdout, c.stdout)
		}
		if (c.stderr == "") != (stderr.Len() == 0) || !strings.Contains(stderr.String(), c.stderr) {
			t.Errorf("%s: stderr %q, want it to contain %q", c.name, &stderr, c.stderr)
		}
	}
}

// TestEveryCheckSmoke runs each registered check on the first unit of its
// suite at a tiny scale: exit 0, one summary line naming the mode.
func TestEveryCheckSmoke(t *testing.T) {
	for i := range checks {
		c := &checks[i]
		args := []string{"-sf", "0.02", "-q", c.suite([]int{1})[0].name}
		if c.flag != "" {
			args = append(args, "-"+c.flag)
		}
		var stdout, stderr bytes.Buffer
		if exit := runCheck(checks, args, &stdout, &stderr); exit != 0 || stderr.Len() > 0 {
			t.Errorf("%s %v: exit %d\nstdout: %s\nstderr: %s", c.name(), args, exit, &stdout, &stderr)
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		if last := lines[len(lines)-1]; !strings.HasPrefix(last, c.name()+": ") || strings.Contains(last, "FAILED") {
			t.Errorf("%s: last line %q is not its clean summary", c.name(), last)
		}
	}
}

// TestJSONEnvelopes pins the two -json documents' shapes.
func TestJSONEnvelopes(t *testing.T) {
	for _, c := range []struct {
		args []string
		keys string
	}{
		{[]string{"-sf", "0.02", "-q", "fig9", "-tv", "-absint", "-json"}, "checked failures mode results"},
		{[]string{"-sf", "0.02", "-q", "fig9", "-mutants", "-json"}, "caught mode pass perClass rate total"},
	} {
		var stdout, stderr bytes.Buffer
		if exit := runCheck(checks, c.args, &stdout, &stderr); exit != 0 {
			t.Fatalf("%v: exit %d: %s", c.args, exit, &stderr)
		}
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
			t.Fatalf("%v: stdout is not one JSON document: %v\n%s", c.args, err, &stdout)
		}
		var keys []string
		for k := range doc {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if got := strings.Join(keys, " "); got != c.keys {
			t.Errorf("%v: top-level keys %q, want %q", c.args, got, c.keys)
		}
	}
}

// TestEveryCheckIsGated: a check cannot be registered without a CI step
// that runs it — every mode and modifier flag of the table appears on a
// `tprofvet check` command line of the workflow.
func TestEveryCheckIsGated(t *testing.T) {
	ci, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	steps := regexp.MustCompile(`(?m)run: go run \./cmd/tprofvet check(.*)$`).FindAllStringSubmatch(string(ci), -1)
	gated := map[string]bool{}
	for _, m := range steps {
		for _, f := range strings.Fields(m[1]) {
			gated[strings.TrimPrefix(f, "-")] = true
		}
	}
	if len(steps) == 0 {
		t.Fatal("no `go run ./cmd/tprofvet check` step found in ci.yml")
	}
	for _, c := range checks {
		if c.flag != "" && !gated[c.flag] {
			t.Errorf("mode -%s is registered but no CI step runs `tprofvet check -%s`", c.flag, c.flag)
		}
		for _, m := range c.mods {
			if !gated[m.name] {
				t.Errorf("modifier -%s is registered but no CI step passes it", m.name)
			}
		}
	}
}

// TestMergeCheckRequiresOnlyDueSamples: a count whose filter passes none of
// a dozen rows merges one empty partial group, through kernel calls too
// short to retire a sampling interval, so no merge sample is due and
// -merge passes the plan, saying why it saw none. Requiring a sample
// regardless failed this plan though nothing was wrong with it.
func TestMergeCheckRequiresOnlyDueSamples(t *testing.T) {
	cat := catalog.New()
	tb := catalog.NewTable("t")
	k, v := tb.AddCol("t_k", catalog.TInt), tb.AddCol("t_v", catalog.TInt)
	for i := int64(0); i < 12; i++ {
		k.Data = append(k.Data, i%3)
		v.Data = append(v.Data, i)
	}
	cat.Add(tb)
	q, err := sqlparse.Parse("select count(*) from t where t_v > 100")
	if err != nil {
		t.Fatal(err)
	}
	r, err := mergeCheck(&env{cat: cat, workers: []int{1, 4}})
	if err != nil {
		t.Fatal(err)
	}
	detail, err := r.each(0, unit{name: "tiny", query: q})
	if err != nil {
		t.Fatalf("-merge failed a fault-free plan: %v", err)
	}
	if want := "partitioned, 0 merge tasks sampled, no call long enough to be due one"; !strings.Contains(detail, want) {
		t.Errorf("detail %q does not say %q", detail, want)
	}
	// A profile without merge samples still fails once a sample was due.
	if _, err := sampledMergeTasks(&core.Profile{}, true); err == nil {
		t.Error("a due merge sample that never landed passed")
	}
}
