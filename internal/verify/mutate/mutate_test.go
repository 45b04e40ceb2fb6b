package mutate

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/pipeline"
	"repro/internal/queries"
)

type judgement struct {
	vs  []Verdict
	err error
}

// judged holds every workload's verdicts, and under "ingest" the
// scripted ingest's, computed once for the gate tests below.
var judged = sync.OnceValue(func() map[string]judgement {
	cat := datagen.Generate(datagen.Config{ScaleFactor: 0.01, Seed: 42})
	out := map[string]judgement{}
	for _, w := range queries.Suite() {
		vs, err := Judge(cat, w.Query)
		out[w.Name] = judgement{vs, err}
	}
	vs, err := JudgeIngest()
	out["ingest"] = judgement{vs, err}
	return out
})

// judgedNames lists the keys of judged: the suite's workloads, then the
// ingest.
func judgedNames() []string {
	var names []string
	for _, w := range queries.Suite() {
		names = append(names, w.Name)
	}
	return append(names, "ingest")
}

// TestMutantGate runs the full harness over the query corpus and the
// scripted ingest: every clean compile and journal must verify silently
// (false-positive gate), every mutant must be caught, and every rule that
// fires must be the sole catcher of some mutant. Per-class and per-rule scores are logged so a
// regression names the weakened validator.
func TestMutantGate(t *testing.T) {
	if testing.Short() {
		t.Skip("mutant corpus gate is not a -short test")
	}
	score := NewScore()
	for _, name := range judgedNames() {
		t.Run(name, func(t *testing.T) {
			j := judged()[name]
			if j.err != nil {
				t.Fatal(j.err)
			}
			score.Add(name, j.vs)
			for _, v := range j.vs {
				if len(v.Rules) == 0 {
					t.Errorf("missed %s at %s", v.Class, v.Site)
				}
			}
		})
	}
	for _, line := range score.Lines() {
		t.Log(line)
	}
	if score.Total == 0 {
		t.Fatal("no mutants enumerated")
	}
	t.Logf("aggregate: %d/%d", score.Caught, score.Total)
	if idle := score.Idle(); len(idle) > 0 {
		t.Errorf("rules that caught no mutant alone: %v", idle)
	}
}

// soleClass pins, for every rule of the artifact gate and of the shard,
// epoch and view checkers, a mutant class some mutant of which that rule
// alone catches. Translation validation and the structural IR codes are
// exempt (exempt).
var soleClass = map[string]string{
	"ir/invariant-load":             "gen/mark-invariant",
	"dict/orphan-instr":             "dict/drop-link",
	"dict/dangling-tag":             "dict/derive-discarded",
	"dict/no-operator":              "dict/link-operator",
	"dict/derive-cycle":             "dict/derive-cycle",
	"dict/use-after-remove":         "dict/derive-from-removed",
	"merge/partitions":              "gen/slot-shift",
	"merge/region":                  "gen/staging-overlap",
	"merge/state-slots":             "gen/drop-state-slot",
	"merge/kernel":                  "gen/kernel-swap",
	"native/nmap-misaligned":        "native/drop-nmap-entry",
	"native/no-provenance":          "native/strip-provenance",
	"native/tagreg-clobber":         "native/tag-clobber",
	"native/shared-call-unrestored": "native/drop-tag-restore",
	"native/stale-inverted":         "native/stale-inverted",
	"native/branch-escape":          "native/branch-escape",
	"native/fallthrough":            "native/drop-ret",
	"absint/untagged-shared-call":   "native/drop-tag-write",
	"absint/div-zero":               "native/div-zero",
	"absint/misaligned":             "native/store-misalign",
	"absint/oob":                    "native/load-oob",
	"absint/readonly-store":         "native/readonly-store",
	"absint/access-width":           "native/load-width",

	"shard/zone-gap":       "shard/shift-zone",
	"shard/zone-short":     "shard/drop-zone",
	"shard/tile-gap":       "shard/drop-shard",
	"shard/tile-short":     "shard/drop-shard",
	"shard/zone-collision": "shard/retag-zone",
	"shard/cause-unknown":  "shard/garble-cause",
	"shard/unknown-alias":  "shard/rename-alias",

	"epoch/non-monotonic":    "epoch/swap-events",
	"epoch/window-gap":       "epoch/shift-window",
	"epoch/window-empty":     "epoch/empty-window",
	"epoch/unknown-table":    "epoch/drop-base",
	"epoch/rows-mismatch":    "epoch/snap-rows",
	"epoch/zone-granularity": "epoch/snap-granularity",
	"epoch/zone-regression":  "epoch/snap-bounds",

	"views/no-ledger":        "views/drop-ledger",
	"views/ledger-order":     "views/regress-ledger",
	"views/table-missing":    "views/rename-table",
	"views/coverage-overrun": "views/overrun-coverage",
	"views/rows-mismatch":    "views/truncate-ledger",
	"views/epoch-ahead":      "views/epoch-ahead",
	"views/journal-missing":  "views/drop-journal",
	"views/content-mismatch": "views/corrupt-partial",
}

// TestEveryRuleCatchesAClassAlone: each rule of soleClass is the only rule
// that fires on some mutant of its class, and the gate emits no rule the
// table does not name. A rule that stops catching its class alone must get
// a class of its own, merge into the rule that catches its class, or go.
func TestEveryRuleCatchesAClassAlone(t *testing.T) {
	if testing.Short() {
		t.Skip("mutant corpus gate is not a -short test")
	}
	alone := map[[2]string]bool{}
	for name, j := range judged() {
		if j.err != nil {
			t.Fatalf("%s: %v", name, j.err)
		}
		for _, v := range j.vs {
			for _, rule := range v.Rules {
				if _, known := soleClass[rule]; !known && !exempt(rule) {
					t.Errorf("%s: the gate emits %s (on %s at %s), which the table does not name", name, rule, v.Class, v.Site)
				}
			}
			if len(v.Rules) == 1 {
				alone[[2]string{v.Rules[0], v.Class}] = true
			}
		}
	}
	for rule, class := range soleClass {
		if !alone[[2]string{rule, class}] {
			t.Errorf("%s catches no %s mutant alone", rule, class)
		}
	}
}

// TestMutantsAreDeterministic: two enumerations over identical artifacts
// must agree site for site — the gate must not flake.
func TestMutantsAreDeterministic(t *testing.T) {
	cat := datagen.Generate(datagen.Config{ScaleFactor: 0.01, Seed: 42})
	opts := engine.DefaultOptions()
	c := engine.NewCompiler(cat, opts)
	cq, err := c.CompileQuery(queries.Fig9().Query)
	if err != nil {
		t.Fatal(err)
	}
	par, err := cq.Parallel()
	if err != nil {
		t.Fatal(err)
	}
	sig := func() string {
		s := ""
		for _, mu := range Native(CloneResult(par.Code), cq.Mem) {
			s += fmt.Sprintf("%s@%s\n", mu.Class, mu.Site)
		}
		pc, err := pipeline.Compile(cq.Plan, cq.Layout, pipeline.Options{RegisterTagging: true})
		if err != nil {
			t.Fatal(err)
		}
		pc.JoinKernels()
		for _, mu := range IR(pc) {
			s += fmt.Sprintf("%s@%s\n", mu.Class, mu.Site)
		}
		return s
	}
	if a, b := sig(), sig(); a != b {
		t.Fatalf("non-deterministic enumeration:\n%s\nvs\n%s", a, b)
	}
}

// TestHoistedLoadMutantsStayWellFormed: every ir/hoist-writable-load
// mutant leaves valid SSA — the address arithmetic moves with the load —
// so the translation validator, not the IR verifier, is what catches it.
func TestHoistedLoadMutantsStayWellFormed(t *testing.T) {
	cat := datagen.Generate(datagen.Config{ScaleFactor: 0.01, Seed: 42})
	c := engine.NewCompiler(cat, engine.DefaultOptions())
	n := 0
	for _, w := range queries.Suite() {
		cq, err := c.CompileQuery(w.Query)
		if err != nil {
			t.Fatal(err)
		}
		fresh := func() *pipeline.Compiled {
			pc, err := pipeline.Compile(cq.Plan, cq.Layout, pipeline.Options{RegisterTagging: true})
			if err != nil {
				t.Fatal(err)
			}
			pc.JoinKernels()
			return pc
		}
		for i, mu := range IR(fresh()) {
			if mu.Class != "ir/hoist-writable-load" {
				continue
			}
			pc := fresh()
			IR(pc)[i].Apply()
			if err := pc.Module.Verify(); err != nil {
				t.Errorf("%s: %s at %s: %v", w.Name, mu.Class, mu.Site, err)
			}
			n++
		}
	}
	if n == 0 {
		t.Fatal("no ir/hoist-writable-load mutants enumerated")
	}
}
