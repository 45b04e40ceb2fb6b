package mutate

import (
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/pipeline"
	"repro/internal/queries"
	"repro/internal/verify"
	"repro/internal/verify/absint"
	"repro/internal/verify/tv"
)

// catchRate is the gate: the validators must catch at least this fraction
// of injected mutants across the corpus, with zero diagnostics on the
// clean artifacts.
const catchRate = 0.95

func gateSuite() *verify.Suite {
	return verify.NewSuite(append(verify.ArtifactSuite().Checkers, absint.Checker{})...)
}

// TestMutantGate runs the full harness over the query corpus: every clean
// compile must verify silently (false-positive gate), and the aggregate
// mutant catch rate must clear 95% (sensitivity gate). Per-class rates are
// logged so a regression names the weakened validator.
func TestMutantGate(t *testing.T) {
	if testing.Short() {
		t.Skip("mutant corpus gate is not a -short test")
	}
	cat := datagen.Generate(datagen.Config{ScaleFactor: 0.01, Seed: 42})

	type tally struct{ caught, total int }
	perClass := map[string]*tally{}
	count := func(class string, caught bool) {
		tl := perClass[class]
		if tl == nil {
			tl = &tally{}
			perClass[class] = tl
		}
		tl.total++
		if caught {
			tl.caught++
		}
	}

	for _, w := range queries.Suite() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			opts := engine.DefaultOptions()
			opts.VerifyArtifacts = true
			c := engine.NewCompiler(cat, opts)

			// False-positive gate: the clean compile runs the whole stack —
			// artifact suite + absint after every phase, translation
			// validation after every optimizer pass — and must stay silent.
			cq, err := c.CompileQuery(w.Query)
			if err != nil {
				t.Fatalf("clean compile flagged: %v", err)
			}
			if cq.TVSteps == 0 {
				t.Fatal("translation validator checked no pass applications")
			}

			popts := pipeline.Options{RegisterTagging: opts.RegisterTagging}
			freshModule := func() *pipeline.Compiled {
				pc, err := pipeline.Compile(cq.Plan, cq.Layout, popts)
				if err != nil {
					t.Fatalf("pipeline recompile: %v", err)
				}
				return pc
			}

			// IR mutants: the translation validator must refute equivalence
			// between the clean module's summary and the mutated one.
			it := tv.NewInterner()
			pre := tv.Summarize(freshModule().Module, it)
			nIR := len(IR(freshModule().Module))
			for i := 0; i < nIR; i++ {
				pc := freshModule()
				muts := IR(pc.Module)
				muts[i].Apply()
				post := tv.Summarize(pc.Module, it)
				caught := len(tv.Compare(pre, post, it)) > 0
				count(muts[i].Class, caught)
				if !caught {
					t.Logf("missed %s at %s", muts[i].Class, muts[i].Site)
				}
			}

			// Native mutants: the artifact suite + abstract interpreter
			// must flag the mutated program.
			suite := gateSuite()
			nNative := len(Native(CloneResult(cq.Code), cq.Mem))
			for i := 0; i < nNative; i++ {
				code := CloneResult(cq.Code)
				muts := Native(code, cq.Mem)
				muts[i].Apply()
				ds := suite.Run(&verify.Artifact{
					Phase:           "emit",
					Module:          cq.Pipe.Module,
					Dict:            cq.Pipe.Dict,
					Code:            code,
					RegisterTagging: opts.RegisterTagging,
					Pipelines:       cq.Pipe.Pipelines,
					Layout:          cq.Layout,
					Mem:             cq.Mem,
				})
				caught := len(verify.Errs(ds)) > 0
				count(muts[i].Class, caught)
				if !caught {
					t.Logf("missed %s at %s", muts[i].Class, muts[i].Site)
				}
			}
		})
	}

	var caught, total int
	for class, tl := range perClass {
		caught += tl.caught
		total += tl.total
		t.Logf("%-26s %3d/%3d", class, tl.caught, tl.total)
	}
	if total == 0 {
		t.Fatal("no mutants enumerated")
	}
	rate := float64(caught) / float64(total)
	t.Logf("aggregate: %d/%d = %.1f%%", caught, total, 100*rate)
	if rate < catchRate {
		t.Fatalf("mutant catch rate %.1f%% below the %.0f%% gate", 100*rate, 100*catchRate)
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
	sig := func() string {
		s := ""
		for _, mu := range Native(CloneResult(cq.Code), cq.Mem) {
			s += fmt.Sprintf("%s@%s\n", mu.Class, mu.Site)
		}
		pc, err := pipeline.Compile(cq.Plan, cq.Layout, pipeline.Options{RegisterTagging: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, mu := range IR(pc.Module) {
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
			return pc
		}
		for i, mu := range IR(fresh().Module) {
			if mu.Class != "ir/hoist-writable-load" {
				continue
			}
			pc := fresh()
			IR(pc.Module)[i].Apply()
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
