package ir_test

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/ir"
	"repro/internal/iropt"
	"repro/internal/queries"
)

// TestSuiteFunctionsMatchReference runs the dense verifier, reachability
// and dominators against the oracle of reference_test.go over every
// function the evaluation suite lowers to — as pipeline construction
// leaves it, and as the optimizer does.
func TestSuiteFunctionsMatchReference(t *testing.T) {
	cat := datagen.Generate(datagen.Config{ScaleFactor: 0.01, Seed: 7})
	for _, optimize := range []iropt.Options{{}, iropt.AllOptions()} {
		opts := engine.DefaultOptions()
		opts.Optimize = optimize
		e := engine.New(cat, opts)
		for _, w := range queries.Suite() {
			cq, err := e.CompileQuery(w.Query)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			m := cq.Pipe.Module
			if err := ir.DiffCheck(m); err != nil {
				t.Errorf("%s: %v", w.Name, err)
			}
			for _, f := range m.Funcs {
				if err := ir.DiffDominators(f); err != nil {
					t.Errorf("%s: %v", w.Name, err)
				}
			}
		}
	}
}
