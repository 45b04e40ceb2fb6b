package codegen_test

import (
	"testing"

	"repro/internal/codegen"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/queries"
)

// TestSuiteLivenessMatchesReference lowers every function of every suite
// plan and holds the allocator's bit-matrix liveness (and operands) to
// the map-based oracle of reference_test.go — with and without the tag
// register reserved, since that changes the code being lowered.
func TestSuiteLivenessMatchesReference(t *testing.T) {
	cat := datagen.Generate(datagen.Config{ScaleFactor: 0.01, Seed: 7})
	for _, tagging := range []bool{true, false} {
		opts := engine.DefaultOptions()
		opts.RegisterTagging = tagging
		e := engine.New(cat, opts)
		for _, w := range queries.Suite() {
			cq, err := e.CompileQuery(w.Query)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			cfg := codegen.DefaultConfig(0, 0, 1<<20)
			cfg.RegisterTagging = tagging
			if err := codegen.DiffLiveness(cq.Pipe.Module, cfg); err != nil {
				t.Errorf("%s: %v", w.Name, err)
			}
		}
	}
}

// TestSuiteLIRHasNoDeadDefs: after lowering, no constant or ALU result of
// any suite or SQL-suite statement is left unread — in particular no
// address Add that was folded into its load's displacement.
func TestSuiteLIRHasNoDeadDefs(t *testing.T) {
	cat := datagen.Generate(datagen.Config{ScaleFactor: 0.01, Seed: 7})
	e := engine.New(cat, engine.DefaultOptions())
	for _, w := range append(queries.Suite(), queries.SQLSuite()...) {
		cq, err := e.CompileQuery(w.Query)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		cfg := codegen.DefaultConfig(0, 0, 1<<20)
		cfg.RegisterTagging = e.Opts.RegisterTagging
		if err := codegen.DeadDefs(cq.Pipe.Module, cfg); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
}
