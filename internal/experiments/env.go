// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) on the simulated stack. Each experiment returns a text
// report; Markdown assembles the paper-vs-measured comparison that is
// checked into EXPERIMENTS.md.
package experiments

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/pmu"
	"repro/internal/queries"
	"repro/internal/vm"
)

// DefaultPeriod matches the paper's default sampling rate: one sample per
// 5000 events (§6 experimental setup).
const DefaultPeriod = 5000

// Env carries the shared experiment environment.
type Env struct {
	Cat  *catalog.Catalog
	SF   float64
	Seed uint64
}

// NewEnv generates the dataset at the given scale factor.
func NewEnv(sf float64, seed uint64) *Env {
	return &Env{Cat: datagen.Generate(datagen.Config{ScaleFactor: sf, Seed: seed}), SF: sf, Seed: seed}
}

// engine returns a fresh engine with default options.
func (e *Env) engine() *engine.Engine {
	return engine.New(e.Cat, engine.DefaultOptions())
}

// profileQuery compiles and runs a workload with cycle sampling.
func (e *Env) profileQuery(w queries.Workload, period int64) (*engine.Compiled, *engine.Result, error) {
	eng := e.engine()
	cq, err := eng.CompileQuery(w.Query)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	res, err := eng.Run(cq, &pmu.Config{
		Event:  vm.EvCycles,
		Period: period,
		Format: pmu.FormatIPTimeRegs,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	return cq, res, nil
}

// ms converts cycles to milliseconds at the simulated clock.
func ms(cycles uint64) float64 { return float64(cycles) / (3.5e6) }
