// Package tprof is the public API of this reproduction of "Profiling
// Dataflow Systems on Multiple Abstraction Levels" (Beischl et al.,
// EuroSys 2021): a compiling dataflow engine (SQL → operator plan →
// pipelines of tasks → IR → simulated native code), a simulated CPU with a
// PEBS-style PMU, and — the paper's contribution — Tailored Profiling:
// Tagging Dictionary, Abstraction Trackers, Register Tagging, and
// multi-level profile reports.
//
// Quick start:
//
//	cat := tprof.GenerateData(tprof.DataConfig{ScaleFactor: 1})
//	eng := tprof.NewEngine(cat, tprof.DefaultOptions())
//	cq, err := eng.CompileSQL(`select l_orderkey, avg(l_extendedprice)
//	                           from lineitem, orders
//	                           where o_orderkey = l_orderkey group by l_orderkey`)
//	res, err := eng.Run(cq, &tprof.SamplingConfig{
//	    Event: tprof.EventCycles, Period: 5000, Format: tprof.FormatIPTimeRegs,
//	})
//	fmt.Println(tprof.AnnotatedPlan(cq.Plan, cq.Pipe, res.Profile))
//
// The subsystems live in internal packages; this package re-exports the
// stable surface. See README.md for the architecture, DESIGN.md for the
// mechanisms and EXPERIMENTS.md for the paper-experiment mapping.
package tprof

import (
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/pmu"
	"repro/internal/ref"
	"repro/internal/sqlparse"
	"repro/internal/viz"
	"repro/internal/vm"
)

// Engine compiles and runs queries (see internal/engine).
type Engine = engine.Engine

// Options configures compilation (Register Tagging, IR optimizations, …).
type Options = engine.Options

// Compiled is a compiled query: plan, pipelines, Tagging Dictionary,
// native code and debug info.
type Compiled = engine.Compiled

// Result is one execution's rows, statistics, samples and profile.
type Result = engine.Result

// Catalog holds the tables queries run against.
type Catalog = catalog.Catalog

// Table is an in-memory columnar table.
type Table = catalog.Table

// DataConfig scales the TPC-H-like dataset.
type DataConfig = datagen.Config

// SamplingConfig arms the PMU (event, period, record format).
type SamplingConfig = pmu.Config

// Format selects the sample record contents.
type Format = pmu.Format

// Profile is the attributed, aggregated sample set with report builders.
type Profile = core.Profile

// Query is the parsed-but-unplanned query form; build one with Parse or
// programmatically with the plan package's expression constructors.
type Query = plan.Query

// Sampling events.
const (
	EventCycles       = vm.EvCycles
	EventInstructions = vm.EvInstRetired
	EventLoads        = vm.EvMemLoads
	EventL3Miss       = vm.EvL3Miss
	EventBranchMiss   = vm.EvBranchMiss
)

// Sample record formats (the three configurations of Fig. 13).
var (
	FormatIPTime     = pmu.FormatIPTime
	FormatIPTimeRegs = pmu.FormatIPTimeRegs
	FormatCallStack  = pmu.FormatCallStack
)

// NewEngine creates an engine over a catalog.
func NewEngine(cat *Catalog, opts Options) *Engine { return engine.New(cat, opts) }

// DefaultOptions returns the standard configuration (Register Tagging on,
// all IR optimizations enabled).
func DefaultOptions() Options { return engine.DefaultOptions() }

// GenerateData builds the deterministic TPC-H-like dataset.
func GenerateData(cfg DataConfig) *Catalog { return datagen.Generate(cfg) }

// Parse parses a SQL statement into a Query.
func Parse(sql string) (*Query, error) { return sqlparse.Parse(sql) }

// ReferenceExecute runs a compiled plan on the interpreted reference
// executor (the correctness oracle).
func ReferenceExecute(pl *plan.Output) ([][]int64, error) { return ref.Execute(pl) }

// AnnotatedPlan renders the plan with per-operator cost shares (Fig. 9b).
func AnnotatedPlan(pl *plan.Output, cq *Compiled, p *Profile) string {
	return viz.AnnotatedPlan(pl, cq.Pipe, p)
}

// OperatorTable renders per-operator costs as text.
func OperatorTable(p *Profile) string { return viz.OperatorTable(p) }

// TimelineChart renders operator activity over time (Fig. 7/11).
func TimelineChart(p *Profile, bins int) string {
	return viz.TimelineChart(p.BuildTimeline(bins), 3.5)
}

// MemoryProfile renders per-operator memory access patterns (Fig. 12).
func MemoryProfile(p *Profile) string {
	return viz.MemoryProfile(p, 72, 8, engine.DataFloor)
}

// ResultTable renders query results with decoded dictionary strings and
// dates.
func ResultTable(res *Result, maxRows int) string { return viz.ResultTable(res, maxRows) }

// AnalyzedPlan renders the plan with EXPLAIN ANALYZE tuple counts (enable
// Options.TupleCounters) next to sampled time shares — the §6.1
// comparison.
func AnalyzedPlan(cq *Compiled, res *Result) string {
	return viz.AnalyzedPlan(cq.Plan, cq.Pipe, res.TupleCounts, res.Profile)
}

// Zoom rebuilds a profile from the samples inside [fromTSC, toTSC] — the
// §4.3 drill-down from a timeline hotspot to lower abstraction levels.
// res carries the program it ran, whose debug information attributes the
// samples.
func Zoom(res *Result, fromTSC, toTSC uint64) *Profile {
	prog := res.Program()
	att := core.NewAttributor(prog.Dict, prog.Code.NMap)
	return core.BuildProfile(att, core.SliceSamples(res.Samples, fromTSC, toTSC))
}
