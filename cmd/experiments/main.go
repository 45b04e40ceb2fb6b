// Command experiments regenerates every table and figure of the paper's
// evaluation. Run with -exp all (default) for the full report, or select a
// single experiment:
//
//	experiments -exp listing1     Listing 1 / Fig. 6b annotated IR profile
//	experiments -exp plan_costs   Fig. 6a / Fig. 9 per-operator plan costs
//	experiments -exp activity     Fig. 7 operator activity over time
//	experiments -exp optimizer    Fig. 10/11 alternative plans
//	experiments -exp memory       Fig. 12 memory access profiles
//	experiments -exp analyze      §6.1 EXPLAIN ANALYZE vs sampled time
//	experiments -exp overhead     Fig. 13 + §6.2 storage costs
//	experiments -exp regreserve   §6.2 register reservation overhead
//	experiments -exp attribution  Table 2 sample attribution
//	experiments -exp accuracy     §6.3 accuracy validation
//	experiments -exp table1       Table 1 optimization support matrix
//	experiments -exp parallel     morsel-driven scaling on simulated cores
//	experiments -exp loc          Table 3 implementation effort
//
// The gates of the features beyond the paper (cardinality estimation,
// merge, shards, ingest, views) are asserted by one test each
// next to the feature; see DESIGN.md.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

// runner is one experiment of the report: its -exp name and what prints
// it.
type runner struct {
	name string
	run  func() (string, error)
}

// runners lists the report's experiments in print order over env; root is
// the repository root -exp loc counts.
func runners(env *experiments.Env, root string) []runner {
	// first drops an experiment's structured result; the text is the report.
	first := func(s string, _ any, err error) (string, error) { return s, err }
	return []runner{
		{"listing1", env.Listing1},
		{"plan_costs", env.PlanCosts},
		{"activity", env.Activity},
		{"optimizer", env.Optimizer},
		{"memory", env.Memory},
		{"analyze", env.ExplainAnalyze},
		{"overhead", func() (string, error) { return first(env.Overhead()) }},
		{"regreserve", func() (string, error) { return first(env.RegReserve()) }},
		{"attribution", func() (string, error) { return first(env.Attribution()) }},
		{"accuracy", func() (string, error) { return first(env.Accuracy()) }},
		{"table1", func() (string, error) { return first(env.Table1()) }},
		{"parallel", env.Parallel},
		{"loc", func() (string, error) { return experiments.LoC(root) }},
	}
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (see -help)")
	sf := flag.Float64("sf", 0.2, "data scale factor (1.0 ≈ TPC-H SF 0.01)")
	seed := flag.Uint64("seed", 42, "data generator seed")
	root := flag.String("root", ".", "repository root (for -exp loc)")
	flag.Parse()

	ran := false
	for _, r := range runners(experiments.NewEnv(*sf, *seed), *root) {
		if *exp != "all" && *exp != r.name {
			continue
		}
		ran = true
		s, err := r.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", r.name, err)
			os.Exit(1)
		}
		fmt.Println(s)
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}
