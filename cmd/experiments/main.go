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
//	experiments -exp pgo          profile-guided recompilation cycle deltas
//	experiments -exp ce           cardinality-estimation q-error sweep
//	experiments -exp shard        sharded execution + cross-shard pruning scaling
//	experiments -exp ingest       streaming ingest under epoch-versioned storage
//	experiments -exp mview        materialized views: dashboard speedup + zero rewrite tax
//	experiments -exp loc          Table 3 implementation effort
//
// -out FILE additionally writes the ce, shard, ingest, or mview report as
// JSON (BENCH_ce.json / BENCH_shard.json / BENCH_ingest.json /
// BENCH_mview.json). -normalize
// zeroes the ingest report's host-time throughput before writing — the
// form the golden test pins.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (see -help)")
	sf := flag.Float64("sf", 0.2, "data scale factor (1.0 ≈ TPC-H SF 0.01)")
	seed := flag.Uint64("seed", 42, "data generator seed")
	root := flag.String("root", ".", "repository root (for -exp loc)")
	out := flag.String("out", "", "write the ce, shard, ingest or mview report as JSON to this file")
	normalize := flag.Bool("normalize", false, "zero host-time fields in the ingest report before writing (golden form)")
	flag.Parse()

	env := experiments.NewEnv(*sf, *seed)

	// report is what -out writes: the runners that produce a BENCH_*.json.
	type report interface{ JSON() ([]byte, error) }
	type runner struct {
		name string
		run  func() (string, report, error)
	}
	text := func(f func() (string, error)) func() (string, report, error) {
		return func() (string, report, error) { s, err := f(); return s, nil, err }
	}
	runners := []runner{
		{"listing1", text(env.Listing1)},
		{"plan_costs", text(env.PlanCosts)},
		{"activity", text(env.Activity)},
		{"optimizer", text(env.Optimizer)},
		{"memory", text(env.Memory)},
		{"analyze", text(env.ExplainAnalyze)},
		{"overhead", func() (string, report, error) { s, _, err := env.Overhead(); return s, nil, err }},
		{"regreserve", func() (string, report, error) { s, _, err := env.RegReserve(); return s, nil, err }},
		{"attribution", func() (string, report, error) { s, _, err := env.Attribution(); return s, nil, err }},
		{"accuracy", func() (string, report, error) { s, _, err := env.Accuracy(); return s, nil, err }},
		{"table1", func() (string, report, error) { s, _, err := env.Table1(); return s, nil, err }},
		{"parallel", text(env.Parallel)},
		{"merge", func() (string, report, error) { s, _, err := env.Merge(); return s, nil, err }},
		{"pgo", func() (string, report, error) { s, _, err := env.PGO(); return s, nil, err }},
		{"ce", func() (string, report, error) { return env.CE() }},
		{"shard", func() (string, report, error) { return env.Shard() }},
		{"ingest", func() (string, report, error) {
			s, rep, err := env.Ingest()
			if err == nil && *normalize {
				rep.Normalize()
			}
			return s, rep, err
		}},
		{"mview", func() (string, report, error) { return env.MView() }},
		{"loc", func() (string, report, error) { s, err := experiments.LoC(*root); return s, nil, err }},
	}

	ran := false
	for _, r := range runners {
		if *exp != "all" && *exp != r.name {
			continue
		}
		ran = true
		s, rep, err := r.run()
		if err == nil && rep != nil && *out != "" {
			var b []byte
			if b, err = rep.JSON(); err == nil {
				err = os.WriteFile(*out, b, 0o644)
			}
		}
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
