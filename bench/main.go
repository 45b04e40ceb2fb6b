// Command bench is the repository's performance ledger: four seeded,
// closed-loop, single-client workloads driven through the public functions
// of the existing packages, measured end to end on both clocks (host time,
// CPU and allocations; simulated cycles) and, in a separate traced pass,
// layer by layer. README.md in this directory is the manual.
//
//	go run ./bench -workload profile_suite -seed 1 -seconds 20 -trace 0
//	go run ./bench -workload all -record runs.jsonl
//	go run ./bench -compare old.jsonl new.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// workloads in the order "-workload all" runs them. Names are fixed: later
// issues state their claims in them.
var workloads = []struct {
	name string
	make func() workload
}{
	{"profile_suite", func() workload { return &profileSuite{} }},
	{"postprocess_zoom", func() workload { return &postprocessZoom{} }},
	{"adhoc_cold", func() workload { return &adhocCold{} }},
	{"dashboard_ingest", func() workload { return &dashboardIngest{} }},
}

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: profile_suite, postprocess_zoom, adhoc_cold, dashboard_ingest or all")
	seed := fs.Uint64("seed", 1, "seed of the data and of every statement literal")
	seconds := fs.Float64("seconds", 20, "how long to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced pass and its per-layer metrics")
	rounds := fs.Int("rounds", 0, "measure exactly this many rounds instead of -seconds (smoke tests)")
	scale := fs.Float64("scale", 1, "multiplier on every workload's data scale (smoke tests)")
	outDir := fs.String("out", "bench/out", "directory the traced pass writes trace-<workload>.json to")
	record := fs.String("record", "", "also append each result, tagged with workload, seed and trace, to this file")
	compare := fs.Bool("compare", false, "compare two -record files: bench -compare old new")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare old.jsonl new.jsonl")
			return 2
		}
		if err := compareFiles(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	ran := false
	for _, w := range workloads {
		if *name != w.name && *name != "all" {
			continue
		}
		ran = true
		o := options{seed: *seed, scale: *scale, seconds: *seconds, rounds: *rounds, trace: *trace == 1, outDir: *outDir}
		res, err := run(w.name, w.make(), o)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		if *record != "" {
			if err := appendRecord(*record, runRecord{Workload: w.name, Seed: *seed, Trace: *trace, result: *res}); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if *name == "all" {
			fmt.Fprintf(stdout, "# %s\n", w.name)
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if !ran {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		fs.Usage()
		return 2
	}
	return 0
}
