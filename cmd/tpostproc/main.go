// Command tpostproc is the offline post-processing phase of Tailored
// Profiling (Fig. 4 step 3–4, §5.2.2): it reads the Tagging Dictionary
// meta-data file written at compile time and a sample log written at run
// time — produced by `tprof -save <prefix>` as <prefix>.meta.bin and
// <prefix>.samples.bin — and generates reports without access to the
// engine, the plan, or the data. Both files are binary; -report samples
// prints a log as text.
//
//	tprof -query fig9 -save /tmp/fig9
//	tpostproc -prefix /tmp/fig9 -report operators,timeline,attribution
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/viz"
)

func main() {
	prefix := flag.String("prefix", "", "artifact prefix written by tprof -save")
	reports := flag.String("report", "operators,attribution", "comma-separated: operators,tasks,timeline,attribution,samples")
	bins := flag.Int("bins", 60, "timeline bins")
	flag.Parse()
	if *prefix == "" {
		fmt.Fprintln(os.Stderr, "usage: tpostproc -prefix <prefix> [-report ...]")
		os.Exit(2)
	}

	mf, err := os.Open(*prefix + ".meta.bin")
	if err != nil {
		fatal(err)
	}
	dict, nmap, err := core.ReadMetadata(mf)
	mf.Close()
	if err != nil {
		fatal(err)
	}
	sf, err := os.Open(*prefix + ".samples.bin")
	if err != nil {
		fatal(err)
	}
	samples, err := core.ReadSamples(sf)
	sf.Close()
	if err != nil {
		fatal(err)
	}

	att := core.NewAttributor(dict, nmap)
	p := core.BuildProfile(att, samples)
	fmt.Printf("loaded %d samples, %d components, %d dictionary entries\n\n",
		p.TotalSamples, dict.Registry.Len(), dict.Entries())

	for _, rep := range strings.Split(*reports, ",") {
		switch strings.TrimSpace(rep) {
		case "operators":
			fmt.Println(viz.OperatorTable(p))
		case "tasks":
			for _, c := range p.TaskCosts() {
				fmt.Printf("%-36s %8.1f %6.1f%%\n", c.Name, c.Samples, c.Pct)
			}
			fmt.Println()
		case "timeline":
			fmt.Println(viz.TimelineChart(p.BuildTimeline(*bins), 3.5))
		case "attribution":
			a := p.Attribution()
			fmt.Printf("attribution: operators %.1f%%, kernel %.1f%%, unattributed %.1f%%\n\n",
				a.OperatorPct, a.KernelPct, a.UnattributedPct)
		case "samples":
			fmt.Println(viz.SampleDump(samples, att, 100))
		default:
			fmt.Fprintf(os.Stderr, "unknown report %q\n", rep)
			os.Exit(2)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
