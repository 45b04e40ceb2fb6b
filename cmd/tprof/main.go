// Command tprof is the Tailored Profiling CLI: it compiles a query (SQL or
// a named workload), runs it on the simulated machine under PMU sampling,
// and prints profiling reports at the requested abstraction level —
// annotated plan, per-operator costs, annotated IR listing, activity
// timeline, or memory access profile.
//
//	tprof -query fig9 -report plan,timeline
//	tprof -sql "select count(*) from lineitem" -report operators
//	tprof -query intro-nogj -report ir -event cycles -period 1000
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/pmu"
	"repro/internal/queries"
	"repro/internal/viz"
	"repro/internal/vm"
)

func main() {
	sql := flag.String("sql", "", "SQL statement to profile")
	queryName := flag.String("query", "", "named workload from the evaluation suite")
	list := flag.Bool("list", false, "list named workloads and exit")
	sf := flag.Float64("sf", 0.5, "data scale factor")
	seed := flag.Uint64("seed", 42, "data generator seed")
	event := flag.String("event", "cycles", "sampling event: cycles|instructions|loads|l3miss|branchmiss")
	period := flag.Int64("period", 5000, "sampling period (events per sample)")
	format := flag.String("format", "regs", "sample format: time|regs|callstack")
	reports := flag.String("report", "plan,operators", "comma-separated reports: plan,operators,tasks,ir,timeline,memory,analyze,ipc,samples,flame,attribution,dict,disasm,result")
	noTagging := flag.Bool("no-register-tagging", false, "disable Register Tagging (shared-code samples resolve via call stacks only)")
	analyze := flag.Bool("analyze", false, "instrument EXPLAIN ANALYZE tuple counters")
	bins := flag.Int("bins", 60, "timeline bins")
	save := flag.String("save", "", "write the meta-data file <prefix>.meta.bin and the sample log <prefix>.samples.bin (binary, DESIGN.md §4) for offline post-processing: tpostproc -prefix <prefix>; -report samples there prints a log as text")
	zoomFrom := flag.Float64("zoom-from-ms", -1, "restrict reports to samples after this time")
	zoomTo := flag.Float64("zoom-to-ms", -1, "restrict reports to samples before this time")
	flag.Parse()

	if *list {
		for _, w := range queries.Suite() {
			fmt.Printf("%-12s %s\n", w.Name, w.Description)
		}
		return
	}

	events := map[string]vm.Event{
		"cycles": vm.EvCycles, "instructions": vm.EvInstRetired,
		"loads": vm.EvMemLoads, "l3miss": vm.EvL3Miss, "branchmiss": vm.EvBranchMiss,
	}
	ev, ok := events[*event]
	if !ok {
		fatalf("unknown event %q", *event)
	}
	formats := map[string]pmu.Format{
		"time": pmu.FormatIPTime, "regs": pmu.FormatIPTimeRegs, "callstack": pmu.FormatCallStack,
	}
	fm, ok := formats[*format]
	if !ok {
		fatalf("unknown format %q", *format)
	}

	cat := datagen.Generate(datagen.Config{ScaleFactor: *sf, Seed: *seed})
	opts := engine.DefaultOptions()
	opts.RegisterTagging = !*noTagging
	opts.TupleCounters = *analyze
	eng := engine.New(cat, opts)

	var cq *engine.Compiled
	var err error
	switch {
	case *sql != "":
		cq, err = eng.CompileSQL(*sql)
	case *queryName != "":
		w, ok := queries.ByName(*queryName)
		if !ok {
			fatalf("unknown workload %q (try -list)", *queryName)
		}
		cq, err = eng.CompileQuery(w.Query)
	default:
		fatalf("one of -sql or -query is required")
	}
	if err != nil {
		fatalf("compile: %v", err)
	}

	res, err := eng.Run(cq, &pmu.Config{Event: ev, Period: *period, Format: fm})
	if err != nil {
		fatalf("run: %v", err)
	}
	// The program the run executed.
	prog := res.Program()
	if *save != "" {
		if err := saveArtifacts(*save, res); err != nil {
			fatalf("save: %v", err)
		}
		fmt.Printf("wrote %s.meta.bin and %s.samples.bin\n", *save, *save)
	}

	p := res.Profile
	if *zoomFrom >= 0 || *zoomTo >= 0 {
		from, to := uint64(0), ^uint64(0)
		if *zoomFrom >= 0 {
			from = uint64(*zoomFrom * 3.5e6)
		}
		if *zoomTo >= 0 {
			to = uint64(*zoomTo * 3.5e6)
		}
		sub := core.SliceSamples(res.Samples, from, to)
		att := core.NewAttributor(prog.Dict, prog.Code.NMap)
		p = core.BuildProfile(att, sub)
		fmt.Printf("zoomed to [%0.2f, %0.2f] ms: %d of %d samples\n",
			*zoomFrom, *zoomTo, p.TotalSamples, len(res.Samples))
	}

	fmt.Printf("query ran in %.3f ms (%.3f ms with sampling); %d instructions, %d samples of %s\n\n",
		float64(res.Stats.Cycles)/3.5e6, float64(res.Stats.TotalCycles())/3.5e6,
		res.Stats.Instructions, p.TotalSamples, ev)

	for _, rep := range strings.Split(*reports, ",") {
		switch strings.TrimSpace(rep) {
		case "plan":
			fmt.Println("── query plan with operator costs " + strings.Repeat("─", 30))
			fmt.Println(viz.AnnotatedPlan(cq.Plan, cq.Pipe, p))
		case "operators":
			fmt.Println("── per-operator samples " + strings.Repeat("─", 40))
			fmt.Println(viz.OperatorTable(p))
		case "tasks":
			fmt.Println("── per-task samples " + strings.Repeat("─", 44))
			for _, c := range p.TaskCosts() {
				fmt.Printf("%-36s %8.1f %6.1f%%\n", c.Name, c.Samples, c.Pct)
			}
			fmt.Println()
		case "ir":
			fmt.Println("── annotated IR " + strings.Repeat("─", 48))
			for _, f := range prog.Module.Funcs {
				fmt.Println(viz.AnnotatedIR(f, cq.Pipe, p))
			}
		case "timeline":
			fmt.Println("── operator activity over time " + strings.Repeat("─", 33))
			fmt.Println(viz.TimelineChart(p.BuildTimeline(*bins), res.CPU.FreqGHz))
		case "memory":
			fmt.Println("── memory access profile " + strings.Repeat("─", 39))
			if ev != vm.EvMemLoads && ev != vm.EvL3Miss {
				fmt.Println("(hint: use -event loads to capture addresses)")
			}
			fmt.Println(viz.MemoryProfile(p, 72, 8, engine.DataFloor))
		case "analyze":
			if res.TupleCounts == nil {
				fmt.Println("(hint: pass -analyze to instrument tuple counters)")
				continue
			}
			fmt.Println("── EXPLAIN ANALYZE: rows vs time " + strings.Repeat("─", 31))
			fmt.Println(viz.AnalyzedPlan(cq.Plan, cq.Pipe, res.TupleCounts, p))
			fmt.Println(viz.TaskRowTable(cq.Pipe, res.TupleCounts))
		case "ipc":
			instrRes, err := eng.Run(cq, &pmu.Config{Event: vm.EvInstRetired, Period: *period, Format: fm})
			if err != nil {
				fatalf("ipc run: %v", err)
			}
			fmt.Println("── per-operator IPC " + strings.Repeat("─", 44))
			_, table := viz.IPCTable(p, instrRes.Profile, res.Stats.Cycles, res.Stats.Instructions)
			fmt.Println(table)
		case "samples":
			att := core.NewAttributor(prog.Dict, prog.Code.NMap)
			fmt.Println(viz.SampleDump(res.Samples, att, 200))
		case "flame":
			fmt.Println(viz.FoldedStacks(p))
		case "attribution":
			a := p.Attribution()
			fmt.Printf("attribution: operators %.1f%%, kernel %.1f%%, unattributed %.1f%%\n\n",
				a.OperatorPct, a.KernelPct, a.UnattributedPct)
		case "dict":
			fmt.Println("── Tagging Dictionary " + strings.Repeat("─", 42))
			fmt.Println(prog.Dict.Dump())
		case "disasm":
			fmt.Println("── native code " + strings.Repeat("─", 49))
			fmt.Println(prog.Code.Program.Disasm())
		case "result":
			fmt.Println("── query result " + strings.Repeat("─", 48))
			fmt.Println(viz.ResultTable(res, 20))
		default:
			fatalf("unknown report %q", rep)
		}
	}
}

// saveArtifacts writes the Tagging Dictionary meta-data file (§5.2.2) of
// the program res executed and its sample log, for offline
// post-processing.
func saveArtifacts(prefix string, res *engine.Result) error {
	mf, err := os.Create(prefix + ".meta.bin")
	if err != nil {
		return err
	}
	defer mf.Close()
	prog := res.Program()
	if err := core.WriteMetadata(mf, prog.Dict, prog.Code.NMap); err != nil {
		return err
	}
	sf, err := os.Create(prefix + ".samples.bin")
	if err != nil {
		return err
	}
	defer sf.Close()
	return core.WriteSamples(sf, res.Samples)
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
