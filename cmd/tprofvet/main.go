// Command tprofvet is the static verification driver for the Tailored
// Profiling toolchain:
//
//	tprofvet check [-sf 0.05] [-seed 42] [-workers 1,4] [-q name] [-json] [-<mode>]
//	tprofvet lint [-json] [root]
//
// check runs one row of the checks table below over its workload suite;
// `tprofvet check -h` describes every mode, and DESIGN.md §9 says how to add
// one. lint type-checks the repository and applies the source rules of
// verify.Lint.
//
// Exit status: 0 clean, 1 diagnostics or failures, 2 usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/plan"
	"repro/internal/verify"
)

func main() {
	if len(os.Args) >= 2 {
		switch os.Args[1] {
		case "check":
			os.Exit(runCheck(checks, os.Args[2:], os.Stdout, os.Stderr))
		case "lint":
			os.Exit(runLint(os.Args[2:], os.Stdout, os.Stderr))
		}
	}
	fmt.Fprintln(os.Stderr, "usage: tprofvet check [flags] | tprofvet lint [root]")
	os.Exit(2)
}

// A check is one mode of `tprofvet check`. The driver (runCheck) owns the
// flags, the catalog, the loop over the suite, the ok/FAIL lines, the
// counting, the summary and the exit code; a check supplies only what is
// specific to it.
type check struct {
	flag string    // mode flag; "" on the first row, which runs when none is given
	mods []flagDoc // modifier flags only this check reads (env.mod)
	help string    // the mode's only description: its flag usage in `check -h`
	noun string    // what the suite's units are, for the summary line
	json bool      // supports -json (run.report is set)
	// suite lists the units the driver loops over (-q keeps one name). It
	// runs before any data is generated, so a bad -q costs nothing.
	suite func(workers []int) []unit
	setup func(env *env) (*run, error)
}

type flagDoc struct{ name, help string }

// unit is one element of a suite: a hand-built plan (the default check's at
// one worker count), a SQL statement, or a view probe over its base table.
type unit struct {
	name       string
	query      *plan.Query
	workers    int
	sql, table string
}

// run is what a check's setup hands the driver.
type run struct {
	// each verifies unit i of the suite. A non-nil error is the unit's FAIL
	// line; otherwise detail is its ok line (none when empty).
	each func(i int, u unit) (detail string, err error)
	// finish (optional) runs the whole-suite replays after the loop and
	// words the clean-run summary for n units; every non-nil error is one
	// more FAIL line.
	finish func(n int) (summary string, errs []error)
	report func(failures int) any // the -json document; runs after finish
}

// env is what the driver hands a check's setup.
type env struct {
	cat     *catalog.Catalog
	workers []int
	mod     map[string]bool // modifier flags, by name
	text    io.Writer       // human-readable output; discarded under -json
}

// checks is the table: adding a mode is one row here, its body in
// checks.go, and one `tprofvet check -<flag>` step in CI (a test holds the
// last).
var checks = []check{
	{noun: "artifact sets", json: true, suite: artifactUnits, setup: artifactsCheck,
		help: `With no mode flag, check compiles the plan suite at every -workers count with
Engine.VerifyArtifacts on: the artifact gate (verify.Check, absint included) runs
over every artifact, after pipeline construction, every optimizer pass, and emit;
at workers >= 1 also over the merge kernels the parallel program appends.`,
		mods: []flagDoc{
			{"tv", "default check: report translation-validation coverage; fail a compile that validated no optimizer pass"},
			{"absint", "default check: abstract-interpret the emitted code; report proved memory accesses, fail a definite violation"},
		}},
	{flag: "mutants", noun: "workloads", json: true, suite: planUnits, setup: mutantsCheck,
		help: `mode: seed miscompilation mutants into every plan's IR, lineage, merge metadata
and native code, and state mutants into its shard journals and a scripted ingest's
epoch journal and view ledgers; clean compiles and journals must verify silently,
every mutant must be caught, and every rule of the artifact gate and the shard,
epoch and view checkers must be the sole catcher of some mutant`},
	{flag: "cache", noun: "workloads", suite: sqlUnits, setup: cacheCheck,
		help: `mode: the SQL suite through the query service; the cold compile, the re-prepare
(which must hit) and every -workers count must return the reference executor's rows`},
	{flag: "merge", noun: "workloads", suite: planUnits, setup: mergeCheck,
		help: `mode: the partitioned merge (DESIGN.md §11): static MergeInvariants at compile,
serial rows in order at every -workers count, PMU samples on the merge kernels`},
	{flag: "cost", noun: "workloads", suite: sqlUnits, setup: costCheck,
		help: `mode: the cost layer: consistent estimates on every plan node (cost.CheckModel),
true row counts that map to live dictionary tasks (cost.CheckObserved)`},
	{flag: "shard", noun: "workloads", suite: planUnits, setup: shardCheck,
		help: `mode: sharded execution (DESIGN.md §13) at Shards 1,2,4,8 x -workers, pruning on:
serial rows in order, one canonical profile across the grid, and per-shard
journals that tile the tables without zone collisions (verify.CheckShards)`},
	{flag: "epoch", noun: "workloads", suite: sqlUnits, setup: epochCheck,
		help: `mode: epoch-versioned storage (DESIGN.md §15): a scripted append between each
statement's cold and warm run must cause zero recompiles, evictions or version
bumps, and the append journal must replay (verify.CheckEpochs)`},
	{flag: "views", noun: "probes", setup: viewsCheck,
		suite: func([]int) []unit { return viewProbes },
		help: `mode: materialized views (DESIGN.md §16): probes must rewrite onto views and match
a view-free service byte for byte across a scripted append, on one artifact with
zero fallbacks; no-match statements pass through; the refresh ledger must
replay against the base tables (verify.CheckViews)`},
}

// name is the invocation a check answers to, as the summary line spells it.
func (c *check) name() string {
	if c.flag == "" {
		return "tprofvet check"
	}
	return "tprofvet check -" + c.flag
}

// runCheck is the driver of `tprofvet check`: it parses and validates the
// flags, picks the table row, and only then generates data and runs it.
func runCheck(table []check, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	fs.SetOutput(stderr)
	sf := fs.Float64("sf", 0.05, "data scale factor for the corpus runs")
	seed := fs.Uint64("seed", 42, "data generator seed")
	workersCSV := fs.String("workers", "1,4", "comma-separated worker counts to verify")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON (the default check and -mutants)")
	only := fs.String("q", "", "restrict to one named unit of the mode's suite")
	set := map[string]*bool{}
	for _, c := range table {
		if c.flag != "" {
			set[c.flag] = fs.Bool(c.flag, false, c.help)
		}
		for _, m := range c.mods {
			set[m.name] = fs.Bool(m.name, false, m.help)
		}
	}
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: tprofvet check [flags]\n\n%s\n\nflags:\n", table[0].help)
		fs.PrintDefaults()
	}
	fs.Parse(args)
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "tprofvet: "+format+"\n", a...)
		return 2
	}

	mode := &table[0]
	var picked []string
	for i := range table {
		if f := table[i].flag; f != "" && *set[f] {
			mode = &table[i]
			picked = append(picked, "-"+f)
		}
	}
	if len(picked) > 1 {
		return usage("%s are separate modes; run one per invocation", strings.Join(picked, " and "))
	}
	mod := map[string]bool{}
	for i := range table {
		for _, m := range table[i].mods {
			mod[m.name] = *set[m.name]
			if mod[m.name] && mode != &table[i] {
				return usage("-%s does not apply to %s", m.name, mode.name())
			}
		}
	}
	if *jsonOut && !mode.json {
		return usage("-json supports the default check and -mutants modes only")
	}
	var workers []int
	for _, s := range strings.Split(*workersCSV, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || w < 0 {
			return usage("bad -workers value %q", s)
		}
		workers = append(workers, w)
	}
	var units []unit
	for _, u := range mode.suite(workers) {
		if *only == "" || u.name == *only {
			units = append(units, u)
		}
	}
	if len(units) == 0 {
		return usage("-q %q names no unit of %s", *only, mode.name())
	}

	e := &env{workers: workers, mod: mod, text: stdout}
	if *jsonOut {
		e.text = io.Discard
	}
	e.cat = datagen.Generate(datagen.Config{ScaleFactor: *sf, Seed: *seed})
	r, err := mode.setup(e)
	if err != nil {
		fmt.Fprintf(stderr, "tprofvet: %v\n", err)
		return 1
	}

	failures := 0
	fail := func(unit string, err error) {
		failures++
		fmt.Fprintf(e.text, "FAIL  %-14s %v\n", unit, err)
	}
	for i, u := range units {
		detail, err := r.each(i, u)
		if err != nil {
			fail(u.name, err)
		} else if detail != "" {
			fmt.Fprintf(e.text, "ok    %-14s %s\n", u.name, detail)
		}
	}
	summary := fmt.Sprintf("%d %s verified, 0 diagnostics", len(units), mode.noun)
	if r.finish != nil {
		var errs []error
		summary, errs = r.finish(len(units))
		for _, err := range errs {
			if err != nil {
				fail("(suite)", err)
			}
		}
	}
	if failures > 0 {
		summary = fmt.Sprintf("%d of %d %s FAILED", failures, len(units), mode.noun)
	}
	fmt.Fprintf(e.text, "%s: %s\n", mode.name(), summary)
	if *jsonOut {
		emitJSON(stdout, stderr, r.report(failures))
	}
	if failures > 0 {
		return 1
	}
	return 0
}

type diagJSON struct {
	Check string `json:"check"`
	Level string `json:"level"`
	Locus string `json:"locus"`
	Msg   string `json:"msg"`
}

func jsonDiag(d core.Diag) diagJSON {
	return diagJSON{Check: d.Check, Level: d.Level.String(), Locus: d.Locus, Msg: d.Msg}
}

func emitJSON(stdout, stderr io.Writer, v any) {
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintf(stderr, "tprofvet: encoding JSON: %v\n", err)
	}
}

func runLint(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lint", flag.ExitOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON")
	fs.Parse(args)

	root := "."
	if fs.NArg() > 0 && fs.Arg(0) != "./..." {
		root = fs.Arg(0)
	} else if wd, err := os.Getwd(); err == nil {
		// Lint from the module root (the nearest go.mod at or above the
		// working directory) so loci are repo-relative wherever the tool runs.
		for dir := wd; ; dir = filepath.Dir(dir) {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				root = dir
				break
			}
			if dir == filepath.Dir(dir) {
				break
			}
		}
	}
	ds, err := verify.Lint(root)
	if err != nil {
		fmt.Fprintf(stderr, "tprofvet lint: %v\n", err)
		return 1
	}
	nerr := len(ds)
	if *jsonOut {
		diags := make([]diagJSON, 0, len(ds))
		for _, d := range ds {
			diags = append(diags, jsonDiag(d))
		}
		emitJSON(stdout, stderr, struct {
			Mode  string     `json:"mode"`
			Clean bool       `json:"clean"`
			Diags []diagJSON `json:"diags"`
		}{"lint", nerr == 0, diags})
	} else {
		for _, d := range ds {
			fmt.Fprintln(stdout, d.String())
		}
		if nerr == 0 {
			fmt.Fprintln(stdout, "tprofvet lint: clean")
		} else {
			fmt.Fprintf(stdout, "tprofvet lint: %d diagnostic(s)\n", nerr)
		}
	}
	if nerr > 0 {
		return 1
	}
	return 0
}
