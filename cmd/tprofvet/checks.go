package main

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/mview"
	"repro/internal/pipeline"
	"repro/internal/plan"
	"repro/internal/pmu"
	"repro/internal/queries"
	"repro/internal/ref"
	"repro/internal/verify"
	"repro/internal/verify/absint"
	"repro/internal/verify/mutate"
	"repro/internal/vm"
)

// The suites: hand-built plans, SQL statements, and (below, with the check
// that registers their views) view probes.

func planUnits([]int) []unit {
	var us []unit
	for _, w := range queries.Suite() {
		us = append(us, unit{name: w.Name, query: w.Query})
	}
	return us
}

func sqlUnits([]int) []unit {
	var us []unit
	for _, w := range queries.SQLSuite() {
		us = append(us, unit{name: w.Name, sql: w.SQL})
	}
	return us
}

// artifactUnits is the plan suite once per worker count: an artifact set is
// one (plan, workers) compile.
func artifactUnits(workers []int) []unit {
	var us []unit
	for _, u := range planUnits(nil) {
		for _, nw := range workers {
			u.workers = nw
			us = append(us, u)
		}
	}
	return us
}

// verifying is the option set every check but -cost compiles under: the
// cross-level suite runs at each lowering step.
func verifying() engine.Options {
	opts := engine.DefaultOptions()
	opts.VerifyArtifacts = true
	return opts
}

// compileRun compiles q under opts and runs it, sampling instructions
// retired every period (0: unprofiled).
func compileRun(cat *catalog.Catalog, opts engine.Options, q *plan.Query, period int64) (*engine.Compiled, *engine.Result, error) {
	e := engine.New(cat, opts)
	cq, err := e.CompileQuery(q)
	if err != nil {
		return nil, nil, fmt.Errorf("compile: %w", err)
	}
	var cfg *pmu.Config
	if period > 0 {
		cfg = &pmu.Config{Event: vm.EvInstRetired, Period: period}
	}
	res, err := e.Run(cq, cfg)
	return cq, res, err
}

// checkReport is the -json document of the default check.
type checkReport struct {
	Mode     string        `json:"mode"`
	Checked  int           `json:"checked"`
	Failures int           `json:"failures"`
	Results  []checkResult `json:"results"`
}

type checkResult struct {
	Workload     string        `json:"workload"`
	Workers      int           `json:"workers"`
	OK           bool          `json:"ok"`
	Error        string        `json:"error,omitempty"`
	NativeInstrs int           `json:"nativeInstrs,omitempty"`
	TVSteps      int           `json:"tvSteps,omitempty"`
	Absint       *absintResult `json:"absint,omitempty"`
}

type absintResult struct {
	Accesses int `json:"accesses"`
	Proved   int `json:"proved"`
	Unproven int `json:"unproven"`
}

func artifactsCheck(env *env) (*run, error) {
	var results []checkResult
	sets := 0 // artifact sets verified: one per compile
	each := func(_ int, u unit) (detail string, err error) {
		nw := u.workers
		r := checkResult{Workload: u.name, Workers: nw}
		defer func() {
			if r.OK = err == nil; err != nil {
				r.Error = err.Error()
				err = fmt.Errorf("workers=%d: %w", nw, err)
			}
			results = append(results, r)
		}()

		opts := verifying()
		opts.Workers = nw
		e := engine.New(env.cat, opts)
		sets++
		cq, err := e.CompileQuery(u.query)
		if err != nil {
			return "", err
		}
		// A parallel run's program is the serial one with the merge
		// kernels, verified phase by phase as Parallel compiles them.
		code := cq.Code
		if nw >= 1 {
			par, err := cq.Parallel()
			if err != nil {
				return "", err
			}
			code = par.Code
		}
		r.NativeInstrs, r.TVSteps = len(code.Program.Code), cq.TVSteps
		extra := ""
		if env.mod["tv"] {
			if cq.TVSteps == 0 {
				return "", errors.New("translation validator checked no optimizer pass applications")
			}
			extra += fmt.Sprintf(", %d tv steps", cq.TVSteps)
		}
		if env.mod["absint"] {
			// A definite violation already failed the compile: the gate runs
			// the abstract interpreter after emit.
			rep := absint.Analyze(code, cq.Mem, opts.RegisterTagging)
			r.Absint = &absintResult{Accesses: rep.Accesses, Proved: rep.Proved, Unproven: rep.Unproven}
			extra += fmt.Sprintf(", absint %d/%d proved", rep.Proved, rep.Accesses)
		}
		return fmt.Sprintf("workers=%d (%d native instrs%s)", nw, r.NativeInstrs, extra), nil
	}
	finish := func(int) (string, []error) {
		return fmt.Sprintf("%d artifact sets verified, 0 diagnostics", sets), nil
	}
	report := func(failures int) any {
		return checkReport{Mode: "check", Checked: sets, Failures: failures, Results: results}
	}
	return &run{each: each, finish: finish, report: report}, nil
}

func mutantsCheck(env *env) (*run, error) {
	// rep is the running score and, under -json, the document.
	rep := &struct {
		Mode string `json:"mode"`
		*mutate.Score
		Rate float64 `json:"rate"`
		Pass bool    `json:"pass"`
	}{Mode: "mutants", Score: mutate.NewScore()}
	each := func(_ int, u unit) (string, error) {
		vs, err := mutate.Judge(env.cat, u.query)
		rep.Add(u.name, vs)
		return "", err
	}
	finish := func(int) (string, []error) {
		vs, ingestErr := mutate.JudgeIngest()
		rep.Add("ingest", vs)
		for _, line := range rep.Lines() {
			fmt.Fprintln(env.text, line)
		}
		for _, m := range rep.Missed {
			fmt.Fprintf(env.text, "missed  %s\n", m)
		}
		if rep.Total == 0 {
			return "no mutants enumerated", []error{errors.New("gate: no mutants enumerated")}
		}
		rep.Rate = float64(rep.Caught) / float64(rep.Total)
		idle := rep.Idle()
		rep.Pass = rep.Caught == rep.Total && len(idle) == 0
		var rateErr, idleErr error
		if rep.Caught < rep.Total {
			rateErr = fmt.Errorf("gate: %d of %d mutants got through", rep.Total-rep.Caught, rep.Total)
		}
		if len(idle) > 0 {
			idleErr = fmt.Errorf("gate: rules that caught no mutant alone: %s", strings.Join(idle, ", "))
		}
		return fmt.Sprintf("%d/%d caught = %.1f%%, every rule the sole catcher of some mutant", rep.Caught, rep.Total, 100*rep.Rate),
			[]error{ingestErr, rateErr, idleErr}
	}
	return &run{each: each, finish: finish, report: func(int) any { return rep }}, nil
}

func cacheCheck(env *env) (*run, error) {
	svc := engine.NewService(env.cat, verifying(), 0)
	se := svc.NewSession()
	each := func(_ int, u unit) (string, error) {
		se.SetWorkers(0)
		cold, res, err := se.Execute(u.sql, nil)
		if err != nil {
			return "", fmt.Errorf("cold: %w", err)
		}
		if cold.Fallback {
			return "", errors.New("fell back to an uncached direct compile")
		}
		var params []int64
		if cold.State != nil {
			params = cold.State.Params
		}
		want, err := ref.ExecuteWith(cold.Compiled.Plan, params)
		if err != nil {
			return "", fmt.Errorf("reference executor: %w", err)
		}
		ordered := len(cold.Compiled.Plan.OrderBy) > 0
		if !ref.SameRows(res.Rows, want, ordered) {
			return "", errors.New("cold rows differ from reference")
		}
		for _, nw := range env.workers {
			se.SetWorkers(nw)
			hot, hres, err := se.Execute(u.sql, nil)
			switch {
			case err != nil:
				return "", fmt.Errorf("workers=%d: %w", nw, err)
			case !hot.CacheHit:
				return "", fmt.Errorf("workers=%d: expected a cache hit", nw)
			case !ref.SameRows(hres.Rows, want, ordered):
				return "", fmt.Errorf("workers=%d: cached rows differ from reference", nw)
			}
		}
		return fmt.Sprintf("%d params, %d rows, hit at workers=%v", len(params), len(want), env.workers), nil
	}
	finish := func(n int) (string, []error) {
		cs := svc.CacheStats()
		return fmt.Sprintf("%d workloads verified (%d hits, %d misses, %d resident)",
			n, cs.Hits, cs.Misses, svc.CacheLen()), nil
	}
	return &run{each: each, finish: finish}, nil
}

// mergePeriod is the instructions-retired period -merge samples at.
const mergePeriod = 97

// sampledMergeTasks counts the merge-kernel tasks PMU samples attributed
// to; each must resolve to an operator through the Tagging Dictionary.
// Every kernel call re-arms sampling, so a sample is due only where one
// call retired at least the longest interval the PMU draws; then there
// must be some (due).
func sampledMergeTasks(p *core.Profile, due bool) (int, error) {
	n := 0
	for id, wt := range p.TaskWeight {
		comp, found := p.Registry.Lookup(id)
		if !found || !pipeline.MergeRole(comp.Kind) || wt <= 0 {
			continue
		}
		if p.Dict.OperatorOf(id) == core.NoComponent {
			return 0, fmt.Errorf("merge task %q unresolvable to an operator", comp.Name)
		}
		n++
	}
	if n == 0 && due {
		return 0, errors.New("a merge-kernel call retired a whole sampling interval, but no PMU sample was attributed to merge-kernel tasks")
	}
	return n, nil
}

func mergeCheck(env *env) (*run, error) {
	each := func(_ int, u unit) (string, error) {
		opts := verifying()
		opts.MorselRows = 256 // several morsels per pipeline at check scale
		cq, serial, err := compileRun(env.cat, opts, u.query, 0)
		if err != nil {
			return "", fmt.Errorf("serial oracle: %w", err)
		}
		partitioned := slices.ContainsFunc(cq.Pipe.Pipelines,
			func(p pipeline.PipelineInfo) bool { return p.Merge != nil })
		mergeTasks, due := 0, false
		at := func(nw int) error {
			opts.Workers = nw
			_, res, err := compileRun(env.cat, opts, u.query, mergePeriod)
			if err != nil {
				return err
			}
			// Compared in order: the partitioned merge reconstructs the
			// serial heap byte for byte, so even unordered results may not move.
			if !ref.SameRows(res.Rows, serial.Rows, true) {
				return errors.New("rows differ from the serial oracle")
			}
			if partitioned {
				longest := pmu.Config{Event: vm.EvInstRetired, Period: mergePeriod}.LongestInterval()
				due = res.MergePeakInstrs >= uint64(longest)
				mergeTasks, err = sampledMergeTasks(res.Profile, due)
			}
			return err
		}
		for _, nw := range env.workers {
			if nw < 1 {
				continue
			}
			if err := at(nw); err != nil {
				return "", fmt.Errorf("workers=%d: %w", nw, err)
			}
		}
		kind := "host-merged"
		if partitioned {
			kind = fmt.Sprintf("partitioned, %d merge tasks sampled", mergeTasks)
			if !due {
				kind += ", no call long enough to be due one"
			}
		}
		return fmt.Sprintf("%d rows, workers=%v (%s)", len(serial.Rows), env.workers, kind), nil
	}
	return &run{each: each}, nil
}

func shardCheck(env *env) (*run, error) {
	shardCounts := []int{1, 2, 4, 8}
	each := func(_ int, u unit) (string, error) {
		opts := verifying()
		opts.MorselRows = 256 // several morsels (and zones) per pipeline at check scale
		_, serial, err := compileRun(env.cat, opts, u.query, 0)
		if err != nil {
			return "", fmt.Errorf("serial oracle: %w", err)
		}
		opts.ShardPruning = true
		var baseCanon []byte
		var zones, pruned int // of the grid's last run
		at := func(nw, ns int) error {
			opts.Workers, opts.Shards = nw, ns
			cq, res, err := compileRun(env.cat, opts, u.query, 487)
			if err != nil {
				return err
			}
			if res.Shards != ns {
				return fmt.Errorf("ran with %d shards", res.Shards)
			}
			// Shard-count invariance: same rows in the same order (the
			// canonical morsel list rebuilds the serial heap), same
			// canonical profile bytes across the whole grid.
			if !ref.SameRows(res.Rows, serial.Rows, true) {
				return errors.New("rows differ from the serial oracle")
			}
			canon := res.Profile.Canonical()
			if baseCanon == nil {
				baseCanon = canon
			} else if string(canon) != string(baseCanon) {
				return errors.New("canonical profile differs across the grid")
			}
			// Lineage replay: journals vs table row counts.
			zones, pruned = 0, len(res.Profile.Skips)
			for _, st := range res.ShardStates {
				zones += len(st.Zones)
			}
			return diagErr("journal", verify.CheckShards(verify.ScanRows(cq.Plan), res.ShardStates))
		}
		for _, nw := range env.workers {
			for _, ns := range shardCounts {
				if err := at(nw, ns); err != nil {
					return "", fmt.Errorf("workers=%d shards=%d: %w", nw, ns, err)
				}
			}
		}
		return fmt.Sprintf("%d rows, workers=%v shards=%v (%d/%d zones pruned)",
			len(serial.Rows), env.workers, shardCounts, pruned, zones), nil
	}
	return &run{each: each}, nil
}

// scriptedAppend is the ingest step of the epoch and views checks: a
// deterministic 64-row batch, seeded by the step, appended through the
// service between a statement's cold and warm run.
func scriptedAppend(svc *engine.Service, cat *catalog.Catalog, table string, step int) (catalog.AppendResult, error) {
	tb, err := cat.Table(table)
	if err != nil {
		return catalog.AppendResult{}, fmt.Errorf("ingest table %s: %w", table, err)
	}
	r, err := svc.AppendCols(table, datagen.AppendBatch(tb, 64, uint64(step+1)))
	if err != nil {
		return r, fmt.Errorf("append to %s: %w", table, err)
	}
	return r, nil
}

func epochCheck(env *env) (*run, error) {
	cat := env.cat
	ingest := []string{"sales", "lineitem", "orders"}
	svc := engine.NewService(cat, verifying(), 0)
	se := svc.NewSession()
	base := cat.BaseRows()
	version0 := cat.Version()
	snaps := []verify.EpochSnapshot{verify.SnapshotEpochState(svc.Snapshot(), cat.Names())}
	appended := int64(0)

	each := func(i int, u unit) (string, error) {
		cold, _, err := se.Execute(u.sql, nil)
		if err != nil {
			return "", fmt.Errorf("cold: %w", err)
		}
		if cold.Fallback {
			return "", errors.New("fell back to an uncached direct compile")
		}
		table := ingest[i%len(ingest)]
		r, err := scriptedAppend(svc, cat, table, i)
		if err != nil {
			return "", err
		}
		appended += r.Hi - r.Lo
		snaps = append(snaps, verify.SnapshotEpochState(svc.Snapshot(), cat.Names()))

		// The warm re-prepare must hit the very artifact the cold compile
		// cached — in-capacity appends are invisible to the cache key.
		warm, res, err := se.Execute(u.sql, nil)
		if err != nil {
			return "", fmt.Errorf("warm: %w", err)
		}
		if !warm.CacheHit || warm.Compiled != cold.Compiled {
			return "", fmt.Errorf("re-prepare after append recompiled (hit=%v)", warm.CacheHit)
		}
		if res.Epoch != r.Epoch {
			return "", fmt.Errorf("warm run stamped epoch %d, catalog at %d", res.Epoch, r.Epoch)
		}
		return fmt.Sprintf("epoch %d (+%d rows to %s), warm hit on cold artifact", r.Epoch, r.Hi-r.Lo, table), nil
	}
	finish := func(n int) (string, []error) {
		cs := svc.CacheStats()
		var versionErr, cacheErr error
		if cat.Version() != version0 {
			versionErr = errors.New("catalog: scripted ingest bumped the version (capacity growth at check scale)")
		}
		if cs.Evictions != 0 || cs.Invalidations != 0 {
			cacheErr = fmt.Errorf("qcache: ingest evicted or invalidated artifacts: %+v", cs)
		}
		return fmt.Sprintf("%d workloads verified over %d epochs (+%d rows, %d hits, %d misses, 0 recompiles)",
				n, cat.Epoch(), appended, cs.Hits, cs.Misses),
			[]error{versionErr, cacheErr, diagErr("epoch-replay", verify.CheckEpochs(base, cat.EpochJournal(), snaps))}
	}
	return &run{each: each, finish: finish}, nil
}

// viewProbes is the -views suite: aggregate statements that must each
// rewrite onto one of the two views viewsCheck registers.
var viewProbes = []unit{
	{name: "sales-all", table: "sales",
		sql: "select id, sum(price) as rev, count(*) as n from sales group by id order by id"},
	{name: "sales-range", table: "sales",
		sql: "select id, sum(price) as rev from sales where id >= 3 and id <= 40 group by id order by id"},
	{name: "sales-between", table: "sales",
		sql: "select id, sum(price) as rev from sales where id between 3 and 40 group by id order by id"},
	{name: "sales-scalar", table: "sales",
		sql: "select sum(price) as rev, count(*) as n from sales"},
	{name: "lineitem-flag", table: "lineitem",
		sql: "select l_returnflag, sum(l_extendedprice) as rev, min(l_quantity) as qmin from lineitem group by l_returnflag order by l_returnflag"},
}

func viewsCheck(env *env) (*run, error) {
	cat := env.cat
	svc := engine.NewService(cat, verifying(), 0)
	oracle := engine.NewService(cat, verifying(), 0) // view-free: always executes base text
	for _, v := range mutate.Views {
		if _, err := svc.CreateView(v[0], v[1], mview.RefreshIncremental); err != nil {
			return nil, fmt.Errorf("create view %s: %w", v[0], err)
		}
	}
	se, ose := svc.NewSession(), oracle.NewSession()
	// sameAsBase runs the statement on the view-free service and compares
	// headers and rows, in order, with the rewritten execution's.
	sameAsBase := func(sql string, got *engine.Result) error {
		_, want, err := ose.Execute(sql, nil)
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		same := len(got.Cols) == len(want.Cols) && ref.SameRows(got.Rows, want.Rows, true)
		for i := 0; same && i < len(got.Cols); i++ {
			same = got.Cols[i].Name == want.Cols[i].Name
		}
		if !same {
			return fmt.Errorf("rewrite rows differ from base execution (%d vs %d rows)", len(got.Rows), len(want.Rows))
		}
		return nil
	}

	appended := int64(0)
	each := func(i int, pr unit) (string, error) {
		cold, res, err := se.Execute(pr.sql, nil)
		if err != nil {
			return "", fmt.Errorf("cold: %w", err)
		}
		if cold.Rewrite == nil {
			return "", errors.New("did not rewrite onto a view")
		}
		if err := sameAsBase(pr.sql, res); err != nil {
			return "", fmt.Errorf("cold: %w", err)
		}
		// Scripted ingest to the probe's base table, then the warm pass:
		// the incremental view catches up at prepare time, the artifact
		// stays cached (refreshes bump neither the catalog version nor the
		// view generation), and the rows stay byte-identical.
		r, err := scriptedAppend(svc, cat, pr.table, i)
		if err != nil {
			return "", err
		}
		appended += r.Hi - r.Lo
		warm, res2, err := se.Execute(pr.sql, nil)
		if err != nil {
			return "", fmt.Errorf("warm: %w", err)
		}
		if warm.Rewrite == nil || !warm.CacheHit || warm.Compiled != cold.Compiled {
			return "", fmt.Errorf("warm re-prepare after append lost the rewritten artifact (hit=%v)", warm.CacheHit)
		}
		if err := sameAsBase(pr.sql, res2); err != nil {
			return "", fmt.Errorf("post-append: %w", err)
		}
		return fmt.Sprintf("via %s, +%d rows to %s, warm hit on cold artifact", cold.Rewrite.View, r.Hi-r.Lo, pr.table), nil
	}
	finish := func(n int) (string, []error) {
		// A statement over a table with no registered view must pass
		// through untouched — the rewriter's zero-tax contract.
		p, _, noMatchErr := se.Execute("select count(*) as n from orders where o_totalprice >= 1000", nil)
		if noMatchErr == nil && p.Rewrite != nil {
			noMatchErr = fmt.Errorf("no-match: statement with no matching view was rewritten onto %s", p.Rewrite.View)
		}
		var guardErr error
		if fb := svc.Views().Fallbacks(); fb != 0 {
			guardErr = fmt.Errorf("guard: run-time consistency guard fell back %d time(s)", fb)
		}
		return fmt.Sprintf("%d probes verified over %d views (+%d rows ingested, 0 fallbacks, ledger replay clean)",
				n, svc.Views().Len(), appended),
			[]error{noMatchErr, guardErr, diagErr("view-replay", verify.CheckViews(cat, svc.Views()))}
	}
	return &run{each: each, finish: finish}, nil
}

func costCheck(env *env) (*run, error) {
	opts := engine.DefaultOptions()
	opts.TupleCounters = true
	e := engine.New(env.cat, opts)
	each := func(_ int, u unit) (string, error) {
		cq, err := e.CompileSQL(u.sql)
		if err != nil {
			return "", fmt.Errorf("compile: %w", err)
		}
		m := cost.Annotate(cq.Plan)
		res, err := e.Run(cq, nil)
		if err != nil {
			return "", fmt.Errorf("run: %w", err)
		}
		ds := append(cost.CheckModel(m), cost.CheckObserved(cq.Plan, cq.Pipe, res.TupleCounts)...)
		if err := diagErr("cost", ds); err != nil {
			return "", err
		}
		return fmt.Sprintf("%d nodes annotated, %d true counts, est %d cycles",
			len(m.PerNode), len(res.PlanRows), int64(m.TotalCycles)), nil
	}
	return &run{each: each}, nil
}
