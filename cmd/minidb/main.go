// Command minidb runs SQL against the generated TPC-H-like dataset on the
// compiling engine — compile-to-native execution on the simulated CPU,
// fronted by the fingerprinted compiled-query cache. The catalog and the
// query service are constructed exactly once; every statement goes through
// a Session, so structurally identical statements (same shape, different
// literals) share one compiled artifact.
//
//	minidb "select count(*) from lineitem where l_quantity < 24"
//	minidb -explain "select l_orderkey, sum(l_quantity) from lineitem group by l_orderkey limit 5"
//	printf 'q1; q2; q3;' | minidb -serve -sessions 4
//
// Use -explain to see the optimized plan, -verify to cross-check results
// against the interpreted reference executor, -serve to drive a batch of
// statements from stdin across -sessions concurrent sessions and report
// cache traffic plus the compile-vs-execute time split. With -shards N
// scans run through the cross-shard coordinator as N zone-aligned shards
// (at most one per zone); -shardprune=false disables zone pruning, and
// -analyze then also prints the per-shard pruning summary — which zones
// were proven unnecessary and why.
//
// Storage is epoch-versioned: appends land in preallocated tail capacity
// and advance the storage epoch without invalidating compiled artifacts.
// A statement of the form
//
//	\append table [rows] [seed]
//
// (stdin or argument, alongside ordinary SQL) appends a deterministic
// batch of rows shaped like the resident data (datagen.AppendBatch) and
// reports the epoch it created. The -ingest flag runs a background writer
// for the whole batch — `-ingest rate=500,table=sales,batch=64` appends
// 64-row batches at ~500 rows/sec while the sessions execute — so cache
// hit rates and result epochs can be observed under live ingest.
//
// Materialized views (DESIGN.md §6) are managed with statements of the
// form
//
//	create [lazy] view name as select ...
//	refresh view name
//	drop view name
//
// alongside the `\views` meta-command, which lists every registered view
// with its refresh policy, rewrite hit count, coverage, and staleness.
// Once a view exists, statements it subsumes are rewritten onto it at
// prepare time; with -analyze the rewrite is announced above the plan.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/mview"
	"repro/internal/plan"
	"repro/internal/ref"
	"repro/internal/viz"
)

type config struct {
	explain, verify, analyze bool
	maxRows                  int
}

func main() {
	sf := flag.Float64("sf", 0.5, "data scale factor")
	seed := flag.Uint64("seed", 42, "data generator seed")
	explain := flag.Bool("explain", false, "print the optimized plan")
	verify := flag.Bool("verify", false, "cross-check against the reference executor")
	analyze := flag.Bool("analyze", false, "show EXPLAIN ANALYZE tuple counts per operator")
	maxRows := flag.Int("rows", 50, "maximum rows to print")
	workers := flag.Int("workers", 0, "morsel-driven parallel execution on N simulated cores (0 = single-CPU)")
	morsel := flag.Int("morsel", 0, "morsel size in tuples (0 = default)")
	partitions := flag.Int("partitions", engine.DefaultOptions().Partitions,
		"radix partitions for the parallel sink merge (rounded down to a power of two; below 1 = one partition)")
	shards := flag.Int("shards", 0, "execute scans as N zone-aligned shards through the cross-shard coordinator (0 = unsharded)")
	shardprune := flag.Bool("shardprune", true, "prune shard zones from bounds and shipped semi-join filters (with -shards)")
	serve := flag.Bool("serve", false, "batch mode: execute stdin statements across -sessions concurrent sessions")
	sessions := flag.Int("sessions", 4, "concurrent sessions in -serve mode")
	cacheN := flag.Int("cache", 0, "compiled-query cache capacity in entries (0 = default)")
	ingest := flag.String("ingest", "", "background writer: rate=N[,table=T][,batch=B] appends B-row batches at ~N rows/sec while statements run")
	flag.Parse()

	// One catalog, one service: sessions are cheap handles that share the
	// compiled-query cache and the generation table.
	cat := datagen.Generate(datagen.Config{ScaleFactor: *sf, Seed: *seed})
	opts := engine.DefaultOptions()
	opts.TupleCounters = *analyze
	opts.Workers = *workers
	opts.MorselRows = *morsel
	opts.Partitions = *partitions
	opts.Shards = *shards
	opts.ShardPruning = *shardprune
	svc := engine.NewService(cat, opts, *cacheN)

	stmts := flag.Args()
	if len(stmts) == 0 || *serve {
		stmts = append(stmts, readStmts(os.Stdin)...)
	}
	if len(stmts) == 0 {
		fmt.Fprintln(os.Stderr, "usage: minidb [flags] \"select ...\"  |  minidb -serve < statements.sql")
		os.Exit(2)
	}

	cfg := config{explain: *explain, verify: *verify, analyze: *analyze, maxRows: *maxRows}
	var stopIngest func() (int64, uint64)
	if *ingest != "" {
		ic, err := parseIngest(*ingest)
		if err != nil {
			fmt.Fprintf(os.Stderr, "minidb: -ingest: %v\n", err)
			os.Exit(2)
		}
		stopIngest = startIngest(svc, ic)
	}
	report := func(code int) {
		if stopIngest != nil {
			rows, epoch := stopIngest()
			fmt.Printf("ingest: %d rows appended in the background; storage at epoch %d\n", rows, epoch)
		}
		os.Exit(code)
	}
	if *serve {
		report(serveBatch(svc, stmts, *sessions, cfg))
	}

	se := svc.NewSession()
	for _, sql := range stmts {
		if line, ok, err := appendCmd(svc, sql); ok {
			if err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
				os.Exit(1)
			}
			fmt.Println(line)
			continue
		}
		if line, ok, err := viewCmd(svc, sql); ok {
			if err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
				os.Exit(1)
			}
			fmt.Println(line)
			continue
		}
		if err := runOne(se, sql, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
	}
	report(0)
}

// appendCmd recognizes and executes the `\append table [rows] [seed]`
// command. The batch is generated by datagen.AppendBatch, so repeated
// commands with the same seed replay the same ingest stream.
func appendCmd(svc *engine.Service, stmt string) (string, bool, error) {
	fields := strings.Fields(stmt)
	if len(fields) == 0 || fields[0] != `\append` {
		return "", false, nil
	}
	if len(fields) < 2 || len(fields) > 4 {
		return "", true, fmt.Errorf(`usage: \append table [rows] [seed]`)
	}
	table := fields[1]
	n, seed := 64, uint64(1)
	if len(fields) >= 3 {
		v, err := strconv.Atoi(fields[2])
		if err != nil || v <= 0 {
			return "", true, fmt.Errorf(`\append: bad row count %q`, fields[2])
		}
		n = v
	}
	if len(fields) == 4 {
		v, err := strconv.ParseUint(fields[3], 10, 64)
		if err != nil {
			return "", true, fmt.Errorf(`\append: bad seed %q`, fields[3])
		}
		seed = v
	}
	tb, err := svc.Catalog().Table(table)
	if err != nil {
		return "", true, err
	}
	r, err := svc.AppendCols(table, datagen.AppendBatch(tb, n, seed))
	if err != nil {
		return "", true, err
	}
	grew := ""
	if r.Grew {
		grew = "; capacity or a column width grew, compiled artifacts invalidated"
	}
	return fmt.Sprintf("epoch %d: appended rows [%d,%d) to %s%s", r.Epoch, r.Lo, r.Hi, table, grew), true, nil
}

// viewCmd recognizes the view-management statements — `\views`,
// `create [lazy] view name as select ...`, `refresh view name`, and
// `drop view name`. Anything else passes through to the SQL path.
func viewCmd(svc *engine.Service, stmt string) (string, bool, error) {
	fields := strings.Fields(stmt)
	if len(fields) == 0 {
		return "", false, nil
	}
	if fields[0] == `\views` {
		return viewList(svc), true, nil
	}
	kw := func(i int) string {
		if i < len(fields) {
			return strings.ToLower(fields[i])
		}
		return ""
	}
	switch {
	case kw(0) == "create" && (kw(1) == "view" || (kw(1) == "lazy" && kw(2) == "view")):
		policy, at := mview.RefreshIncremental, 2
		if kw(1) == "lazy" {
			policy, at = mview.RefreshLazy, 3
		}
		name := ""
		if at < len(fields) {
			name = fields[at]
		}
		if name == "" || kw(at+1) != "as" || at+2 >= len(fields) {
			return "", true, fmt.Errorf("usage: create [lazy] view name as select ...")
		}
		def := strings.Join(fields[at+2:], " ")
		v, err := svc.CreateView(name, def, policy)
		if err != nil {
			return "", true, err
		}
		st := v.States()
		return fmt.Sprintf("created %s view %s over %s: %d partial rows at build epoch %d",
			policy, name, v.Def().Table, st[len(st)-1].ViewRows, v.BuildEpoch), true, nil
	case kw(0) == "drop" && kw(1) == "view":
		if len(fields) != 3 {
			return "", true, fmt.Errorf("usage: drop view name")
		}
		if err := svc.DropView(fields[2]); err != nil {
			return "", true, err
		}
		return fmt.Sprintf("dropped view %s", fields[2]), true, nil
	case kw(0) == "refresh" && kw(1) == "view":
		if len(fields) != 3 {
			return "", true, fmt.Errorf("usage: refresh view name")
		}
		if err := svc.RefreshView(fields[2]); err != nil {
			return "", true, err
		}
		for _, in := range svc.Views().List() {
			if in.Name == fields[2] {
				return fmt.Sprintf("refreshed view %s: %d base rows covered, %d partial rows at epoch %d",
					in.Name, in.Covered, in.ViewRows, in.LastEpoch), true, nil
			}
		}
		return fmt.Sprintf("refreshed view %s", fields[2]), true, nil
	}
	return "", false, nil
}

// viewList renders the `\views` meta-command: one line per registered
// view with policy, rewrite traffic, coverage, and staleness.
func viewList(svc *engine.Service) string {
	infos := svc.Views().List()
	if len(infos) == 0 {
		return "no materialized views"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-18s %-10s %-11s %6s %9s %9s %9s %9s  %s\n",
		"view", "base", "policy", "hits", "rows", "covered", "base", "bytes", "state")
	for _, in := range infos {
		state := "fresh"
		if in.Stale() {
			state = fmt.Sprintf("stale (+%d rows)", in.BaseRows-in.Covered)
		}
		fmt.Fprintf(&sb, "%-18s %-10s %-11s %6d %9d %9d %9d %9d  %s\n",
			in.Name, in.Base, in.Policy, in.Hits, in.ViewRows, in.Covered, in.BaseRows, in.Bytes, state)
	}
	return strings.TrimRight(sb.String(), "\n")
}

// ingestCfg configures the background writer.
type ingestCfg struct {
	table string
	rate  int // rows per second (host time)
	batch int // rows per append
}

// parseIngest parses "rate=N[,table=T][,batch=B]".
func parseIngest(s string) (ingestCfg, error) {
	ic := ingestCfg{table: "sales", batch: 64}
	for _, kv := range strings.Split(s, ",") {
		k, v, found := strings.Cut(strings.TrimSpace(kv), "=")
		if !found {
			return ic, fmt.Errorf("expected k=v, got %q", kv)
		}
		switch k {
		case "rate":
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				return ic, fmt.Errorf("bad rate %q", v)
			}
			ic.rate = n
		case "table":
			ic.table = v
		case "batch":
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				return ic, fmt.Errorf("bad batch %q", v)
			}
			ic.batch = n
		default:
			return ic, fmt.Errorf("unknown key %q", k)
		}
	}
	if ic.rate == 0 {
		return ic, fmt.Errorf("rate=N is required")
	}
	return ic, nil
}

// startIngest launches the background writer: one ingestCfg.batch-row
// append every batch/rate seconds until the returned stop function is
// called. Appends race with executing sessions by design — snapshot
// binding makes that safe — and stop reports the appended row total and
// the final storage epoch.
func startIngest(svc *engine.Service, ic ingestCfg) func() (int64, uint64) {
	tb, err := svc.Catalog().Table(ic.table)
	if err != nil {
		fmt.Fprintf(os.Stderr, "minidb: -ingest: %v\n", err)
		os.Exit(2)
	}
	interval := time.Duration(float64(ic.batch) / float64(ic.rate) * float64(time.Second))
	if interval <= 0 {
		interval = time.Millisecond
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	var total int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for seed := uint64(1); ; seed++ {
			select {
			case <-done:
				return
			case <-tick.C:
				r, err := svc.AppendCols(ic.table, datagen.AppendBatch(tb, ic.batch, seed))
				if err != nil {
					fmt.Fprintf(os.Stderr, "minidb: -ingest: %v\n", err)
					return
				}
				total += r.Hi - r.Lo
			}
		}
	}()
	return func() (int64, uint64) {
		close(done)
		wg.Wait()
		return total, svc.Epoch()
	}
}

// readStmts splits stdin into ;-separated statements.
func readStmts(f *os.File) []string {
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	for sc.Scan() {
		buf.WriteString(sc.Text())
		buf.WriteByte('\n')
	}
	var out []string
	for _, s := range strings.Split(buf.String(), ";") {
		if strings.TrimSpace(s) != "" {
			out = append(out, s)
		}
	}
	return out
}

func runOne(se *engine.Session, sql string, cfg config) error {
	p, err := se.Prepare(sql)
	if err != nil {
		return err
	}
	if cfg.explain {
		fmt.Print(plan.Render(p.Compiled.Plan, func(n plan.Node) string {
			return fmt.Sprintf("(est. %.0f rows)", n.EstRows())
		}))
		fmt.Println()
	}
	res, err := se.Run(p, nil)
	if err != nil {
		return err
	}
	if cfg.analyze {
		if p.Rewrite != nil {
			fmt.Printf("rewritten onto materialized view %s (base %s); the plan below scans the view's partials\n",
				p.Rewrite.View, p.Rewrite.Base)
		}
		fmt.Print(viz.AnalyzedPlan(p.Compiled.Plan, p.Compiled.Pipe, res.TupleCounts, nil))
		if s := viz.ShardSummary(res); s != "" {
			fmt.Print(s)
		}
		fmt.Println()
	}
	fmt.Print(viz.ResultTable(res, cfg.maxRows))
	cached := "compiled"
	if p.CacheHit {
		cached = "cache hit"
	}
	sharded := ""
	if res.Shards > 0 {
		sharded = fmt.Sprintf(", %d shards", res.Shards)
	}
	if res.Workers > 0 {
		fmt.Printf("(%d rows; %s; %.3f ms simulated wall on %d workers%s, %d instructions total)\n",
			len(res.Rows), cached, float64(res.WallCycles)/3.5e6, res.Workers, sharded, res.Stats.Instructions)
	} else {
		fmt.Printf("(%d rows; %s; %.3f ms simulated, %d instructions)\n",
			len(res.Rows), cached, float64(res.Stats.Cycles)/3.5e6, res.Stats.Instructions)
	}

	if cfg.verify {
		if err := refCheck(p, res.Rows); err != nil {
			return err
		}
		fmt.Println("verified against reference executor ✓")
	}
	return nil
}

// refCheck cross-checks a result against the interpreted reference
// executor, threading the prepared statement's bound parameters through.
func refCheck(p *engine.Prepared, rows [][]int64) error {
	var params []int64
	if p.State != nil {
		params = p.State.Params
	}
	want, err := ref.ExecuteWith(p.Compiled.Plan, params)
	if err != nil {
		return fmt.Errorf("reference executor: %w", err)
	}
	if !ref.SameRows(rows, want, len(p.Compiled.Plan.OrderBy) > 0) {
		return fmt.Errorf("VERIFICATION FAILED: compiled result differs from reference")
	}
	return nil
}

// serveBatch distributes the statement batch round-robin across n
// concurrent sessions, waits for all of them, then reports one summary
// line per statement (in input order), per-session stats, and the
// service-wide cache counters with the compile-vs-execute time split.
func serveBatch(svc *engine.Service, stmts []string, n int, cfg config) int {
	if n < 1 {
		n = 1
	}
	if n > len(stmts) {
		n = len(stmts)
	}
	type outcome struct {
		line string
		err  error
	}
	results := make([]outcome, len(stmts))
	sess := make([]*engine.Session, n)
	for i := range sess {
		sess[i] = svc.NewSession()
	}
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			se := sess[si]
			for j := si; j < len(stmts); j += n {
				if line, isAppend, err := appendCmd(svc, stmts[j]); isAppend {
					if err != nil {
						results[j] = outcome{err: err}
					} else {
						results[j] = outcome{line: fmt.Sprintf("s%-2d %s", se.ID, line)}
					}
					continue
				}
				if line, isView, err := viewCmd(svc, stmts[j]); isView {
					if err != nil {
						results[j] = outcome{err: err}
					} else {
						results[j] = outcome{line: fmt.Sprintf("s%-2d %s", se.ID, line)}
					}
					continue
				}
				p, res, err := se.Execute(stmts[j], nil)
				if err != nil {
					results[j] = outcome{err: err}
					continue
				}
				if cfg.verify {
					if err := refCheck(p, res.Rows); err != nil {
						results[j] = outcome{err: err}
						continue
					}
				}
				tag := "miss"
				switch {
				case p.Fallback:
					tag = "fallback"
				case p.CacheHit:
					tag = "hit "
				}
				results[j] = outcome{line: fmt.Sprintf(
					"s%-2d %s  %4d rows  prep %8.3fms  fp %016x  %s",
					se.ID, tag, len(res.Rows),
					float64(p.PrepareTime.Microseconds())/1000, p.Fingerprint,
					oneLine(stmts[j]))}
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(t0)

	failed := 0
	for j, r := range results {
		if r.err != nil {
			failed++
			fmt.Printf("s?  FAIL %s: %v\n", oneLine(stmts[j]), r.err)
			continue
		}
		fmt.Println(r.line)
	}

	var agg engine.SessionStats
	for _, se := range sess {
		st := se.Stats()
		agg.Queries += st.Queries
		agg.CacheHits += st.CacheHits
		agg.Fallbacks += st.Fallbacks
		agg.Prepare += st.Prepare
		agg.Execute += st.Execute
	}
	cs := svc.CacheStats()
	fmt.Printf("\n%d statements on %d sessions in %v (host wall)\n", len(stmts), n, wall.Round(time.Millisecond))
	fmt.Printf("cache: %d hits, %d misses, %d evictions, %d invalidations; %d resident; %d fallbacks\n",
		cs.Hits, cs.Misses, cs.Evictions, cs.Invalidations, svc.CacheLen(), svc.Fallbacks())
	tot := agg.Prepare + agg.Execute
	if tot > 0 {
		fmt.Printf("time split: prepare %v (%.1f%%) vs execute %v (%.1f%%)\n",
			agg.Prepare.Round(time.Microsecond), 100*float64(agg.Prepare)/float64(tot),
			agg.Execute.Round(time.Microsecond), 100*float64(agg.Execute)/float64(tot))
	}
	if failed > 0 {
		fmt.Printf("%d statement(s) FAILED\n", failed)
		return 1
	}
	return 0
}

// oneLine compresses a statement to a single trimmed line for summaries.
func oneLine(sql string) string {
	s := strings.Join(strings.Fields(sql), " ")
	if len(s) > 60 {
		s = s[:57] + "..."
	}
	return s
}
