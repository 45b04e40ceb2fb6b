package engine

// The query service: the multi-session, cache-fronted face of the engine.
//
// A Service owns one catalog, one compiler configuration and one
// compiled-query cache; Sessions are cheap per-client handles that share
// all of it. Prepare normalizes a statement (sqlparse.Normalize), looks
// the fingerprint up in the cache — compiling its canonical query under
// single-flight on a miss — and encodes the statement's lifted literals
// against the plan's parameter manifest. The artifact that comes back is
// immutable and shared; everything a run mutates lives in the per-call
// RunState and the session's own simulated machines, so any number of
// sessions can execute one artifact concurrently.
//
// Verification (Options.VerifyArtifacts) runs inside the compile path,
// i.e. exactly once per cache insert: an artifact that was verified when
// it entered the cache cannot become invalid later, because it is never
// mutated — re-verifying per hit would only re-check the same bytes.
//
// Adaptive execution (Session.Adapt) closes the cardinality loop with one
// sampled run, plus at most one counter run: the sampled run returns the
// statement's profile, the true row counts (of that run or of the counter
// run) feed the shared history, and when they would change the served plan —
// or appends have drifted its tables — the fingerprint's generation is
// bumped, so the next Prepare from any session re-plans it. Adapt
// compiles no artifact into the cache: every entry enters through the
// cache's single-flight miss compile.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/mview"
	"repro/internal/plan"
	"repro/internal/pmu"
	"repro/internal/qcache"
	"repro/internal/sqlparse"
)

// DefaultCacheEntries is the compiled-query cache capacity when
// NewService is given no explicit size.
const DefaultCacheEntries = 128

// Service is a shared, concurrency-safe query service: catalog +
// compiler options + compiled-query cache + generation table.
type Service struct {
	cat       *catalog.Catalog
	opts      Options
	optDigest uint64
	cache     *qcache.Cache[*Compiled]
	gens      generations
	history   *cost.History
	views     *mview.Manager
	nextID    atomic.Int64
	fallbacks atomic.Uint64
}

// NewService creates a service. cacheEntries <= 0 selects
// DefaultCacheEntries.
func NewService(cat *catalog.Catalog, opts Options, cacheEntries int) *Service {
	if cacheEntries <= 0 {
		cacheEntries = DefaultCacheEntries
	}
	s := &Service{
		cat:       cat,
		opts:      opts,
		optDigest: opts.Digest(),
		cache:     qcache.New[*Compiled](cacheEntries),
		history:   cost.NewHistory(),
		views:     mview.NewManager(cat),
	}
	// The view rewriter's cost gate prices candidate plans with the same
	// cycle model the compiler's knob decisions use.
	s.views.SetCostModel(func(pl *plan.Output) float64 { return cost.Annotate(pl).TotalCycles })
	return s
}

// Views exposes the service's materialized-view manager.
func (s *Service) Views() *mview.Manager { return s.views }

// CreateView registers and builds a materialized view; every session's
// subsequent prepares consider it for subsumption rewriting. The view
// generation in the cache key changes, so previously cached artifacts
// (compiled under the old rewrite decision space) are re-decided.
func (s *Service) CreateView(name, defSQL string, policy mview.RefreshPolicy) (*mview.View, error) {
	return s.views.Create(name, defSQL, policy)
}

// DropView unregisters a view and removes its backing table.
func (s *Service) DropView(name string) error { return s.views.Drop(name) }

// RefreshView catches a view up to the base table's current prefix.
func (s *Service) RefreshView(name string) error { return s.views.Refresh(name) }

// generations counts, per fingerprint, the times Session.Adapt found the
// served artifact stale. The count is part of the cache key, so a bump
// routes the next Prepare to a fresh compile under the current history
// and statistics.
type generations struct {
	mu sync.Mutex
	m  map[uint64]uint64
}

// Current returns a fingerprint's generation; 0 until its first bump.
func (g *generations) Current(fp uint64) uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.m[fp]
}

// Bump advances a fingerprint's generation and returns the new one.
func (g *generations) Bump(fp uint64) uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.m == nil {
		g.m = map[uint64]uint64{}
	}
	g.m[fp]++
	return g.m[fp]
}

// History exposes the service's observed-cardinality cache (shared by
// all sessions; Adapt is its writer).
func (s *Service) History() *cost.History { return s.history }

// estimator is the planner hook every service compile runs under:
// heuristics over fresh statistics, corrected by whatever true
// cardinalities the history has accumulated. With an empty history it is
// exactly the classic planner.
func (s *Service) estimator() plan.Estimator {
	return &cost.HistoryCorrected{Base: &cost.Naive{Stats: cost.FreshStats{}}, H: s.history}
}

// compile builds pl under opts with the cost model's partition count
// (decide). A cache miss, prepare's uncached text fallback and the
// tuple-counter twin of Adapt's counter run all compile here.
func (s *Service) compile(pl *plan.Output, opts Options) (*Compiled, error) {
	opts.Partitions = decide(pl, opts.Partitions)
	return (&Compiler{Cat: s.cat, Opts: opts}).CompilePlanGuided(pl, nil)
}

// compileText builds a statement's original text as a cache miss builds
// its fingerprint: planned under the service's estimator, compiled with
// the cost model's partition count.
func (s *Service) compileText(sql string) (*Compiled, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	pl, err := plan.PlanWith(s.cat, q, s.estimator())
	if err != nil {
		return nil, err
	}
	return s.compile(pl, s.opts)
}

// decide is the cost model's per-statement physical decision for a plan:
// the merge partition count, never above the configured one.
func decide(pl *plan.Output, partitions int) int {
	_, parts := cost.Decide(cost.Annotate(pl), false, partitions)
	return parts
}

// Options returns the service's compiler configuration.
func (s *Service) Options() Options { return s.opts }

// Catalog returns the service's catalog.
func (s *Service) Catalog() *catalog.Catalog { return s.cat }

// Append ingests row tuples into a table (see catalog.Append): the storage
// epoch advances, the window is journaled, and — within the table's frozen
// capacity — the catalog version does not change, so every cached artifact
// stays valid and every in-flight execution keeps reading its pinned
// snapshot while the rows land in the tail.
func (s *Service) Append(table string, rows [][]int64) (catalog.AppendResult, error) {
	return s.cat.Append(table, rows)
}

// AppendCols is Append in columnar form (see catalog.AppendCols).
func (s *Service) AppendCols(table string, cols [][]int64) (catalog.AppendResult, error) {
	return s.cat.AppendCols(table, cols)
}

// Snapshot captures the catalog's current epoch: an immutable view every
// table, suitable for pinning to a RunState or a Session.
func (s *Service) Snapshot() *catalog.Snapshot { return s.cat.Snapshot() }

// Epoch returns the catalog's current storage epoch.
func (s *Service) Epoch() uint64 { return s.cat.Epoch() }

// CacheStats snapshots the compiled-query cache's traffic counters.
func (s *Service) CacheStats() qcache.Stats { return s.cache.Stats() }

// CacheLen returns the number of cached artifacts.
func (s *Service) CacheLen() int { return s.cache.Len() }

// Fallbacks counts statements served by a direct, uncached compile
// because their parameterized form did not plan (see prepare).
func (s *Service) Fallbacks() uint64 { return s.fallbacks.Load() }

// SessionStats accumulates one session's traffic and its compile-vs-
// execute time split.
type SessionStats struct {
	Queries   int
	CacheHits int
	Fallbacks int
	// Rewrites counts prepares served by a materialized-view rewrite;
	// RewriteFallbacks counts runs of rewritten statements that fell
	// back to base-table execution because the bound snapshot had no
	// consistent view prefix (the zero-stale-read guard).
	Rewrites         int
	RewriteFallbacks int
	// Prepare is wall time spent in Prepare (cache lookups, compiles,
	// argument encoding); Execute is wall time spent running artifacts —
	// for Adapt, everything after its prepare: its one sampled run, plus
	// at most one counter run, the tuple-counter twin's compile included.
	Prepare time.Duration
	Execute time.Duration
}

// Session is one client's handle on the service. A session is not
// goroutine-safe (each concurrent client takes its own), but any number
// of sessions may share the Service and its cached artifacts.
//
// A session keeps its simulated machines. The CPUs and heaps its runs
// execute on are lent to the results of one Run, Execute or Adapt call and
// taken back, reset, by the session's next such call: everything in a
// Result stays valid forever except Result.CPU, which is valid until then.
// A session therefore retains at most the machines its largest single call
// used (one serially, 1+Workers in parallel; for Adapt, its sampled run's
// and one more for a counter run). Besides the machines it keeps the host
// side of its parallel runs (parStage: each worker's morsel slab and the
// merge's scratch), which every parallel run of the session reuses: a
// slab is emptied at each pipeline barrier and keeps its capacity.
type Session struct {
	ID    int64
	svc   *Service
	exec  executor
	stats SessionStats
	snap  *catalog.Snapshot
}

// NewSession opens a session. Run knobs (worker count, morsel size) are
// per-session and do not affect the cache key — the same artifact serves
// every execution configuration.
func (s *Service) NewSession() *Session {
	return &Session{ID: s.nextID.Add(1), svc: s, exec: executor{Opts: s.opts, pool: new(cpuPool)}}
}

// SetWorkers selects this session's morsel-parallel worker count
// (0 = the one-core path, see Options.Workers).
func (se *Session) SetWorkers(n int) { se.exec.Opts.Workers = n }

// SetMorselRows selects this session's morsel size (0 = default).
func (se *Session) SetMorselRows(n int) { se.exec.Opts.MorselRows = n }

// SetShards selects this session's shard count (0 = unsharded, see
// Options.Shards). Like the worker count it is a run knob: it does not
// affect the cache key, and rows and canonical profiles are the same at
// every shard count.
func (se *Session) SetShards(n int) { se.exec.Opts.Shards = n }

// SetShardPruning toggles zone pruning for this session's sharded runs
// (see Options.ShardPruning).
func (se *Session) SetShardPruning(on bool) { se.exec.Opts.ShardPruning = on }

// Stats returns the session's accumulated counters.
func (se *Session) Stats() SessionStats { return se.stats }

// Append ingests row tuples through the session's service. The session's
// own pinned snapshot (if any) is unaffected: the new rows become visible
// to it only after the next PinSnapshot (or immediately to unpinned runs,
// which bind the current epoch per execution).
func (se *Session) Append(table string, rows [][]int64) (catalog.AppendResult, error) {
	return se.svc.Append(table, rows)
}

// PinSnapshot pins the catalog's current epoch to this session: every
// subsequent Run binds against it — repeatable reads under concurrent
// ingest — until the next PinSnapshot or Unpin. Returns the pinned
// snapshot.
func (se *Session) PinSnapshot() *catalog.Snapshot {
	se.snap = se.svc.Snapshot()
	return se.snap
}

// Unpin releases the session's pinned snapshot; subsequent runs bind the
// catalog's current epoch at execute time.
func (se *Session) Unpin() { se.snap = nil }

// Prepared is a statement readied for execution: a shared compiled
// artifact plus this statement's private run state.
type Prepared struct {
	Compiled *Compiled
	// State carries the statement's encoded literal bindings; nil for
	// parameterless artifacts.
	State *RunState
	// CacheHit reports that Prepare found the artifact already resolved
	// in the cache (joining an in-flight compile does not count).
	CacheHit bool
	// Fallback reports a direct, uncached compile of the original text.
	Fallback bool
	// Canon and Fingerprint identify the normalized statement — the
	// *rewritten* one when Rewrite is set.
	Canon       string
	Fingerprint uint64
	// Rewrite records a materialized-view rewrite applied at prepare
	// time; nil when the statement runs against its base tables.
	Rewrite *RewriteInfo
	// PrepareTime is the wall time Prepare took for this statement.
	PrepareTime time.Duration

	key qcache.Key
	// fp is the normalized statement behind Canon and Fingerprint. Its
	// Query is re-planned in place (replanChanges), so like the Prepared
	// itself it belongs to one goroutine at a time.
	fp *sqlparse.Fingerprint
}

// RewriteInfo describes a subsumption rewrite riding on a Prepared.
type RewriteInfo struct {
	View string // serving view
	Base string // base table the original statement scanned
	SQL  string // rewritten statement text (what was compiled)
	Orig string // original statement text (the run-time fallback path)

	orig *sqlparse.Fingerprint // Orig normalized: what the fallback prepares
}

// Prepare normalizes, caches/compiles and binds one statement.
func (se *Session) Prepare(sql string) (*Prepared, error) {
	p, err := se.svc.prepare(sql, true)
	if err != nil {
		return nil, err
	}
	se.stats.Queries++
	if p.CacheHit {
		se.stats.CacheHits++
	}
	if p.Fallback {
		se.stats.Fallbacks++
	}
	if p.Rewrite != nil {
		se.stats.Rewrites++
	}
	se.stats.Prepare += p.PrepareTime
	return p, nil
}

// Run executes a prepared statement under this session's run options,
// bound to the session's pinned snapshot when one is set.
//
// Rewritten statements carry the zero-stale-read guard: the bound
// snapshot's (base rows, view rows) pair must appear in the view's
// refresh ledger — exact prefix agreement on both sides — or the run
// transparently falls back to the original statement under the very
// same snapshot. A refreshed view can therefore never serve rows a
// snapshot should not see, and a snapshot taken mid-append can never
// read half-covered partials.
func (se *Session) Run(p *Prepared, cfg *pmu.Config) (*Result, error) {
	t0 := time.Now()
	defer func() { se.stats.Execute += time.Since(t0) }()
	se.exec.pool.reclaim()
	p, rs, err := se.bind(p)
	if err != nil {
		return nil, err
	}
	return se.exec.run(p.Compiled, rs, 1, cfg)
}

// bind resolves what one execution of p runs under this session: the
// statement itself, or — when p carries a rewrite the guard rejects under
// the bound snapshot — the original statement prepared against its base
// tables; and the run state, p's bound parameters with the session's
// pinned snapshot. Rewritten artifacts always bind an explicit snapshot:
// the one the consistency guard approved (pinned, or captured here).
func (se *Session) bind(p *Prepared) (*Prepared, *RunState, error) {
	snap := se.snap
	if p.Rewrite != nil {
		if snap == nil {
			snap = se.svc.Snapshot()
		}
		if !se.svc.views.ConsistentUnder(snap, p.Rewrite.View) {
			se.svc.views.NoteFallback()
			se.stats.RewriteFallbacks++
			base, err := se.svc.prepareNormalized(p.Rewrite.Orig, p.Rewrite.orig, false)
			if err != nil {
				return nil, nil, err
			}
			p = base
		}
	}
	rs := p.State
	if snap != nil {
		bound := RunState{Snap: snap}
		if rs != nil {
			bound.Params = rs.Params
		}
		rs = &bound
	}
	return p, rs, nil
}

// Execute prepares and runs a statement in one call.
func (se *Session) Execute(sql string, cfg *pmu.Config) (*Prepared, *Result, error) {
	p, err := se.Prepare(sql)
	if err != nil {
		return nil, nil, err
	}
	res, err := se.Run(p, cfg)
	return p, res, err
}

// prepare is the service-side statement path: normalize → subsumption
// rewrite → cache lookup (single-flight compile on miss) → argument
// encoding. This is where a statement's text is read; everything behind
// it takes the fingerprint.
func (s *Service) prepare(sql string, allowRewrite bool) (*Prepared, error) {
	t0 := time.Now()
	fp, err := sqlparse.Normalize(sql)
	if err != nil {
		return nil, err
	}
	p, err := s.prepareNormalized(sql, fp, allowRewrite)
	if err != nil {
		return nil, err
	}
	p.PrepareTime = time.Since(t0)
	return p, nil
}

// prepareNormalized is prepare behind Normalize; sql is kept for the
// direct-compile error path and RewriteInfo only. The rewrite hook is
// gated: the run-time consistency fallback re-prepares the *original*
// statement's fingerprint with the rewriter off, so a stale view can
// never bounce a statement back to itself.
func (s *Service) prepareNormalized(sql string, fp *sqlparse.Fingerprint, allowRewrite bool) (*Prepared, error) {
	// Subsumption rewrite (internal/mview): with no views registered
	// this is one atomic load. On a match the rewritten statement's
	// fingerprint replaces this one, so every textual variant of a query
	// family lands on ONE canonical form and ONE cached artifact. The
	// view generation is captured BEFORE the rewrite decision: a
	// concurrent CreateView/DropView between the decision and the key
	// read would otherwise cache a decision made under the old
	// generation against the new generation's key, pinning it past the
	// bump. The catalog version is read AFTER it: the rewriter's
	// incremental refresh can grow the view table past its reserved
	// capacity, which bumps the version, and the key must name the
	// layout the artifact is compiled for.
	viewGen := s.views.Generation()
	var rw *mview.Rewrite
	orig := fp
	if allowRewrite {
		if r, ok := s.views.Rewrite(fp); ok {
			rw, fp = r, r.Fingerprint
		}
	}
	catVer := s.cat.Version()
	key := qcache.Key{
		Fingerprint: fp.Hash,
		Canon:       fp.Canon,
		Options:     s.optDigest,
		Catalog:     catVer,
		Generation:  s.gens.Current(fp.Hash),
		View:        viewGen,
	}
	cq, hit, err := s.cache.GetOrCompute(key, func() (*Compiled, error) {
		// Plan under the history-corrected estimator and let the cost
		// model pick the physical knobs for this statement. All of this
		// happens inside the compute function only: the cache key is
		// untouched, so the hit path stays a pure lookup, and staleness is
		// routed through generations — Adapt bumps the generation when
		// observed cardinalities shift materially, which changes the key
		// and forces this compute to run again under the updated history.
		pl, err := plan.PlanWith(s.cat, fp.Query, s.estimator())
		if err != nil {
			return nil, err
		}
		return s.compile(pl, s.opts)
	})
	if err != nil {
		// The parameterized form didn't compile — typically a literal in
		// a position the planner must see at plan time. Recompile the
		// original text directly (uncached) so semantics and error
		// messages match the classic path exactly; if that also fails,
		// the direct error is the one the user should see (it names the
		// original literals, not $N placeholders).
		direct, derr := s.compileText(sql)
		if derr != nil {
			return nil, derr
		}
		s.fallbacks.Add(1)
		return &Prepared{Compiled: direct, Fallback: true}, nil
	}
	p := &Prepared{Compiled: cq, CacheHit: hit, Canon: fp.Canon, Fingerprint: fp.Hash, key: key, fp: fp}
	if rw != nil {
		p.Rewrite = &RewriteInfo{View: rw.View, Base: rw.Base, SQL: rw.SQL, Orig: sql, orig: orig}
	}
	if len(cq.Plan.Params) > 0 || len(fp.Args) > 0 {
		vals, err := EncodeParams(cq.Plan.Params, fp.Args)
		if err != nil {
			return nil, err
		}
		p.State = &RunState{Params: vals}
	}
	return p, nil
}

// EncodeParams encodes literal argument values against a plan's
// parameter manifest, applying exactly the encoding a directly-compiled
// literal would have received: numbers stay raw (dates and dictionary
// codes compare as their int64 encodings), string arguments resolve
// through the compared column's date format or dictionary, and a
// dictionary miss encodes as -1 — an ID no row carries.
func EncodeParams(infos []plan.ParamInfo, args []sqlparse.Literal) ([]int64, error) {
	if len(args) != len(infos) {
		return nil, fmt.Errorf("engine: query expects %d bound parameters, %d supplied", len(infos), len(args))
	}
	vals := make([]int64, len(args))
	for i, a := range args {
		switch a.Kind {
		case sqlparse.LitNum:
			vals[i] = a.Num
		case sqlparse.LitStr:
			v, err := catalog.EncodeString(infos[i].Type, infos[i].Dict, a.Str)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		default:
			return nil, fmt.Errorf("engine: unknown literal kind %d", a.Kind)
		}
	}
	return vals, nil
}

// Adapt runs a statement once, sampled under cfg (nil selects
// DefaultAdaptSampling), through this session, and closes the cardinality
// loop with the run's true row counts: one sampled run, plus at most one
// counter run (see observeTrue). Its runs bind exactly like Run's — the
// pinned snapshot, and the base statement when the rewrite guard rejects
// it — and count toward SessionStats.Execute. It compiles nothing into the
// cache: the artifact the next Prepare serves is the one this Prepare
// served, unless the history or drift bump below routes the fingerprint to
// a fresh compile.
func (se *Session) Adapt(sql string, cfg *pmu.Config) (*AdaptiveResult, error) {
	p, err := se.Prepare(sql)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	defer func() { se.stats.Execute += time.Since(t0) }()
	se.exec.pool.reclaim()
	p, rs, err := se.bind(p)
	if err != nil {
		return nil, err
	}
	if cfg == nil {
		d := DefaultAdaptSampling()
		cfg = &d
	}
	run, err := se.exec.run(p.Compiled, rs, 1, cfg)
	if err != nil {
		return nil, fmt.Errorf("engine: adaptive profiling run: %w", err)
	}
	if run.Profile == nil {
		return nil, fmt.Errorf("engine: adaptive profiling run produced no profile")
	}
	// Close the cardinality loop: feed this run's observed per-operator
	// row counts into the shared history. When the corrected estimates
	// would actually change the served artifact — a different physical
	// plan shape or a different partition count — the fingerprint's
	// generation is bumped and the next Prepare re-plans under the
	// history. Materially shifted observations that change nothing
	// physical leave the generation alone: the cached artifact is still
	// the plan the history would pick.
	//
	// Epoch staleness rides the same path: when streaming appends have
	// drifted any scanned table's visible rows past the threshold relative
	// to what the artifact's planner saw, the generation is bumped
	// unconditionally — the recompile re-plans over the current epoch's
	// statistics (ColStats are per-row-count) and re-freezes the planned
	// row counts, resetting the drift baseline.
	if !p.Fallback {
		material, err := se.observeTrue(p, rs, run)
		if err != nil {
			return nil, err
		}
		drifted := staleByDrift(p.Compiled, se.svc.cat.Snapshot())
		if drifted || (material && se.svc.replanChanges(p)) {
			gen := se.svc.gens.Bump(p.Fingerprint)
			se.svc.cache.Invalidate(func(k qcache.Key) bool {
				return k.Fingerprint == p.key.Fingerprint && k.Canon == p.key.Canon &&
					k.Options == p.key.Options && k.Generation < gen
			})
		}
	}
	return &AdaptiveResult{ProfileRun: run, Baseline: run, Tuned: run,
		BaselineCycles: run.WallCycles, TunedCycles: run.WallCycles}, nil
}

// StalenessDriftThreshold is the relative row-count drift — per scanned
// table, |visible − planned| / planned — past which Session.Adapt declares
// an artifact stale and bumps its generation.
const StalenessDriftThreshold = 0.3

// staleByDrift reports whether any table an artifact scans has drifted
// past StalenessDriftThreshold relative to the row count its planner saw.
func staleByDrift(cq *Compiled, snap *catalog.Snapshot) bool {
	for _, tb := range cq.tables {
		v := snap.View(tb.table)
		if v == nil {
			continue
		}
		rows := int64(v.Rows)
		if tb.planned == 0 {
			if rows > 0 {
				return true
			}
			continue
		}
		d := rows - tb.planned
		if d < 0 {
			d = -d
		}
		if float64(d) >= StalenessDriftThreshold*float64(tb.planned) {
			return true
		}
	}
	return false
}

// replanChanges re-plans a prepared statement under the current
// history and reports whether the result differs physically from the
// cached artifact: a different plan.Shape (join order, build sides,
// group-join fusion) or a different partition count. The cached plan's
// own frozen estimates reproduce its original decision, so no extra state
// needs to ride in the cache.
func (s *Service) replanChanges(p *Prepared) bool {
	pl, err := plan.PlanWith(s.cat, p.fp.Query, s.estimator())
	if err != nil {
		return false
	}
	if plan.Shape(pl) != plan.Shape(p.Compiled.Plan) {
		return true
	}
	return decide(p.Compiled.Plan, s.opts.Partitions) != decide(pl, s.opts.Partitions)
}

// observeTrue collects a prepared statement's true per-operator
// cardinalities and feeds them into the service history. Adapt's sampled
// run, run, carries them when the service compiles with TupleCounters and
// the run pruned no zone. Otherwise one counter run supplies them, under
// the run state Adapt bound: of a counter-instrumented twin of the same
// plan (compiled by Service.compile) when the service compiles no
// counters. Counter folding makes the counts worker- and shard-count-
// invariant, so the counter run is serial, on one machine; and it is
// unsharded, because a pruned zone is never counted and a scan's observed
// row count must be what the planner should estimate for it.
func (se *Session) observeTrue(p *Prepared, rs *RunState, run *Result) (bool, error) {
	cq, counts := p.Compiled, run.TupleCounts
	if len(counts) == 0 || len(run.Profile.Skips) > 0 {
		if len(counts) == 0 {
			opts := se.svc.opts
			opts.TupleCounters = true
			twin, err := se.svc.compile(p.Compiled.Plan, opts)
			if err != nil {
				return false, err
			}
			cq = twin
		}
		x := se.exec
		x.Opts.Workers, x.Opts.Shards = 0, 0
		res, err := x.run(cq, rs, 1, nil)
		if err != nil {
			return false, err
		}
		counts = res.TupleCounts
	}
	return cost.ObserveTrueRows(se.svc.history, cq.Plan, cq.Pipe, counts), nil
}
