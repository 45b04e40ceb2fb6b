package engine

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/plan"
	"repro/internal/vm"
)

// Cross-shard coordination (DESIGN.md §13).
//
// With Options.Shards >= 1 every table-scan pipeline executes through the
// cross-shard coordinator: the table's zone map (internal/catalog) is
// grouped into N contiguous shards, and each zone is either *pruned* —
// proven to contribute no rows, from its bounds against the scan filter or
// against the build side of a join it feeds — or *surviving*, in which case
// its rows are morselized onto the existing workers. Three properties make
// this an invariance-preserving optimization rather than a new execution
// mode:
//
//   - Zone granularity is a function of the table alone (catalog.ZoneRowsFor),
//     never of the shard count, so pruning decisions — and therefore the
//     surviving row set, the global morsel list, the result heap, and the
//     merged profile — are identical for Shards ∈ {1,2,4,8,...}. Shards are
//     just contiguous zone groups layered on top for attribution: per-shard
//     run states (journals), per-shard sample stamps, wholesale skips.
//   - Pruning is certain, not probabilistic: a zone is skipped only when
//     interval evaluation of the filter over the zone's bounds proves no row
//     can pass, or when the probe-key range provably misses every build-side
//     key (bounds check, or an exact lookup of every candidate key in the
//     build's hash table for narrow ranges). The property suite compares
//     pruned vs unpruned rows.
//   - Every pruned zone becomes an explicit zero-cost skip event attached to
//     the merged profile, so attribution stays complete: each table row is
//     covered either by executed-task samples or by a skip. The journals
//     record each verdict once; core.Skips derives the events from them.

// ShardState and ZoneDecision are the shard lineage journal; the types
// live in core beside SkipEvent, which is derived from them, so the
// verifier reads them without importing the engine.
type (
	ShardState   = core.ShardState
	ZoneDecision = core.ZoneDecision
)

// semiProbe is one join this scan's pipeline probes with a bare column of
// the scanned table: build-side key bounds plus the build's finished hash
// table, "shipped" to the probe-side shard scans for semi-join pruning.
type semiProbe struct {
	col    int // table column position of the probe key
	ht     *pipeline.HTLayout
	bounds catalog.Bound // over the build side's inserted keys
}

// semiProbeMaxKeys bounds the exact membership test: a zone's probe-key
// range [lo, hi] is looked up value by value only when it spans at most
// this many candidates (clustered keys — the case where zone ranges are
// narrow — is exactly where this wins).
const semiProbeMaxKeys = 64

// buildShardExec computes one scan pipeline's sharded execution plan
// against the canonical heap (build sides of already-executed pipelines
// are final there — the semi-join shipping reads them): the canonical
// surviving-morsel list in st.spans (identical for every shard count) and
// the shard owning each morsel in st.shardOf (the attribution stamp). It
// appends the pipeline's per-shard journals to states and returns them.
// Zones and shards come from the run's pinned snapshot view, never the
// live table, so the verdicts describe exactly the rows this execution
// sees — concurrent appends land in a tail no zone covers.
func buildShardExec(cq *Compiled, coord *vm.CPU, info *pipeline.PipelineInfo, snap *catalog.Snapshot, params []int64, shards int, pruning bool, morselSize int64, st *parStage, states []ShardState) ([]ShardState, error) {
	scan := findScan(cq.Plan, info.Driver.Alias)
	if scan == nil {
		return nil, fmt.Errorf("engine: shard coordinator: no scan %q in plan", info.Driver.Alias)
	}
	view := snap.View(scan.Table.Name)
	if view == nil {
		return nil, fmt.Errorf("engine: shard coordinator: snapshot has no view of table %q", scan.Table.Name)
	}
	zones := view.Zones()
	shardList := view.Shards(shards)

	// Decide every zone. The verdicts depend on (table, filter, params,
	// canonical build state) only — never on the shard grouping.
	cause := resize(st.cause, len(zones))
	clear(cause)
	st.cause = cause
	if pruning {
		probes := collectSemiProbes(cq, coord, scan)
		// Scan.Filter's column positions index the scan's output row (see
		// pipeline.evalExpr and ref.scan), so each zone's table-space
		// bounds are projected through the scan's column selection.
		var outBounds []catalog.Bound
		if scan.Filter != nil {
			outBounds = make([]catalog.Bound, len(scan.Cols))
		}
		for zi, z := range zones {
			if scan.Filter != nil {
				for i, ci := range scan.Cols {
					outBounds[i] = z.Bounds[ci]
				}
				if !mayMatch(scan.Filter, outBounds, params) {
					cause[zi] = core.SkipFilter
					continue
				}
			}
			for _, p := range probes {
				kb := z.Bounds[p.col]
				if p.bounds.Empty() || kb.Max < p.bounds.Min || kb.Min > p.bounds.Max {
					cause[zi] = core.SkipSemiJoin
					break
				}
				// The span is counted in uint64 so that neither a zone
				// over the whole int64 range nor one ending at MaxInt64
				// overflows.
				if span := uint64(kb.Max) - uint64(kb.Min); span < semiProbeMaxKeys {
					hit := false
					for i := uint64(0); i <= span && !hit; i++ {
						hit = pipeline.BuildContains(coord.Heap, p.ht, kb.Min+int64(i))
					}
					if !hit {
						cause[zi] = core.SkipAbsent
						break
					}
				}
			}
		}
	}

	// Canonical surviving-morsel list: maximal runs of surviving zones,
	// morselized independently. Runs ignore shard boundaries — a morsel
	// may straddle two shards — because the span list must be a pure
	// function of the zone verdicts for shard-count invariance.
	if morselSize <= 0 {
		morselSize = DefaultMorselRows
	}
	spans := st.spans[:0]
	runLo := int64(-1)
	flush := func(hi int64) {
		if runLo >= 0 {
			spans = appendMorsels(spans, runLo, hi, morselSize)
			runLo = -1
		}
	}
	for zi, z := range zones {
		if cause[zi] != "" {
			flush(z.Lo)
			continue
		}
		if runLo < 0 {
			runLo = z.Lo
		}
	}
	if len(zones) > 0 {
		flush(zones[len(zones)-1].Hi)
	}
	st.spans = spans

	// Shard attribution: each morsel belongs to the shard containing its
	// first row (morsels never cross a run boundary, and shards are
	// contiguous, so this is unambiguous).
	shardOf := resize(st.shardOf, len(spans))
	st.shardOf = shardOf
	si := 0
	for m, sp := range spans {
		for si+1 < len(shardList) && sp.Lo >= shardList[si].Hi {
			si++
		}
		shardOf[m] = shardList[si].ID
	}

	// Per-shard journals: each zone verdict, once. They are the Result's,
	// so they are allocated per run.
	for _, sh := range shardList {
		j := ShardState{Pipeline: info.Index, Alias: scan.Alias, Shard: sh.ID, Lo: sh.Lo, Hi: sh.Hi}
		j.Zones = make([]ZoneDecision, 0, len(sh.Zones))
		for _, z := range sh.Zones {
			j.Zones = append(j.Zones, ZoneDecision{Zone: z.Index, Lo: z.Lo, Hi: z.Hi, Cause: cause[z.Index]})
		}
		for _, s := range shardOf {
			if s == sh.ID {
				j.Morsels++
			}
		}
		states = append(states, j)
	}
	return states, nil
}

// findScan locates the plan's scan node for a pipeline's driving alias.
func findScan(root *plan.Output, alias string) *plan.Scan {
	var out *plan.Scan
	plan.Walk(root, func(n plan.Node) {
		if s, ok := n.(*plan.Scan); ok && s.Alias == alias {
			out = s
		}
	})
	return out
}

// pipelineDriver descends a node's probe chain to the scan that drives
// its pipeline, or nil when the pipeline is arena-driven (below a
// pipeline breaker).
func pipelineDriver(n plan.Node) *plan.Scan {
	switch x := n.(type) {
	case *plan.Scan:
		return x
	case *plan.Join:
		return pipelineDriver(x.Probe)
	}
	return nil
}

// probeColToTable maps a position in n.Out() — n on the probe chain down
// to scan — to a table column position of scan, or -1 when the position
// resolves to something else (a build payload column, an expression).
func probeColToTable(n plan.Node, pos int, scan *plan.Scan) int {
	switch x := n.(type) {
	case *plan.Scan:
		if x == scan && pos >= 0 && pos < len(x.Cols) {
			return x.Cols[pos]
		}
	case *plan.Join:
		if np := len(x.Probe.Out()); pos < np {
			return probeColToTable(x.Probe, pos, scan)
		}
	}
	return -1
}

// collectSemiProbes gathers the joins (and group-joins) whose probe side
// is driven by scan and whose probe key is a bare column of the scanned
// table. Their builds finished before this pipeline starts (pipelines run
// in topological order), so the build-side key bounds and hash table in
// the canonical heap are final — the "shipped" semi-join state.
func collectSemiProbes(cq *Compiled, coord *vm.CPU, scan *plan.Scan) []semiProbe {
	var out []semiProbe
	add := func(n plan.Node, probe plan.Node, probeKey plan.PExpr, sinkKind pipeline.SinkKind) {
		if pipelineDriver(probe) != scan {
			return
		}
		pc, ok := probeKey.(*plan.PCol)
		if !ok {
			return
		}
		col := probeColToTable(probe, pc.Pos, scan)
		if col < 0 {
			return
		}
		ht := cq.Layout.HT[n]
		if ht == nil {
			return
		}
		keyOff, ok := buildKeyOff(cq, ht, sinkKind)
		if !ok {
			return
		}
		out = append(out, semiProbe{col: col, ht: ht, bounds: buildKeyBounds(coord, ht, keyOff)})
	}
	plan.Walk(cq.Plan, func(n plan.Node) {
		switch x := n.(type) {
		case *plan.Join:
			add(x, x.Probe, x.ProbeKey, pipeline.SinkJoinBuild)
		case *plan.GroupJoin:
			add(x, x.Probe, x.ProbeKey, pipeline.SinkGJBuild)
		}
	})
	return out
}

// buildKeyOff finds the key offset of a hash table's build sink.
func buildKeyOff(cq *Compiled, ht *pipeline.HTLayout, kind pipeline.SinkKind) (int64, bool) {
	for i := range cq.Pipe.Pipelines {
		s := &cq.Pipe.Pipelines[i].Sink
		if s.Kind == kind && s.HT != nil && s.HT.Desc == ht.Desc {
			return s.KeyOff, true
		}
	}
	return 0, false
}

// buildKeyBounds folds the min/max of every key the build inserted,
// reading the finished arena off the canonical heap. An empty build
// returns an empty bound — every probe zone is then prunable.
func buildKeyBounds(coord *vm.CPU, ht *pipeline.HTLayout, keyOff int64) catalog.Bound {
	cursor := coord.ReadI64(ht.Desc + codegen.HTDescCursor)
	b := catalog.Bound{Min: 1, Max: 0} // empty
	for e := ht.Arena; e < cursor; e += ht.EntrySize {
		k := codegen.HeapI64(coord.Heap, e+keyOff)
		if b.Empty() {
			b = catalog.Bound{Min: k, Max: k}
			continue
		}
		if k < b.Min {
			b.Min = k
		}
		if k > b.Max {
			b.Max = k
		}
	}
	return b
}

// --- Interval evaluation of scan filters over zone bounds ---

// ival is a conservative value interval: every row's value lies in
// [lo, hi]. ok=false means "unknown" (any value possible).
type ival struct {
	lo, hi int64
	ok     bool
}

func point(v int64) ival { return ival{lo: v, hi: v, ok: true} }
func unknown() ival      { return ival{ok: false} }
func (v ival) canBeTrue() bool {
	// Used when a value is consumed as a boolean: false only when the
	// interval is exactly {0}.
	return !v.ok || v.lo != 0 || v.hi != 0
}

// mayMatch reports whether the predicate could evaluate to true for some
// row whose column values lie within the zone bounds. It is conservative:
// false means *no* row of the zone can pass the filter (the soundness the
// pruning property test exercises); true means "don't prune".
func mayMatch(e plan.PExpr, bounds []catalog.Bound, params []int64) bool {
	switch x := e.(type) {
	case *plan.PBin:
		switch x.Op {
		case plan.OpAnd:
			// A row satisfying the conjunction satisfies both sides, so if
			// either side is impossible over the zone, so is the whole.
			return mayMatch(x.L, bounds, params) && mayMatch(x.R, bounds, params)
		case plan.OpOr:
			return mayMatch(x.L, bounds, params) || mayMatch(x.R, bounds, params)
		}
		if x.Op.IsComparison() {
			l := evalIval(x.L, bounds, params)
			r := evalIval(x.R, bounds, params)
			if !l.ok || !r.ok {
				return true
			}
			switch x.Op {
			case plan.OpEq:
				return l.lo <= r.hi && r.lo <= l.hi
			case plan.OpNe:
				return !(l.lo == l.hi && r.lo == r.hi && l.lo == r.lo)
			case plan.OpLt:
				return l.lo < r.hi
			case plan.OpLe:
				return l.lo <= r.hi
			case plan.OpGt:
				return l.hi > r.lo
			case plan.OpGe:
				return l.hi >= r.lo
			}
		}
	}
	return evalIval(e, bounds, params).canBeTrue()
}

// evalIval computes a conservative interval for an arithmetic expression
// over the zone's column bounds. Overflow, division, and anything not
// understood degrade to unknown — never to a wrong bound.
func evalIval(e plan.PExpr, bounds []catalog.Bound, params []int64) ival {
	switch x := e.(type) {
	case *plan.PConst:
		return point(x.Val)
	case *plan.PParam:
		if x.Idx >= 0 && x.Idx < len(params) {
			return point(params[x.Idx])
		}
		return unknown()
	case *plan.PCol:
		if x.Pos >= 0 && x.Pos < len(bounds) && !bounds[x.Pos].Empty() {
			return ival{lo: bounds[x.Pos].Min, hi: bounds[x.Pos].Max, ok: true}
		}
		return unknown()
	case *plan.PBin:
		if x.Op.IsComparison() || x.Op == plan.OpAnd || x.Op == plan.OpOr {
			// Boolean-valued subexpression: 0 or 1; be exact only when the
			// comparison is decided, else [0,1].
			if !mayMatch(x, bounds, params) {
				return point(0)
			}
			return ival{lo: 0, hi: 1, ok: true}
		}
		l := evalIval(x.L, bounds, params)
		r := evalIval(x.R, bounds, params)
		if !l.ok || !r.ok {
			return unknown()
		}
		switch x.Op {
		case plan.OpAdd:
			lo, ok1 := addOv(l.lo, r.lo)
			hi, ok2 := addOv(l.hi, r.hi)
			if ok1 && ok2 {
				return ival{lo: lo, hi: hi, ok: true}
			}
		case plan.OpSub:
			lo, ok1 := subOv(l.lo, r.hi)
			hi, ok2 := subOv(l.hi, r.lo)
			if ok1 && ok2 {
				return ival{lo: lo, hi: hi, ok: true}
			}
		case plan.OpMul:
			vals := [4]int64{}
			oks := true
			for i, pair := range [4][2]int64{{l.lo, r.lo}, {l.lo, r.hi}, {l.hi, r.lo}, {l.hi, r.hi}} {
				v, ok := mulOv(pair[0], pair[1])
				if !ok {
					oks = false
					break
				}
				vals[i] = v
			}
			if oks {
				lo, hi := vals[0], vals[0]
				for _, v := range vals[1:] {
					if v < lo {
						lo = v
					}
					if v > hi {
						hi = v
					}
				}
				return ival{lo: lo, hi: hi, ok: true}
			}
		}
	}
	return unknown()
}

func addOv(a, b int64) (int64, bool) {
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		return 0, false
	}
	return s, true
}

func subOv(a, b int64) (int64, bool) {
	s := a - b
	if (b < 0 && s < a) || (b > 0 && s > a) {
		return 0, false
	}
	return s, true
}

func mulOv(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	return p, true
}
