package experiments

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/pmu"
	"repro/internal/queries"
	"repro/internal/ref"
	"repro/internal/vm"
)

// The sharded-execution benchmark (BENCH_shard.json, DESIGN.md §13):
// scan/agg/join workloads across shard counts with cross-shard pruning,
// plus a pruning-selectivity sweep. Two claims are measured per row:
// speed (wall cycles) and invariance (rows byte-identical to the serial
// oracle, canonical profile byte-identical across the shard grid).

// shardPeriod is the deterministic sampling period of the shard bench:
// a prime well below the morsel size, so every configuration samples the
// same instruction stream identically (profile invariance is asserted,
// not averaged).
const shardPeriod = 487

// ShardRow is one measurement of the shard-scaling benchmark.
type ShardRow struct {
	Query   string `json:"query"`
	Workers int    `json:"workers"`
	// Shards 0 is unsharded execution (no coordinator, no zone map).
	Shards     int    `json:"shards"`
	Pruning    bool   `json:"pruning"`
	WallCycles uint64 `json:"wall_cycles"`
	// Zones / PrunedZones count the coordinator's zone verdicts across
	// all scan pipelines (0/0 for unsharded rows).
	Zones       int `json:"zones"`
	PrunedZones int `json:"pruned_zones"`
	// RowsIdentical: results byte-compare equal to the serial oracle.
	RowsIdentical bool `json:"rows_identical"`
	// ProfileInvariant: the merged profile's Canonical() bytes equal the
	// first run of the same invariance class. Sharded pruning-on runs form
	// one class per query (they carry skip events); parallel runs without
	// pruning (unsharded, or sharded with pruning off) form a second; the
	// single-CPU serial path attributes tasks differently and stands
	// alone. Invariance across worker counts and shard counts is asserted
	// within each class, never averaged.
	ProfileInvariant bool `json:"profile_invariant"`
}

// ShardSweepRow is one point of the pruning-selectivity sweep: the scan
// workload's prunable range grows from 10% to 100% of the key domain
// while the residual equality predicate keeps the output sparse.
type ShardSweepRow struct {
	CutFrac     float64 `json:"cut_frac"`
	ResultRows  int     `json:"result_rows"`
	Zones       int     `json:"zones"`
	PrunedZones int     `json:"pruned_zones"`
	WallCycles  uint64  `json:"wall_cycles"`
	// Speedup vs the unsharded run at the same worker count.
	Speedup float64 `json:"speedup"`
}

// ShardGate restates one CI scaling gate from the measured rows.
type ShardGate struct {
	Query          string  `json:"query"`
	Baseline       string  `json:"baseline"`
	BaselineCycles uint64  `json:"baseline_cycles"`
	ShardedCycles  uint64  `json:"sharded_cycles"`
	Speedup        float64 `json:"speedup"`
	Required       float64 `json:"required_speedup"`
	EnforcedBy     string  `json:"enforced_by"`
	Pass           bool    `json:"pass"`
}

// ShardReport is the full benchmark output, serialized to BENCH_shard.json.
type ShardReport struct {
	SF    float64         `json:"sf"`
	Seed  uint64          `json:"seed"`
	Rows  []ShardRow      `json:"rows"`
	Sweep []ShardSweepRow `json:"sweep"`
	Gates []ShardGate     `json:"gates"`
	Pass  bool            `json:"pass"`
}

// JSON renders the report as stable, indented JSON.
func (r *ShardReport) JSON() ([]byte, error) { return reportJSON(r) }

// shardScanQuery builds the 90%-prunable selective scan of the scaling
// gate, generalized over the cut fraction: a range conjunct on the
// clustered key prunes zones (cutFrac of the key domain survives), while
// a sparse equality on an unclustered column keeps the *output* small in
// every configuration — so the sweep varies prunability without varying
// the per-row output cost that would otherwise dominate.
func shardScanQuery(cat *catalog.Catalog, cutFrac float64) (*plan.Query, error) {
	tb, err := cat.Table("lineitem")
	if err != nil {
		return nil, err
	}
	st := tb.ColStats("l_orderkey")
	cut := st.Min + int64(float64(st.Max-st.Min)*cutFrac)
	return &plan.Query{
		Tables: []plan.TableRef{{Name: "lineitem"}},
		Where: []plan.Expr{
			plan.Lt(plan.Col("l_orderkey"), plan.Num(cut)),
			plan.Eq(plan.Col("l_quantity"), plan.Num(13)),
		},
		Select: []plan.SelectItem{
			{Expr: plan.Col("l_orderkey")},
			{Expr: plan.Col("l_extendedprice")},
		},
		Limit: -1,
	}, nil
}

// shardRun executes one configuration and returns the result plus the
// coordinator's zone tallies. Sampling costs simulated cycles on worker
// CPUs, so timing rows run unsampled and the profile-invariance rows run
// with the deterministic shardPeriod — never both from one run.
func (e *Env) shardRun(q *plan.Query, workers, shards int, pruning, sample bool) (*engine.Result, int, int, error) {
	opts := engine.DefaultOptions()
	opts.Workers = workers
	opts.Shards = shards
	opts.ShardPruning = pruning
	opts.MorselRows = 256 // the CI scaling gate's morsel size
	eng := engine.New(e.Cat, opts)
	cq, err := eng.CompileQuery(q)
	if err != nil {
		return nil, 0, 0, err
	}
	var cfg *pmu.Config
	if sample {
		cfg = &pmu.Config{Event: vm.EvInstRetired, Period: shardPeriod}
	}
	res, err := eng.Run(cq, cfg)
	if err != nil {
		return nil, 0, 0, err
	}
	zones, pruned := 0, 0
	for _, st := range res.ShardStates {
		zones += len(st.Zones)
		for _, z := range st.Zones {
			if z.Pruned {
				pruned++
			}
		}
	}
	return res, zones, pruned, nil
}

// ShardReportRun measures the shard benchmark: three workload shapes
// (selective scan, aggregation, join) across Shards ∈ {0,1,2,4,8}, the
// pruning-selectivity sweep on the scan, and the two CI gates restated.
func (e *Env) ShardReportRun() (*ShardReport, error) {
	rep := &ShardReport{SF: e.SF, Seed: e.Seed, Pass: true}

	type workload struct {
		name string
		q    *plan.Query
	}
	scanQ, err := shardScanQuery(e.Cat, 0.1)
	if err != nil {
		return nil, err
	}
	var wls []workload
	wls = append(wls, workload{"selscan", scanQ})
	for _, name := range []string{"q1", "fig9"} {
		w, ok := queries.ByName(name)
		if !ok {
			return nil, fmt.Errorf("no workload %s", name)
		}
		wls = append(wls, workload{name, w.Query})
	}

	type cfg struct {
		workers, shards int
		pruning         bool
	}
	grid := []cfg{
		{0, 0, false}, // serial oracle
		{4, 0, false},
		{4, 1, true}, {4, 2, true}, {4, 4, true}, {4, 8, true},
		{4, 4, false}, // no-prune tax
		{1, 4, true},
	}

	for _, wl := range wls {
		var oracle [][]int64
		// Canonical-profile baselines per invariance class (see
		// ShardRow.ProfileInvariant).
		canonBase := map[string][]byte{}
		for _, c := range grid {
			res, zones, pruned, err := e.shardRun(wl.q, c.workers, c.shards, c.pruning, false)
			if err != nil {
				return nil, fmt.Errorf("%s workers=%d shards=%d: %w", wl.name, c.workers, c.shards, err)
			}
			prof, _, _, err := e.shardRun(wl.q, c.workers, c.shards, c.pruning, true)
			if err != nil {
				return nil, fmt.Errorf("%s workers=%d shards=%d sampled: %w", wl.name, c.workers, c.shards, err)
			}
			if oracle == nil {
				oracle = res.Rows
			}
			class := "plain"
			switch {
			case c.workers == 0 && c.shards == 0:
				class = "serial"
			case c.shards >= 1 && c.pruning:
				class = "pruned"
			}
			canon := prof.Profile.Canonical()
			if canonBase[class] == nil {
				canonBase[class] = canon
			}
			row := ShardRow{
				Query: wl.name, Workers: c.workers, Shards: c.shards, Pruning: c.pruning,
				WallCycles: res.WallCycles, Zones: zones, PrunedZones: pruned,
				RowsIdentical:    ref.SameRows(res.Rows, oracle, true),
				ProfileInvariant: string(canon) == string(canonBase[class]),
			}
			if c.workers == 0 {
				row.WallCycles = res.Stats.Cycles
			}
			if !row.RowsIdentical || !row.ProfileInvariant {
				rep.Pass = false
			}
			rep.Rows = append(rep.Rows, row)
		}
	}

	// Pruning-selectivity sweep: workers fixed at 4, shards 4, pruning on,
	// vs the unsharded 4-worker run of the same query.
	for _, frac := range []float64{0.1, 0.25, 0.5, 0.75, 1.0} {
		q, err := shardScanQuery(e.Cat, frac)
		if err != nil {
			return nil, err
		}
		base, _, _, err := e.shardRun(q, 4, 0, false, false)
		if err != nil {
			return nil, fmt.Errorf("sweep %.2f unsharded: %w", frac, err)
		}
		res, zones, pruned, err := e.shardRun(q, 4, 4, true, false)
		if err != nil {
			return nil, fmt.Errorf("sweep %.2f sharded: %w", frac, err)
		}
		if !ref.SameRows(res.Rows, base.Rows, true) {
			rep.Pass = false
		}
		rep.Sweep = append(rep.Sweep, ShardSweepRow{
			CutFrac: frac, ResultRows: len(res.Rows), Zones: zones, PrunedZones: pruned,
			WallCycles: res.WallCycles,
			Speedup:    round2(float64(base.WallCycles) / float64(res.WallCycles)),
		})
	}

	// The CI gates, restated from the measured rows.
	find := func(query string, workers, shards int, pruning bool) *ShardRow {
		for i := range rep.Rows {
			r := &rep.Rows[i]
			if r.Query == query && r.Workers == workers && r.Shards == shards && r.Pruning == pruning {
				return r
			}
		}
		return nil
	}
	gate := func(query, baseline string, base, sharded *ShardRow, required float64) {
		g := ShardGate{
			Query: query, Baseline: baseline,
			BaselineCycles: base.WallCycles, ShardedCycles: sharded.WallCycles,
			Speedup:    round2(float64(base.WallCycles) / float64(sharded.WallCycles)),
			Required:   required,
			EnforcedBy: "TestShardScalingGate (CI bench-smoke)",
		}
		g.Pass = g.Speedup >= required
		if !g.Pass {
			rep.Pass = false
		}
		rep.Gates = append(rep.Gates, g)
	}
	gate("fig9", "serial unsharded", find("fig9", 0, 0, false), find("fig9", 4, 4, true), 2.0)
	gate("selscan", "4-worker unsharded", find("selscan", 4, 0, false), find("selscan", 4, 4, true), 5.0)
	return rep, nil
}

func round2(x float64) float64 { return float64(int64(x*100+0.5)) / 100 }

// Shard runs the sharded-execution benchmark and renders the report.
func (e *Env) Shard() (string, *ShardReport, error) {
	rep, err := e.ShardReportRun()
	if err != nil {
		return "", nil, err
	}
	var sb strings.Builder
	sb.WriteString("## Sharded execution with cross-shard pruning\n\n")
	fmt.Fprintf(&sb, "%-8s %7s %6s %7s %12s %10s %10s %9s\n",
		"query", "workers", "shards", "pruning", "wall cycles", "zones", "rows", "profile")
	for _, r := range rep.Rows {
		zs := "-"
		if r.Shards > 0 {
			zs = fmt.Sprintf("%d/%d", r.PrunedZones, r.Zones)
		}
		status, prof := "identical", "invariant"
		if !r.RowsIdentical {
			status = "DIFFER"
		}
		if !r.ProfileInvariant {
			prof = "DRIFTED"
		}
		fmt.Fprintf(&sb, "%-8s %7d %6d %7v %12d %10s %10s %9s\n",
			r.Query, r.Workers, r.Shards, r.Pruning, r.WallCycles, zs, status, prof)
	}

	sb.WriteString("\npruning-selectivity sweep (selscan, workers=4, shards=4; zones pruned shrink as the prunable range grows):\n\n")
	fmt.Fprintf(&sb, "%8s %11s %12s %12s %8s\n", "cut", "result rows", "zones pruned", "wall cycles", "speedup")
	for _, s := range rep.Sweep {
		fmt.Fprintf(&sb, "%7.0f%% %11d %9d/%2d %12d %7.2fx\n",
			s.CutFrac*100, s.ResultRows, s.PrunedZones, s.Zones, s.WallCycles, s.Speedup)
	}

	sb.WriteString("\nscaling gates:\n")
	for _, g := range rep.Gates {
		verdict := "pass"
		if !g.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(&sb, "  %-8s vs %-20s %.2fx (requires >= %.1fx) %s\n",
			g.Query, g.Baseline, g.Speedup, g.Required, verdict)
	}
	return sb.String(), rep, nil
}
