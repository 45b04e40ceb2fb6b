package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/pmu"
	"repro/internal/queries"
	"repro/internal/ref"
	"repro/internal/vm"
)

// The streaming-ingest benchmark (BENCH_ingest.json, DESIGN.md §15):
// epoch-versioned storage must make ingest invisible to execution. Three
// claims are measured. (1) No-ingest tax: a catalog grown to N rows by
// streaming appends executes fig9-class workloads in *exactly* the same
// simulated cycles as a catalog bulk-loaded with the same N rows — the
// simulated stack is deterministic and compiled layouts are
// capacity-sized, so the tax is asserted at 0%, not "small". (2) Warm
// prepares under ingest: once a statement is compiled, appends between
// executions never cause a recompile, an eviction, or an invalidation —
// the warm hit rate is ≈100%. (3) Append throughput: batched columnar
// appends into reserved tail capacity, reported in rows/sec of host time
// (the one host-time figure; Normalize zeroes it for golden comparisons).

// ingestPeriod is the deterministic sampling period for the profile-
// invariance runs (same prime as the shard bench).
const ingestPeriod = 487

// IngestTaxRow compares one workload across the bulk-loaded and the
// incrementally-grown catalog at the same visible rows.
type IngestTaxRow struct {
	Query             string  `json:"query"`
	Workers           int     `json:"workers"`
	Shards            int     `json:"shards"`
	BulkCycles        uint64  `json:"bulk_cycles"`
	IncrementalCycles uint64  `json:"incremental_cycles"`
	TaxPct            float64 `json:"tax_pct"`
	RowsIdentical     bool    `json:"rows_identical"`
	// ProfileInvariant: the sampled profile's Canonical() bytes are equal
	// across the bulk and incremental catalogs.
	ProfileInvariant bool `json:"profile_invariant"`
}

// IngestWarm summarizes the warm-prepare phase: the SQL suite executed
// repeatedly on one service while append batches land between rounds.
type IngestWarm struct {
	Statements    int     `json:"statements"` // warm executions (after the cold round)
	Appends       int     `json:"appends"`    // append batches interleaved
	AppendedRows  int64   `json:"appended_rows"`
	Hits          uint64  `json:"hits"`
	Misses        uint64  `json:"misses"` // cold compiles only, if the contract holds
	Evictions     uint64  `json:"evictions"`
	Invalidations uint64  `json:"invalidations"`
	HitRate       float64 `json:"hit_rate"` // hits / warm statements
	FinalEpoch    uint64  `json:"final_epoch"`
}

// IngestThroughput reports batched append throughput. AppendRowsPerSec is
// the benchmark's single host-time measurement; Normalize zeroes it so
// golden tests can byte-compare the rest of the report.
type IngestThroughput struct {
	Batches          int     `json:"batches"`
	BatchRows        int     `json:"batch_rows"`
	Rows             int64   `json:"rows"`
	AppendRowsPerSec float64 `json:"append_rows_per_sec"`
}

// IngestGate restates one CI gate from the measured rows.
type IngestGate struct {
	Name       string  `json:"name"`
	Value      float64 `json:"value"`
	Required   string  `json:"required"`
	EnforcedBy string  `json:"enforced_by"`
	Pass       bool    `json:"pass"`
}

// IngestReport is the full benchmark output, serialized to
// BENCH_ingest.json.
type IngestReport struct {
	SF         float64          `json:"sf"`
	Seed       uint64           `json:"seed"`
	Tax        []IngestTaxRow   `json:"tax"`
	Warm       IngestWarm       `json:"warm"`
	Throughput IngestThroughput `json:"throughput"`
	Gates      []IngestGate     `json:"gates"`
	Pass       bool             `json:"pass"`
}

// JSON renders the report as stable, indented JSON.
func (r *IngestReport) JSON() ([]byte, error) { return reportJSON(r) }

// Normalize zeroes the host-time-dependent fields, leaving only the
// deterministic simulated measurements — the form the golden test pins.
func (r *IngestReport) Normalize() {
	r.Throughput.AppendRowsPerSec = 0
}

// incrementalCatalog regenerates the environment's dataset, truncates the
// streamed table to a prefix inside the full row count's capacity class,
// and grows it back to identical contents with batched appends. The
// capacity-class constraint makes the bulk and incremental catalogs
// freeze identical compiled layouts — the precondition for the 0% tax.
func (e *Env) incrementalCatalog(table string, batchRows int) (*catalog.Catalog, int, error) {
	incr := datagen.Generate(datagen.Config{ScaleFactor: e.SF, Seed: e.Seed})
	tbB, err := e.Cat.Table(table)
	if err != nil {
		return nil, 0, err
	}
	tbI, err := incr.Table(table)
	if err != nil {
		return nil, 0, err
	}
	n := tbB.Rows()
	tail := n / 6
	for tail > 0 && catalog.CapRowsFor(n-tail) != catalog.CapRowsFor(n) {
		tail /= 2
	}
	if tail == 0 {
		return nil, 0, fmt.Errorf("%s: no tail inside the capacity class of %d rows", table, n)
	}
	n0 := n - tail
	for _, c := range tbI.Cols {
		c.Data = c.Data[:n0]
	}
	batches := 0
	for lo := n0; lo < n; {
		hi := lo + batchRows
		if hi > n {
			hi = n
		}
		cols := make([][]int64, len(tbB.Cols))
		for i, c := range tbB.Cols {
			cols[i] = c.Data[lo:hi]
		}
		if _, err := incr.AppendCols(table, cols); err != nil {
			return nil, 0, err
		}
		batches++
		lo = hi
	}
	if tbI.Rows() != n {
		return nil, 0, fmt.Errorf("%s: incremental catalog has %d rows, want %d", table, tbI.Rows(), n)
	}
	return incr, batches, nil
}

// ingestRun executes one workload on one catalog, unsampled for cycles or
// sampled for the canonical profile.
func ingestRun(cat *catalog.Catalog, q *queries.Workload, workers, shards int, sample bool) (*engine.Result, error) {
	opts := engine.DefaultOptions()
	opts.Workers = workers
	opts.Shards = shards
	opts.ShardPruning = shards > 0
	opts.MorselRows = 256
	eng := engine.New(cat, opts)
	cq, err := eng.CompileQuery(q.Query)
	if err != nil {
		return nil, err
	}
	var cfg *pmu.Config
	if sample {
		cfg = &pmu.Config{Event: vm.EvInstRetired, Period: ingestPeriod}
	}
	return eng.Run(cq, cfg)
}

// IngestReportRun measures the ingest benchmark.
func (e *Env) IngestReportRun() (*IngestReport, error) {
	rep := &IngestReport{SF: e.SF, Seed: e.Seed, Pass: true}

	// Phase 1 — no-ingest tax on the fig9-class workloads. The streamed
	// table is lineitem (both workloads scan it).
	incr, _, err := e.incrementalCatalog("lineitem", 80)
	if err != nil {
		return nil, err
	}
	maxTax := 0.0
	for _, name := range []string{"q1", "fig9"} {
		w, ok := queries.ByName(name)
		if !ok {
			return nil, fmt.Errorf("no workload %s", name)
		}
		for _, c := range []struct{ workers, shards int }{{0, 0}, {4, 2}} {
			bulkRes, err := ingestRun(e.Cat, &w, c.workers, c.shards, false)
			if err != nil {
				return nil, fmt.Errorf("%s bulk: %w", name, err)
			}
			incrRes, err := ingestRun(incr, &w, c.workers, c.shards, false)
			if err != nil {
				return nil, fmt.Errorf("%s incremental: %w", name, err)
			}
			bulkProf, err := ingestRun(e.Cat, &w, c.workers, c.shards, true)
			if err != nil {
				return nil, fmt.Errorf("%s bulk sampled: %w", name, err)
			}
			incrProf, err := ingestRun(incr, &w, c.workers, c.shards, true)
			if err != nil {
				return nil, fmt.Errorf("%s incremental sampled: %w", name, err)
			}
			bulkCycles, incrCycles := bulkRes.WallCycles, incrRes.WallCycles
			if c.workers == 0 {
				bulkCycles, incrCycles = bulkRes.Stats.Cycles, incrRes.Stats.Cycles
			}
			tax := 0.0
			if bulkCycles > 0 {
				d := float64(incrCycles) - float64(bulkCycles)
				if d < 0 {
					d = -d
				}
				tax = round2(100 * d / float64(bulkCycles))
			}
			if tax > maxTax {
				maxTax = tax
			}
			row := IngestTaxRow{
				Query: name, Workers: c.workers, Shards: c.shards,
				BulkCycles: bulkCycles, IncrementalCycles: incrCycles, TaxPct: tax,
				RowsIdentical:    ref.SameRows(incrRes.Rows, bulkRes.Rows, true),
				ProfileInvariant: string(incrProf.Profile.Canonical()) == string(bulkProf.Profile.Canonical()),
			}
			if !row.RowsIdentical || !row.ProfileInvariant || tax != 0 {
				rep.Pass = false
			}
			rep.Tax = append(rep.Tax, row)
		}
	}

	// Phase 2 — warm prepares under ingest: the SQL suite runs cold once,
	// then warmRounds more times with an append batch landing before each
	// round. Every warm prepare must hit the artifact the cold round
	// compiled.
	const warmRounds, warmBatch = 6, 64
	suite := queries.SQLSuite()
	svc := engine.NewService(incr, engine.DefaultOptions(), 0)
	se := svc.NewSession()
	for _, w := range suite {
		if _, _, err := se.Execute(w.SQL, nil); err != nil {
			return nil, fmt.Errorf("cold %s: %w", w.Name, err)
		}
	}
	coldMisses := svc.CacheStats().Misses
	tbL, err := incr.Table("lineitem")
	if err != nil {
		return nil, err
	}
	var appended int64
	var lastEpoch uint64
	for round := 0; round < warmRounds; round++ {
		r, err := svc.AppendCols("lineitem", datagen.AppendBatch(tbL, warmBatch, uint64(round+1)))
		if err != nil {
			return nil, fmt.Errorf("round %d append: %w", round, err)
		}
		appended += r.Hi - r.Lo
		for _, w := range suite {
			p, res, err := se.Execute(w.SQL, nil)
			if err != nil {
				return nil, fmt.Errorf("warm %s: %w", w.Name, err)
			}
			if !p.CacheHit {
				rep.Pass = false
			}
			lastEpoch = res.Epoch
		}
	}
	cs := svc.CacheStats()
	warmStmts := warmRounds * len(suite)
	rep.Warm = IngestWarm{
		Statements: warmStmts, Appends: warmRounds, AppendedRows: appended,
		Hits: cs.Hits, Misses: cs.Misses,
		Evictions: cs.Evictions, Invalidations: cs.Invalidations,
		HitRate:    round2(float64(cs.Hits) / float64(warmStmts)),
		FinalEpoch: lastEpoch,
	}
	if cs.Misses != coldMisses || cs.Evictions != 0 || cs.Invalidations != 0 {
		rep.Pass = false
	}

	// Phase 3 — append throughput into reserved tail capacity, on a
	// scratch catalog so the measured appends never outgrow capacity.
	scratch := datagen.Generate(datagen.Config{ScaleFactor: e.SF, Seed: e.Seed})
	tbS, err := scratch.Table("sales")
	if err != nil {
		return nil, err
	}
	const tputBatch = 64
	batches := (tbS.RowCap() - tbS.Rows() - tputBatch) / tputBatch
	if batches < 1 {
		batches = 1
	}
	pre := make([][][]int64, batches)
	for i := range pre {
		pre[i] = datagen.AppendBatch(tbS, tputBatch, uint64(i+1))
	}
	t0 := time.Now()
	var rows int64
	for _, batch := range pre {
		r, err := scratch.AppendCols("sales", batch)
		if err != nil {
			return nil, fmt.Errorf("throughput append: %w", err)
		}
		rows += r.Hi - r.Lo
	}
	elapsed := time.Since(t0).Seconds()
	rep.Throughput = IngestThroughput{Batches: batches, BatchRows: tputBatch, Rows: rows}
	if elapsed > 0 {
		rep.Throughput.AppendRowsPerSec = round2(float64(rows) / elapsed)
	}

	// Gates.
	gate := func(name string, value float64, required string, pass bool) {
		rep.Gates = append(rep.Gates, IngestGate{
			Name: name, Value: value, Required: required,
			EnforcedBy: "TestIngestGolden / TestIngestBenchSchema (CI bench-smoke)",
			Pass:       pass,
		})
		if !pass {
			rep.Pass = false
		}
	}
	gate("no_ingest_tax_pct", maxTax, "== 0", maxTax == 0)
	gate("warm_hit_rate", rep.Warm.HitRate, ">= 1.0", rep.Warm.HitRate >= 1.0)
	gate("recompiles_under_ingest", float64(cs.Misses-coldMisses), "== 0", cs.Misses == coldMisses)
	gate("evictions_under_ingest", float64(cs.Evictions+cs.Invalidations), "== 0",
		cs.Evictions == 0 && cs.Invalidations == 0)
	return rep, nil
}

// Ingest runs the streaming-ingest benchmark and renders the report.
func (e *Env) Ingest() (string, *IngestReport, error) {
	rep, err := e.IngestReportRun()
	if err != nil {
		return "", nil, err
	}
	var sb strings.Builder
	sb.WriteString("## Streaming ingest under epoch-versioned storage\n\n")
	fmt.Fprintf(&sb, "%-6s %7s %6s %14s %14s %7s %10s %10s\n",
		"query", "workers", "shards", "bulk cycles", "incr cycles", "tax", "rows", "profile")
	for _, r := range rep.Tax {
		status, prof := "identical", "invariant"
		if !r.RowsIdentical {
			status = "DIFFER"
		}
		if !r.ProfileInvariant {
			prof = "DRIFTED"
		}
		fmt.Fprintf(&sb, "%-6s %7d %6d %14d %14d %6.2f%% %10s %10s\n",
			r.Query, r.Workers, r.Shards, r.BulkCycles, r.IncrementalCycles, r.TaxPct, status, prof)
	}
	w := rep.Warm
	fmt.Fprintf(&sb, "\nwarm prepares under ingest: %d statements across %d append batches (+%d rows, epoch %d):\n",
		w.Statements, w.Appends, w.AppendedRows, w.FinalEpoch)
	fmt.Fprintf(&sb, "  %d hits / %d misses (hit rate %.2f), %d evictions, %d invalidations\n",
		w.Hits, w.Misses, w.HitRate, w.Evictions, w.Invalidations)
	tp := rep.Throughput
	fmt.Fprintf(&sb, "\nappend throughput: %d rows in %d batches of %d",
		tp.Rows, tp.Batches, tp.BatchRows)
	if tp.AppendRowsPerSec > 0 {
		fmt.Fprintf(&sb, " — %.0f rows/sec (host time)", tp.AppendRowsPerSec)
	}
	sb.WriteString("\n\ngates:\n")
	for _, g := range rep.Gates {
		verdict := "pass"
		if !g.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(&sb, "  %-26s %10.2f (requires %s) %s\n", g.Name, g.Value, g.Required, verdict)
	}
	return sb.String(), rep, nil
}
