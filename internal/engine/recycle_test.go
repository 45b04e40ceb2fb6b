package engine

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/isa"
	"repro/internal/mview"
	"repro/internal/pmu"
	"repro/internal/queries"
	"repro/internal/vm"
	"repro/internal/xrand"
)

// A session recycles its simulated machines; an Engine or a bare executor
// builds one per run. These tests hold the first to the second: whatever a
// machine ran before, a run on it is the run a new machine would have made.

// sessionConfigs are the execution shapes a session can take.
var sessionConfigs = []struct {
	name  string
	apply func(*Session)
}{
	{"serial", func(*Session) {}},
	{"workers2", func(se *Session) { se.SetWorkers(2) }},
	{"workers2-shards2-pruning", func(se *Session) { se.SetWorkers(2); se.SetShards(2); se.SetShardPruning(true) }},
}

// pgoSampling is the PGO sampling (cycles, timestamps and registers) at a
// shorter period.
func pgoSampling() *pmu.Config {
	c := DefaultAdaptSampling()
	c.Period = 1500
	return &c
}

// freshRun executes a prepared statement the way Engine.Run does — on
// machines built for this run alone, with the session's run options — bound
// to snap (nil: the catalog's current epoch).
func freshRun(se *Session, p *Prepared, snap *catalog.Snapshot, cfg *pmu.Config) (*Result, error) {
	rs := &RunState{Snap: snap}
	if p.State != nil {
		rs.Params = p.State.Params
	}
	return (&executor{Opts: se.exec.Opts}).run(p.Compiled, rs, 1, cfg)
}

// matchesFresh reports the first difference between a session's result and
// the fresh run of the same statement: rows, statistics, both clocks,
// samples, canonical profile, tuple counts and every byte of the heap.
func matchesFresh(got *Result, se *Session, p *Prepared, snap *catalog.Snapshot, cfg *pmu.Config) error {
	want, err := freshRun(se, p, snap, cfg)
	switch {
	case err != nil:
		return fmt.Errorf("fresh run: %w", err)
	case !reflect.DeepEqual(got.Rows, want.Rows):
		return fmt.Errorf("rows differ (%d vs %d)", len(got.Rows), len(want.Rows))
	case got.Stats != want.Stats:
		return fmt.Errorf("stats differ:\n got %+v\nwant %+v", got.Stats, want.Stats)
	case got.WallCycles != want.WallCycles || got.MergeCycles != want.MergeCycles:
		return fmt.Errorf("clocks differ: wall %d vs %d, merge %d vs %d", got.WallCycles, want.WallCycles, got.MergeCycles, want.MergeCycles)
	case !reflect.DeepEqual(got.Samples, want.Samples):
		return fmt.Errorf("sample streams differ (%d vs %d samples)", len(got.Samples), len(want.Samples))
	case (got.Profile == nil) != (want.Profile == nil):
		return errors.New("one run has a profile, the other has none")
	case got.Profile != nil && !bytes.Equal(got.Profile.Canonical(), want.Profile.Canonical()):
		return errors.New("canonical profiles differ")
	case !reflect.DeepEqual(got.TupleCounts, want.TupleCounts):
		return fmt.Errorf("tuple counts differ:\n got %v\nwant %v", got.TupleCounts, want.TupleCounts)
	case got.CPU == want.CPU:
		return errors.New("the two results share a machine")
	case !bytes.Equal(got.CPU.Heap, want.CPU.Heap):
		return fmt.Errorf("heaps differ (%d vs %d bytes)", len(got.CPU.Heap), len(want.CPU.Heap))
	}
	return nil
}

const dashFamily = "select id, sum(price) as rev, count(*) as n from sales where id between %d and %d group by id order by id"

// TestRecycledRunsMatchFresh: one long-lived session per configuration
// runs the SQL suite with a view-served statement after each suite
// statement — large heap, small heap, large heap — unprofiled and sampled,
// and every result equals the one machines built for that run produce. A
// one-core run's heap ends at the merge base; one more session alternates
// serial and Workers=2 runs, so a one-core machine grows to the full heap
// and is resliced back.
func TestRecycledRunsMatchFresh(t *testing.T) {
	opts := DefaultOptions()
	opts.TupleCounters = true
	svc := NewService(testCatalog(t), opts, 0)
	if _, err := svc.CreateView("rev_by_prod", "select id, sum(price), count(*) from sales group by id", mview.RefreshIncremental); err != nil {
		t.Fatal(err)
	}
	var stmts []string
	for i, w := range queries.SQLSuite() {
		stmts = append(stmts, w.SQL, fmt.Sprintf(dashFamily, 1+i, 9+2*i))
	}
	type shape struct {
		name  string
		apply func(se *Session, stmt int)
	}
	shapes := []shape{{"serial-workers2-serial", func(se *Session, i int) { se.SetWorkers(2 * (i / 2 % 2)) }}}
	for _, sc := range sessionConfigs {
		shapes = append(shapes, shape{sc.name, func(se *Session, i int) {
			if i == 0 {
				sc.apply(se)
			}
		}})
	}
	for _, sc := range shapes {
		for _, cfg := range []*pmu.Config{nil, pgoSampling()} {
			name := sc.name + "/unprofiled"
			if cfg != nil {
				name = sc.name + "/cycles-regs-lbr"
			}
			t.Run(name, func(t *testing.T) {
				se := svc.NewSession()
				sizes := map[int]bool{}
				for i, sql := range stmts {
					sc.apply(se, i)
					p, res, err := se.Execute(sql, cfg)
					if err != nil {
						t.Fatalf("%s: %v", sql, err)
					}
					if served := p.Rewrite != nil; served != (i%2 == 1) {
						t.Fatalf("%s: served from a view = %v", sql, served)
					}
					if err := matchesFresh(res, se, p, nil, cfg); err != nil {
						t.Fatalf("statement %d (%s): %v", i, sql, err)
					}
					want := p.Compiled.heapSize
					if se.exec.Opts.Workers == 0 && se.exec.Opts.Shards < 1 {
						want = p.Compiled.mergeBase
					}
					if len(res.CPU.Heap) != want {
						t.Fatalf("statement %d (%s): the run's heap has %d bytes, want %d", i, sql, len(res.CPU.Heap), want)
					}
					sizes[len(res.CPU.Heap)] = true
				}
				if len(sizes) < 4 {
					t.Errorf("the statements used %d heap sizes; the order interleaves nothing", len(sizes))
				}
				if n := len(se.exec.pool.free) + len(se.exec.pool.lent); n > 3 {
					t.Errorf("the session holds %d machines, its largest call used at most 3", n)
				}
			})
		}
	}
}

// trapping returns p with the entry of its last pipeline's function
// replaced by a trap: a run does all the work before it and then fails.
func trapping(t *testing.T, p *Prepared) *Prepared {
	t.Helper()
	cq := *p.Compiled
	pipes := cq.Pipe.Pipelines
	entry, err := funcEntry(cq.Code.Program, pipes[len(pipes)-1].Func)
	if err != nil {
		t.Fatal(err)
	}
	prog := *cq.Code.Program
	prog.Code = append([]isa.Instr(nil), prog.Code...)
	prog.Code[entry] = isa.Instr{Op: isa.TRAP, Imm: 77}
	code := *cq.Code
	code.Program = &prog
	cq.Code = &code
	return &Prepared{Compiled: &cq, State: p.State}
}

// TestRecycledRunsSurviveFailures: a run that ends in a budget error, a
// trap or a refused snapshot leaves its machines lent like any other; the
// session's next run is still the run a new machine makes, and what earlier
// results carry — rows, samples, profile — is untouched by all later calls.
func TestRecycledRunsSurviveFailures(t *testing.T) {
	const big = "select a, b, sum(v) as s, count(*) as n from m group by a, b order by a, b"
	const small = "select count(*) from m where a < 3"
	for _, sc := range sessionConfigs[:2] {
		t.Run(sc.name, func(t *testing.T) {
			cat := mviewCatalog(xrand.New(0x5e55), 1500)
			svc := NewService(cat, DefaultOptions(), 0)
			se := svc.NewSession()
			sc.apply(se)
			cfg := pgoSampling()
			run := func(sql string, cfg *pmu.Config) *Result {
				t.Helper()
				p, res, err := se.Execute(sql, cfg)
				if err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
				if err := matchesFresh(res, se, p, nil, cfg); err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
				return res
			}

			first := run(big, cfg)
			carried := func() string {
				return fmt.Sprint(first.Rows, first.Samples, first.Profile.Canonical())
			}
			before := carried()

			se.exec.Opts.MaxInstructions = 300
			_, _, err := se.Execute(big, cfg)
			var budget *vm.BudgetError
			if !errors.As(err, &budget) {
				t.Fatalf("under a budget of 300 instructions: %v, want a *vm.BudgetError", err)
			}
			se.exec.Opts.MaxInstructions = 0
			run(small, nil)

			p, err := se.Prepare(big)
			if err != nil {
				t.Fatal(err)
			}
			_, err = se.Run(trapping(t, p), cfg)
			var trap *vm.TrapError
			if !errors.As(err, &trap) {
				t.Fatalf("trapping artifact: %v, want a *vm.TrapError", err)
			}
			run(big, cfg)

			// p was compiled for m's capacity; push m past it.
			tb, err := cat.Table("m")
			if err != nil {
				t.Fatal(err)
			}
			var grow [][]int64
			for i := tb.Rows(); i <= tb.RowCap(); i++ {
				grow = append(grow, []int64{int64(i % 8), int64(i % 16), 1})
			}
			if _, err := svc.Append("m", grow); err != nil {
				t.Fatal(err)
			}
			_, err = se.Run(p, nil)
			var refused *SnapshotCapacityError
			if !errors.As(err, &refused) {
				t.Fatalf("stale artifact over the grown table: %v, want a *SnapshotCapacityError", err)
			}
			run(big, cfg)
			run(small, nil)

			if len(first.Samples) == 0 || carried() != before {
				t.Errorf("later calls of the session changed what its first result carries (%d samples)", len(first.Samples))
			}
		})
	}
}

// TestRecycledRunsConcurrentSessions: eight sessions, serial and parallel,
// run 200 statements each on one Service while a writer appends to both
// tables; every run is pinned to a snapshot and must equal, byte for byte,
// a run on new machines under the same snapshot. The package's -race job
// runs this: sessions share artifacts and catalog, never machines.
func TestRecycledRunsConcurrentSessions(t *testing.T) {
	const sessions, perSession = 8, 200
	cat := datagen.Generate(datagen.Config{ScaleFactor: 0.01, Seed: 11})
	svc := NewService(cat, DefaultOptions(), 0)
	if _, err := svc.CreateView("rev_by_prod", "select id, sum(price), count(*) from sales group by id", mview.RefreshIncremental); err != nil {
		t.Fatal(err)
	}
	stmt := func(r *xrand.Rand) string {
		switch r.Intn(3) {
		case 0:
			lo := r.Int64Range(1, 30)
			return fmt.Sprintf(dashFamily, lo, lo+r.Int64Range(3, 20))
		case 1:
			return fmt.Sprintf("select o_custkey, sum(o_totalprice) as t from orders where o_orderkey >= %d group by o_custkey order by o_custkey", r.Int64Range(1, 40))
		}
		return fmt.Sprintf("select count(*), sum(price) from sales where price < %d", r.Int64Range(10, 5000))
	}

	// The writer appends one batch each time a session has got ten
	// statements further, so the appends fall across the whole run.
	tick := make(chan struct{}, 1)
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		i := 0
		for range tick {
			name := []string{"sales", "orders"}[i%2]
			tb, err := cat.Table(name)
			if err == nil {
				_, err = svc.AppendCols(name, datagen.AppendBatch(tb, 16, uint64(i+1)))
			}
			if err != nil {
				t.Errorf("append %d: %v", i, err)
			}
			i++
		}
	}()

	var readers sync.WaitGroup
	for s := 0; s < sessions; s++ {
		readers.Add(1)
		go func(s int) {
			defer readers.Done()
			se := svc.NewSession()
			sessionConfigs[s%len(sessionConfigs)].apply(se)
			r := xrand.New(uint64(s) + 0xc0c0)
			for i := 0; i < perSession; i++ {
				if i%10 == 0 {
					select {
					case tick <- struct{}{}:
					default: // the writer is still on the last one
					}
				}
				sql := stmt(r)
				snap := se.PinSnapshot()
				p, res, err := se.Execute(sql, nil)
				if err != nil {
					t.Errorf("session %d: %s: %v", s, sql, err)
					return
				}
				if p.Rewrite != nil {
					// The run may have fallen back to the base tables under
					// this snapshot; either way the base statement's rows are
					// the answer.
					if p, err = svc.prepare(sql, false); err != nil {
						t.Errorf("session %d: %s: %v", s, sql, err)
						return
					}
					if want, err := freshRun(se, p, snap, nil); err != nil || !reflect.DeepEqual(res.Rows, want.Rows) {
						t.Errorf("session %d: %s: rows differ from the base statement's under the same snapshot (%v)", s, sql, err)
						return
					}
					continue
				}
				if err := matchesFresh(res, se, p, snap, nil); err != nil {
					t.Errorf("session %d, statement %d (%s): %v", s, i, sql, err)
					return
				}
			}
		}(s)
	}
	readers.Wait()
	close(tick)
	writer.Wait()
}
