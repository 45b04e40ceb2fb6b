package engine

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/codegen"
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

// sessionConfig is an execution shape a session can take.
type sessionConfig struct {
	name            string
	workers, shards int
	pruning         bool
}

var sessionConfigs = []sessionConfig{{"serial", 0, 0, false}, {"workers2", 2, 0, false}, {"workers2-shards2-pruning", 2, 2, true}}

func (sc sessionConfig) apply(se *Session) {
	se.SetWorkers(sc.workers)
	se.SetShards(sc.shards)
	se.SetShardPruning(sc.pruning)
}

// sessionAxis sets a cell to the shapes of sessionConfigs, Workers=2
// first: a session running its cells in turn then reslices machines grown
// to the full heap for its serial runs, and grows them again.
var sessionAxis = axis{"session", []int{1, 0, 2}, func(c *cell, i int) {
	sc := sessionConfigs[i]
	c.opts.Workers, c.opts.Shards, c.opts.ShardPruning = sc.workers, sc.shards, sc.pruning
}, true}

const dashFamily = "select id, sum(price) as rev, count(*) as n from sales where id between %d and %d group by id order by id"

// TestRecycledRunsMatchFresh: one long-lived session runs the SQL suite
// with a view-served statement after each suite statement — large heap,
// small heap, large heap — in every configuration in turn, unprofiled and
// sampled, so a one-core machine grows to the full heap and is resliced
// back; every result equals the one machines built for that run produce.
func TestRecycledRunsMatchFresh(t *testing.T) {
	sizes := map[string]map[int]bool{}
	l := recycledRunsMatchFresh()
	l.each = func(t *testing.T, r latticeRun) {
		if served := r.p.Rewrite != nil; served != strings.HasPrefix(r.st.name, "dash") {
			t.Fatalf("%s: served from a view = %v", r.st.sql, served)
		}
		want := r.p.Compiled.heapSize
		if r.c.serial() {
			want = r.p.Compiled.mergeBase
		}
		if len(r.res.CPU.Heap) != want {
			t.Fatalf("%s: the run's heap has %d bytes, want %d", r.st.sql, len(r.res.CPU.Heap), want)
		}
		if sizes[t.Name()] == nil {
			sizes[t.Name()] = map[int]bool{}
		}
		sizes[t.Name()][want] = true
		if n := len(r.se.exec.pool.free) + len(r.se.exec.pool.lent); n > 3 {
			t.Errorf("the session holds %d machines, its largest call used at most 3", n)
		}
	}
	l.run(t)
	for name, s := range sizes {
		if len(s) < 4 {
			t.Errorf("%s: the statements used %d heap sizes; the order interleaves nothing", name, len(s))
		}
	}
}

func recycledRunsMatchFresh() *lattice {
	src := testSource()
	src.opts.MorselRows, src.opts.TupleCounters = 0, true
	src.views = []string{"select id, sum(price), count(*) from sales group by id"}
	for i, w := range queries.SQLSuite() {
		src.stmts = append(src.stmts, stmt{name: w.Name, sql: w.SQL}, stmt{name: fmt.Sprint("dash", i), sql: fmt.Sprintf(dashFamily, 1+i, 9+2*i)})
	}
	return &lattice{src: src, axes: []axis{sessionAxis, eventAxis(evNone, evPGO), viewsAxis.at(1), recycledAxis.at(1)},
		name: func(_ stmt, c cell) string {
			i := slices.IndexFunc(sessionConfigs, func(sc sessionConfig) bool {
				return sc.workers == c.opts.Workers && sc.shards == c.opts.Shards && sc.pruning == c.opts.ShardPruning
			})
			return sessionConfigs[i].name + map[int]string{evNone: "/unprofiled", evPGO: "/cycles-regs-lbr"}[c.event]
		}}
}

// trapping returns p with the entry of its last pipeline's function
// replaced by a trap: a run does all the work before it and then fails.
// The copy builds its own parallel program, from the trapping code.
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
	cq.par = new(parallelProgram)
	return &Prepared{Compiled: &cq, State: p.State}
}

// oneEntryArenas returns cq with every hash-table arena cut to one entry:
// a run fails with a full arena at its first morsel's second insert.
func oneEntryArenas(cq *Compiled) *Compiled {
	small := *cq
	small.writes = slices.Clone(cq.writes)
	for _, ht := range cq.Layout.HT {
		for i := range small.writes {
			if small.writes[i].addr == ht.Desc+codegen.HTDescEnd {
				small.writes[i].val = ht.Arena + ht.EntrySize
			}
		}
	}
	return &small
}

// TestRecycledRunsSurviveFailures: a run that ends in a budget error, a
// trap, a full hash-table arena or a refused snapshot leaves its machines lent like any other; the
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
				p, err := se.Prepare(sql)
				if err != nil {
					t.Fatal(err)
				}
				res, err := runRecycled(se, p, cfg)
				if err != nil {
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

			_, err = se.Run(&Prepared{Compiled: oneEntryArenas(p.Compiled), State: p.State}, cfg)
			var full *RegionFullError
			if !errors.As(err, &full) || full.Region != "hash-table arena" {
				t.Fatalf("arenas of one entry: %v, want a full hash-table arena", err)
			}
			run(small, nil)

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
				p, err := se.Prepare(sql)
				if err != nil {
					t.Errorf("session %d: %s: %v", s, sql, err)
					return
				}
				if p.Rewrite == nil {
					if _, err := runRecycled(se, p, nil); err != nil {
						t.Errorf("session %d, statement %d (%s): %v", s, i, sql, err)
						return
					}
					continue
				}
				// The run may fall back to the base tables under this
				// snapshot, or not, as refreshes land; either way the base
				// statement's rows are the answer.
				res, err := se.Run(p, nil)
				if err == nil {
					p, err = svc.prepare(sql, false)
				}
				if err != nil {
					t.Errorf("session %d: %s: %v", s, sql, err)
					return
				}
				if want, err := runFresh(se, p, nil); err != nil || !reflect.DeepEqual(res.Rows, want.Rows) {
					t.Errorf("session %d: %s: rows differ from the base statement's under snapshot %d (%v)", s, sql, snap.Epoch, err)
					return
				}
			}
		}(s)
	}
	readers.Wait()
	close(tick)
	writer.Wait()
}
