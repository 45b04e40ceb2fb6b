package engine

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pmu"
	"repro/internal/queries"
	"repro/internal/vm"
)

// TestIterativeDataflowDetection runs the same query three times in one
// profiled session and checks that (a) results stay correct, (b) the TSC
// runs continuously, and (c) DetectIterations splits the operator's
// activity into exactly three intervals via sample timestamps (§4.2.6).
func TestIterativeDataflowDetection(t *testing.T) {
	cat := testCatalog(t)
	e := New(cat, DefaultOptions())
	// fig9: the group-by is idle during each iteration's build pipeline
	// (orders scan + filter + build), giving a clear between-iteration
	// pause in its activity.
	w := queries.Fig9()
	cq, err := e.CompileQuery(w.Query)
	if err != nil {
		t.Fatal(err)
	}

	single, err := e.Run(cq, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunIterations(cq, 3, &pmu.Config{
		Event: vm.EvCycles, Period: 499, Format: pmu.FormatIPTimeRegs,
	})
	if err != nil {
		t.Fatal(err)
	}
	rowsEqual(t, res.Rows, single.Rows, false)

	// Roughly 3× the single-run work.
	if res.Stats.Cycles < 2*single.Stats.Cycles {
		t.Fatalf("iterated cycles %d not ≈ 3× single %d", res.Stats.Cycles, single.Stats.Cycles)
	}

	// The lineitem scan is active contiguously through each iteration's
	// probe pipeline and idle otherwise — a clean per-iteration burst.
	// (The group-by would show *two* bursts per iteration: aggregation
	// during the probe phase and the group scan at the end.)
	var gbID core.ComponentID
	for _, op := range res.Profile.Registry.ByLevel(core.LevelOperator) {
		if op.Name == "tablescan lineitem" {
			gbID = op.ID
		}
	}
	if gbID == core.NoComponent {
		t.Fatal("lineitem scan operator missing")
	}
	// The analyst picks the split threshold from the timestamps; the
	// test scans a geometric grid (10% steps — periodic sampling can
	// leave resonance gaps inside a burst that narrow the window where
	// exactly three intervals survive) and requires that some threshold
	// recovers exactly the three iterations.
	found := false
	for gap := uint64(1000); gap < res.Stats.TotalCycles(); gap += 1 + gap/10 {
		iters := res.Profile.DetectIterations(gbID, gap)
		if len(iters) == 3 {
			found = true
			for i := 1; i < len(iters); i++ {
				if iters[i].From <= iters[i-1].To {
					t.Fatalf("iterations overlap: %+v", iters)
				}
			}
			break
		}
	}
	if !found {
		t.Fatal("no gap threshold recovers the 3 iterations")
	}
	// And the extremes behave: a huge gap merges everything into one.
	if n := len(res.Profile.DetectIterations(gbID, res.Stats.TotalCycles()*2)); n != 1 {
		t.Fatalf("huge gap produced %d intervals", n)
	}
}

// TestRunIterationsCountersReset: tuple counters must reflect the last
// iteration only (they are re-staged between passes).
func TestRunIterationsCountersReset(t *testing.T) {
	cat := testCatalog(t)
	opts := DefaultOptions()
	opts.TupleCounters = true
	cq, one := runOnce(t, cat, queries.Fig9().Query, opts, nil)
	three, err := New(cat, opts).RunIterations(cq, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for id, n := range one.TupleCounts {
		if three.TupleCounts[id] != n {
			t.Fatalf("counter %d = %d after 3 iterations, want %d", id, three.TupleCounts[id], n)
		}
	}
}

// TestRunIterationsRefusesParallel: n > 1 iterations exist only on the
// one-core path — iteration detection needs one continuous PMU buffer.
// Under Workers >= 1 or an effective shard count >= 1, n > 1 is an error,
// and n == 1 is Run: the same path, workers and wall clock.
func TestRunIterationsRefusesParallel(t *testing.T) {
	cat := testCatalog(t)
	for _, tc := range []struct {
		name            string
		workers, shards int
		refused         bool
	}{
		{"one-core", 0, 0, false},
		{"workers", 2, 0, true},
		{"shards", 0, 2, true},
	} {
		opts := DefaultOptions()
		opts.Workers, opts.Shards = tc.workers, tc.shards
		e := New(cat, opts)
		cq, err := e.CompileQuery(queries.Fig9().Query)
		if err != nil {
			t.Fatal(err)
		}
		one, err := e.RunIterations(cq, 1, nil)
		if err != nil {
			t.Fatalf("%s: n=1: %v", tc.name, err)
		}
		run, err := e.Run(cq, nil)
		if err != nil {
			t.Fatal(err)
		}
		if one.Workers != run.Workers || one.Shards != run.Shards || one.WallCycles != run.WallCycles {
			t.Fatalf("%s: n=1 ran Workers=%d Shards=%d in %d wall cycles, Run Workers=%d Shards=%d in %d",
				tc.name, one.Workers, one.Shards, one.WallCycles, run.Workers, run.Shards, run.WallCycles)
		}
		res, err := e.RunIterations(cq, 3, nil)
		switch {
		case tc.refused && err == nil:
			t.Fatalf("%s: n=3 ran silently with Result.Workers=%d", tc.name, res.Workers)
		case tc.refused && !strings.Contains(err.Error(), "one-core path"):
			t.Fatalf("%s: n=3: error %q does not name the one-core path", tc.name, err)
		case !tc.refused && err != nil:
			t.Fatalf("%s: n=3: %v", tc.name, err)
		}
	}
}
