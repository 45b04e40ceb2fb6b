package engine

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/pmu"
	"repro/internal/queries"
	"repro/internal/vm"
)

// TestParallelMatchesReference runs every suite query on 1, 2, 4, and 8
// workers and compares the rows against the interpreted reference
// executor: the morsel scheduler must be invisible in the results.
func TestParallelMatchesReference(t *testing.T) { parallelMatchesReference().run(t) }

func parallelMatchesReference() *lattice {
	return &lattice{src: testSource(suiteStmts()...), axes: []axis{workersAxis(1, 2, 4, 8)}}
}

// opWeights keys a profile's per-operator sample weights by component
// name, so profiles from separate compiles are comparable.
func opWeights(p *core.Profile) map[string]float64 {
	out := map[string]float64{}
	for id, w := range p.OpWeight {
		out[p.Registry.Name(id)] += w
	}
	return out
}

// TestParallelSampleDeterminism: for deterministic count events, the
// merged sample stream is independent of the worker count — the canonical
// profile (sample total, every per-operator, task and IR weight) is
// byte-identical across 1, 2, 4, and 8 workers. This is the payoff of
// arming the PMU per morsel with a seed derived from the global morsel
// index: sample positions are a function of the morsel, not of which core
// runs it.
func TestParallelSampleDeterminism(t *testing.T) {
	l := parallelSampleDeterminism()
	l.each = func(t *testing.T, r latticeRun) {
		if r.res.Profile == nil || r.res.Profile.TotalSamples == 0 {
			t.Fatalf("%s at %v: no samples at all", r.st.name, r.c)
		}
	}
	l.run(t)
}

func parallelSampleDeterminism() *lattice {
	return &lattice{src: testSource(suiteStmts()...), axes: []axis{workersAxis(1, 2, 4, 8), eventAxis(evInstRetired, evMemLoads)}}
}

// nearSerialPeriods are the sampling periods TestParallelProfileNearSerial
// pools: co-prime, so a short loop whose instruction count aliases with
// one of them cannot tilt the pooled shares. They are fixed here, never
// tuned to a change.
var nearSerialPeriods = []int64{487, 491, 499, 503, 997}

// TestParallelProfileNearSerial compares the merged parallel profile
// against the single-CPU run. The morsel scheduler re-executes each
// pipeline's prologue (column-base loads, bound checks) once per morsel,
// so instruction streams differ slightly; per-operator shares, pooled
// over nearSerialPeriods, must still agree within a few percent. fig9's
// and q3's merges must have merge-kernel samples to leave out. Every
// kernel call re-arms sampling, so a merge is sampled at a period only if
// one of its calls retires that many instructions
// (Result.MergePeakInstrs): q1's four groups and q6's one per morsel make
// calls shorter than every period, and are held to that rule instead.
func TestParallelProfileNearSerial(t *testing.T) {
	cat := testCatalog(t)
	for _, tc := range []struct {
		name         string
		mergeSampled bool
	}{{"fig9", true}, {"q1", false}, {"q3", true}, {"q6", false}} {
		w, ok := queries.ByName(tc.name)
		if !ok {
			t.Fatalf("no query %s", tc.name)
		}
		t.Run(tc.name, func(t *testing.T) {
			serial := New(cat, DefaultOptions())
			cq, err := serial.CompileQuery(w.Query)
			if err != nil {
				t.Fatal(err)
			}
			par := New(cat, knobs(4, 256, 0, false))
			pcq, err := par.CompileQuery(w.Query)
			if err != nil {
				t.Fatal(err)
			}
			ppar, err := pcq.Parallel()
			if err != nil {
				t.Fatal(err)
			}
			att := core.NewAttributor(ppar.Dict, ppar.Code.NMap)
			sOps, pOps := map[string]float64{}, map[string]float64{}
			var sTot, pTot float64
			merged, mergeSampled := 0, false
			for _, period := range nearSerialPeriods {
				cfg := &pmu.Config{Event: vm.EvInstRetired, Period: period, Format: pmu.FormatCallStack}
				sres, err := serial.RunIterations(cq, 1, cfg)
				if err != nil {
					t.Fatal(err)
				}
				pres, err := par.Run(pcq, cfg)
				if err != nil {
					t.Fatal(err)
				}
				// The scatter/merge/place kernels run only in parallel runs;
				// their (deliberate, profiled) samples would skew the shares
				// this test compares, so a sample taken in one of them, or in
				// a routine one of them called, is left out. Merge
				// attribution has its own tests.
				var kept []core.Sample
				for _, s := range pres.Samples {
					merge := false
					for _, ip := range append([]int{s.IP}, s.Stack...) {
						for _, cr := range att.Attribute(&core.Sample{IP: ip}).Credits {
							merge = merge || isMergeTask(pcq, cr.Task)
						}
					}
					if !merge {
						kept = append(kept, s)
					}
				}
				merged += len(pres.Samples) - len(kept)
				mergeSampled = mergeSampled || pres.MergePeakInstrs >= uint64(period)
				pprof := core.BuildProfile(att, kept)
				sw, pw := opWeights(sres.Profile), opWeights(pprof)
				st, pt := float64(sres.Profile.TotalSamples), float64(pprof.TotalSamples)
				t.Logf("period %d: %s", period, shareDiffs(sw, pw, st, pt))
				for op, w := range sw {
					sOps[op] += w
				}
				for op, w := range pw {
					pOps[op] += w
				}
				sTot, pTot = sTot+st, pTot+pt
			}
			if tc.mergeSampled && !mergeSampled {
				t.Fatal("no merge-kernel call retired a sampling period")
			}
			if (tc.mergeSampled || mergeSampled) && merged == 0 {
				t.Fatal("no merge-kernel samples to leave out")
			}
			if sTot == 0 || pTot == 0 {
				t.Fatal("no samples")
			}
			t.Logf("pooled: %s", shareDiffs(sOps, pOps, sTot, pTot))
			for op, sw := range sOps {
				sShare, pShare := sw/sTot, pOps[op]/pTot
				if math.Abs(sShare-pShare) > 0.10+5/sTot {
					t.Errorf("operator %q: serial share %.3f vs parallel %.3f", op, sShare, pShare)
				}
			}
		})
	}
}

// shareDiffs formats each serial operator's share against the parallel
// one, in operator-name order.
func shareDiffs(sOps, pOps map[string]float64, sTot, pTot float64) string {
	ops := make([]string, 0, len(sOps))
	for op := range sOps {
		ops = append(ops, op)
	}
	slices.Sort(ops)
	var b strings.Builder
	for _, op := range ops {
		fmt.Fprintf(&b, " %s %.3f/%.3f", op, sOps[op]/sTot, pOps[op]/pTot)
	}
	return b.String()
}

// TestParallelWorkerStamping: merged samples carry the recording core's ID
// (coordinator 0, workers 1..4), and the per-worker counts are the
// profile's per-worker breakdown.
func TestParallelWorkerStamping(t *testing.T) {
	_, res := runOnce(t, testCatalog(t), queries.Fig9().Query, knobs(4, 256, 0, false), &pmu.Config{Event: vm.EvInstRetired, Period: 487})
	counts := map[int]float64{}
	for _, s := range res.Samples {
		if s.Worker < 0 || s.Worker > 4 {
			t.Fatalf("sample stamped with unknown worker %d", s.Worker)
		}
		counts[s.Worker]++
	}
	if !maps.Equal(counts, res.Profile.ByWorker) {
		t.Fatalf("per-worker sample counts %v, profile's ByWorker %v", counts, res.Profile.ByWorker)
	}
	busy := 0
	for id, n := range counts {
		if id > 0 && n > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d workers recorded samples", busy)
	}
}

// TestParallelSpeedup: on a scan-heavy query, four simulated cores must
// finish in less than half the simulated wall-clock cycles of one.
func TestParallelSpeedup(t *testing.T) {
	var walls [2]uint64
	cat := testCatalog(t)
	for i, workers := range []int{1, 4} {
		w, _ := queries.ByName("q6")
		_, res := runOnce(t, cat, w.Query, knobs(workers, 256, 0, false), nil)
		if res.WallCycles == 0 {
			t.Fatal("no wall clock")
		}
		walls[i] = res.WallCycles
	}
	speedup := float64(walls[0]) / float64(walls[1])
	t.Logf("q6: 1 worker %d cycles, 4 workers %d cycles (%.2fx)", walls[0], walls[1], speedup)
	if speedup < 2.0 {
		t.Fatalf("speedup %.2fx < 2x", speedup)
	}
}

// TestParallelStatsAccount: the summed worker statistics must cover at
// least the serial run's work (morsel prologues add a little on top), and
// the wall clock of a parallel run must never exceed the total cycles
// spent (work conservation).
func TestParallelStatsAccount(t *testing.T) {
	cat := testCatalog(t)
	q3 := func() *plan.Query { w, _ := queries.ByName("q3"); return w.Query }
	_, sres := runOnce(t, cat, q3(), DefaultOptions(), nil)
	_, pres := runOnce(t, cat, q3(), knobs(4, 256, 0, false), nil)
	if pres.Stats.Instructions < sres.Stats.Instructions {
		t.Fatalf("parallel executed %d instructions, serial %d",
			pres.Stats.Instructions, sres.Stats.Instructions)
	}
	if pres.WallCycles > pres.Stats.TotalCycles() {
		t.Fatalf("wall %d cycles exceeds total work %d", pres.WallCycles, pres.Stats.TotalCycles())
	}
	if pres.WallCycles == 0 {
		t.Fatal("no wall clock")
	}
	// Sanity on the tuple counters path under the scheduler.
	if len(pres.Rows) == 0 {
		t.Fatal("no rows")
	}
}

// TestOneWorkerSchedulerCost closes ROADMAP item 2's question by
// measurement: what the morsel scheduler costs at one worker against the
// one-core path (Workers=0), in simulated wall cycles at sf 0.2 / seed 7
// under DefaultOptions. Scans and aggregates pay a few percent (per-morsel
// calls, scatter of a handful of groups); a join pays for scattering and
// merging its build side with nothing to merge against — past the item's
// own 15 % bar, which is why Workers=0 stays. The bounds sit a little above
// the measured ratios (q1 1.04, q6 1.02, intro 1.05, fig9 1.44) so drift
// in either direction of the decision is seen.
func TestOneWorkerSchedulerCost(t *testing.T) {
	cat := gateCatalog(t)
	for _, tc := range []struct {
		name  string
		bound float64
	}{{"q1", 1.10}, {"q6", 1.10}, {"intro", 1.10}, {"fig9", 1.60}} {
		w, ok := queries.ByName(tc.name)
		if !ok {
			t.Fatalf("no workload %s", tc.name)
		}
		wall := func(workers int) (uint64, uint64) {
			opts := DefaultOptions()
			opts.Workers = workers
			e := New(cat, opts)
			cq, err := e.CompileQuery(w.Query)
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Run(cq, nil)
			if err != nil {
				t.Fatal(err)
			}
			return res.WallCycles, res.MergeCycles
		}
		serial, _ := wall(0)
		one, merge := wall(1)
		ratio := float64(one) / float64(serial)
		t.Logf("%-6s one-core %9d  workers=1 %9d (merge %7d)  %.2fx", tc.name, serial, one, merge, ratio)
		if ratio > tc.bound {
			t.Errorf("%s: workers=1 costs %.2fx the one-core path, bound %.2fx", tc.name, ratio, tc.bound)
		}
	}
}
