package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/vm"
)

// A workload is a fixed list of ops derived from a seed, replayed for as
// many identical rounds as the run has time for, by one goroutine: a closed
// loop with a single client, so nothing ever queues.
type workload interface {
	// setup builds everything from the seed — data, services, recorded
	// logs — then runs every op once against the independent oracle
	// (the verify round, which is also the warm-up). It returns the
	// number of ops in a round. It is called several times in a run; each
	// call starts from nothing.
	setup(seed uint64, scale float64, st *setupTimes) (ops int, err error)
	// beginRound resets, untimed, whatever state a round mutates.
	beginRound() error
	// do runs op i. A returned error aborts the run (the benchmark itself
	// is broken); an op the system under test failed is an outcome.
	do(i int, t *tracer) (outcome, error)
	// finish runs once after the last traced round, for measurements
	// that sit outside the op list.
	finish(t *tracer) error
}

// setupTimes are the parts of set-up the traced pass reports on their own.
type setupTimes struct {
	datagen time.Duration
	oracle  time.Duration
}

type options struct {
	seed    uint64
	scale   float64
	seconds float64
	rounds  int // > 0: smoke test — one set-up, exactly this many measured rounds
	trace   bool
	outDir  string
}

const (
	setupRuns = 3    // set-ups per untraced run; setup_s is their median
	minRounds = 3    // measured rounds, however slow the machine
	maxRounds = 4000 // keeps the pooled latency sample bounded on tiny scales
)

// round is everything measured over one pass through the op list.
type round struct {
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	lat     []float64 // per op, ns
	sig     signature
	why     error // of the round's first failed op
}

// signature is what must repeat exactly, round after round and between the
// traced and untraced passes: the simulated clock, the simulated machine's
// counters, cache traffic, failures and every op's output digest.
type signature struct {
	cycles uint64
	vm     vm.Stats
	hits   int
	misses int
	failed int
	hash   uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func runRound(w workload, ops int, t *tracer) (round, error) {
	r := round{lat: make([]float64, ops)}
	if err := w.beginRound(); err != nil {
		return r, err
	}
	// Every round starts from a collected heap, so one round's garbage is
	// not charged to the next.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	r.sig.hash = fnvOffset
	for i := 0; i < ops; i++ {
		s := time.Now()
		root := t.beginOp(i)
		o, err := w.do(i, t)
		t.end(root)
		r.lat[i] = float64(time.Since(s))
		if err != nil {
			return r, fmt.Errorf("op %d: %w", i, err)
		}
		r.sig.cycles += o.cycles
		addStats(&r.sig.vm, &o.vm)
		r.sig.hits += o.hits
		r.sig.misses += o.misses
		if o.failed {
			r.sig.failed++
			if r.why == nil {
				r.why = fmt.Errorf("op %d: %w", i, o.why)
			}
		}
		r.sig.hash = mix(r.sig.hash, o.hash)
	}
	r.cpu = cpuTime() - c0
	runtime.ReadMemStats(&m1)
	r.mallocs, r.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	if t != nil {
		t.foldRound()
	}
	return r, nil
}

// run measures one workload and returns the result line.
func run(name string, w workload, o options) (*result, error) {
	res := &result{Metrics: map[string]metric{}}
	var st setupTimes
	var setups []float64
	var ops int
	n := setupRuns
	if o.trace || o.rounds > 0 {
		n = 1 // setup_s is not reported, or not meant to be believed
	}
	for i := 0; i < n; i++ {
		st = setupTimes{}
		t0 := time.Now()
		var err error
		if ops, err = w.setup(o.seed, o.scale, &st); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	// The traced pass spends the first part of its time on untraced
	// rounds: they give the op medians that coverage and tracing overhead
	// are measured against, and the signature the traced rounds must match.
	budget := time.Duration(o.seconds * float64(time.Second))
	plainBudget := budget
	if o.trace {
		plainBudget = budget * 2 / 5
	}
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	start := time.Now()
	rounds, err := repeat(w, ops, nil, o.rounds, minRounds, plainBudget, nil)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&gc1)
	sig := rounds[0].sig
	res.Attempted = ops * len(rounds)
	res.Failed = sig.failed * len(rounds)
	res.Correct = sig.failed == 0
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d ops fail in every round; first, %v\n", name, sig.failed, ops, rounds[0].why)
	}
	if !o.trace {
		endToEnd(res, ops, rounds, setups)
		return res, nil
	}

	t := newTracer()
	traced, err := repeat(w, ops, t, o.rounds, 1, budget-time.Since(start), &sig)
	if err != nil {
		return nil, err
	}
	if err := w.finish(t); err != nil {
		return nil, err
	}
	res.Attempted += ops * len(traced)
	res.Failed += sig.failed * len(traced)
	if err := t.writeSpans(o.outDir, name); err != nil {
		return nil, err
	}
	perLayer(res, t, layerInputs{
		ops: ops, sig: sig, st: st, rounds: rounds,
		gcCycles: float64(gc1.NumGC - gc0.NumGC), gcPause: float64(gc1.PauseTotalNs - gc0.PauseTotalNs),
	})
	return res, nil
}

// repeat runs rounds until the budget is spent (at least atLeast of them),
// or exactly fixed rounds when fixed > 0. Every round must carry the same
// signature — want's, or the first round's — or the run aborts: a
// benchmark whose rounds differ is measuring something else each time.
func repeat(w workload, ops int, t *tracer, fixed, atLeast int, budget time.Duration, want *signature) ([]round, error) {
	start := time.Now()
	var rounds []round
	for len(rounds) < maxRounds {
		if fixed > 0 && len(rounds) == fixed {
			break
		}
		if fixed == 0 && len(rounds) >= atLeast && time.Since(start) >= budget {
			break
		}
		r, err := runRound(w, ops, t)
		if err != nil {
			return nil, err
		}
		if want == nil {
			want = &r.sig
		}
		if r.sig != *want {
			return nil, fmt.Errorf("round %d (traced: %v) does not repeat the rounds before it:\n  %+v\n  %+v", len(rounds), t != nil, r.sig, *want)
		}
		rounds = append(rounds, r)
	}
	return rounds, nil
}

// endToEnd fills in the metrics a user of the system would see.
//
// Every round replays the same ops, so the rounds are repeated measurements
// of one quantity, and the question is which of them to believe. This
// benchmark runs on shared machines, where other tenants only ever add
// time, in epochs from under a second to minutes. A mean over wall time
// carries every epoch; a median over rounds still moves with how much of
// the run the epochs covered; the low decile sits in the undisturbed
// repeats as long as a tenth of them were (README.md, "Noise", has the
// measurements that chose it). So every host timing is the fast decile
// over its repeats: an op's latency over the rounds it ran in, a round's
// CPU time over the rounds, set-up over the set-ups. Throughput is the op
// list over the sum of those op latencies — the undisturbed loop — and the
// latency percentiles are taken over the op list. Allocation counts barely
// move and stay medians.
func endToEnd(res *result, ops int, rounds []round, setups []float64) {
	n := float64(ops)
	var cpu, mallocs, bytes []float64
	for _, r := range rounds {
		cpu = append(cpu, float64(r.cpu)/1e6/n)
		mallocs = append(mallocs, float64(r.mallocs)/n)
		bytes = append(bytes, float64(r.bytes)/1e6/n)
	}
	lat := perOp(rounds, fastDecile)
	sort.Float64s(lat)
	res.set("setup_s", fastDecile(setups))
	res.set("ops_per_s", n/(sum(lat)/1e9))
	res.set("op_ms_p50", percentile(lat, 0.50)/1e6)
	res.set("op_ms_p95", percentile(lat, 0.95)/1e6)
	res.set("cpu_ms_per_op", fastDecile(cpu))
	res.set("allocs_per_op", median(mallocs))
	res.set("alloc_mb_per_op", median(bytes))
	res.set("sim_cycles_per_op", float64(rounds[0].sig.cycles)/n)
	res.set("ok_share", 1-float64(res.Failed)/float64(res.Attempted))
}

// perOp reduces each op's latencies across the rounds to one number.
func perOp(rounds []round, reduce func([]float64) float64) []float64 {
	rows := make([][]float64, len(rounds))
	for i, r := range rounds {
		rows[i] = r.lat
	}
	return columns(rows, reduce)
}

// columns reduces each column of a (repeat × op) matrix to one number.
func columns(rows [][]float64, reduce func([]float64) float64) []float64 {
	out := make([]float64, len(rows[0]))
	col := make([]float64, len(rows))
	for i := range out {
		for j, r := range rows {
			col[j] = r[i]
		}
		out[i] = reduce(col)
	}
	return out
}

func median(v []float64) float64     { return quantile(v, 0.5) }
func fastDecile(v []float64) float64 { return quantile(v, 0.1) }

func quantile(v []float64, p float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, p)
}

// percentile interpolates linearly in a sorted sample; 0 when empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	x := p * float64(len(sorted)-1)
	i := int(x)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (x-float64(i))*(sorted[i+1]-sorted[i])
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}
