package main

import (
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/pmu"
	"repro/internal/queries"
	"repro/internal/viz"
	"repro/internal/vm"
)

// profileSuite is the paper's §6 protocol, the developer-profiling path:
// for each plan of queries.Suite() one op compiles it cold, runs it
// unprofiled, runs it again under cycle sampling, and renders the
// plan-, IR-, operator- and timeline-level reports from the profile.
//
// Why: the simulated CPU (armed and unarmed step loop) and the PMU do
// nearly all of the work, the compiler a few percent, attribution and
// rendering less; the SQL front end and the service layers are bypassed
// entirely. An interpreter or sampling-hook optimisation must move this
// workload; an attribution or front-end change must not.
type profileSuite struct {
	cat   *catalog.Catalog
	eng   *engine.Engine
	suite []queries.Workload
	want  []uint64
}

// profileSF is a fifth of the paper-sized default of cmd/tprof: a round of
// 22 ops then takes about a second, which fits twenty rounds in a run.
const profileSF = 0.2

// sampling is the paper's default configuration: one sample per 5000
// cycles (0.7 MHz at 3.5 GHz), IP + timestamp + registers.
var sampling = pmu.Config{Event: vm.EvCycles, Period: 5000, Format: pmu.FormatIPTimeRegs}

const timelineBins = 60

func (w *profileSuite) setup(seed uint64, scale float64, st *setupTimes) (int, error) {
	t0 := time.Now()
	w.cat = datagen.Generate(datagen.Config{ScaleFactor: profileSF * scale, Seed: seed})
	st.datagen = time.Since(t0)
	w.eng = engine.New(w.cat, engine.DefaultOptions())
	w.suite = queries.Suite()
	w.want = make([]uint64, len(w.suite))

	// Verify round: both runs of every op must return the interpreter's rows.
	for i, q := range w.suite {
		t0 = time.Now()
		rows, ordered, err := oracleQuery(w.cat, q.Query)
		st.oracle += time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("oracle for %s: %w", q.Name, err)
		}
		o, base, armed, err := w.op(i, nil)
		if err != nil {
			return 0, err
		}
		if !sameRows(base, rows, ordered) || !sameRows(armed, rows, ordered) {
			return 0, fmt.Errorf("%s: compiled rows differ from internal/ref", q.Name)
		}
		w.want[i] = o.hash
	}
	return len(w.suite), nil
}

func (w *profileSuite) beginRound() error { return nil }

func (w *profileSuite) finish(*tracer) error { return nil }

func (w *profileSuite) do(i int, t *tracer) (outcome, error) {
	o, _, _, err := w.op(i, t)
	if err != nil {
		return o, err
	}
	o.failed = o.hash != w.want[i]
	return o, nil
}

// op runs op i and also hands back the rows of its two runs.
func (w *profileSuite) op(i int, t *tracer) (o outcome, base, armed [][]int64, err error) {
	q := w.suite[i]
	c := t.begin("engine.compile")
	cq, err := w.eng.CompileQuery(q.Query)
	t.end(c)
	if err != nil {
		return o, nil, nil, fmt.Errorf("compile %s: %w", q.Name, err)
	}
	r := t.begin("vm.run")
	res, err := w.eng.Run(cq, nil)
	t.end(r)
	if err != nil {
		return o, nil, nil, fmt.Errorf("run %s: %w", q.Name, err)
	}
	cfg := sampling
	a := t.begin("vm.run_armed")
	prof, err := w.eng.Run(cq, &cfg)
	t.end(a)
	if err != nil {
		return o, nil, nil, fmt.Errorf("profile %s: %w", q.Name, err)
	}
	p := prof.Profile
	s := t.begin("core.timeline")
	tl := p.BuildTimeline(timelineBins)
	t.end(s)
	s = t.begin("viz.reports")
	reports := viz.AnnotatedPlan(cq.Plan, cq.Pipe, p) + viz.OperatorTable(p) + viz.TimelineChart(tl, prof.CPU.FreqGHz)
	t.end(s)
	s = t.begin("viz.annotated_ir")
	irChars := 0
	for _, f := range cq.Pipe.Module.Funcs {
		irChars += len(viz.AnnotatedIR(f, cq.Pipe, p))
	}
	t.end(s)

	o.ran(res)
	o.ran(prof)
	ordered := len(cq.Plan.OrderBy) > 0
	o.hash = mix(hashRows(res.Rows, ordered), hashRows(prof.Rows, ordered))
	// The IR listing enters the digest by length only: its block headers
	// order operators of equal weight by map iteration, so the text is not
	// the same from run to run (README.md, "Known gaps").
	o.hash = mix(hashText(hashText(o.hash, p.Canonical()), reports), uint64(irChars))

	if t != nil {
		done := t.replay(c)
		s = t.begin("plan.plan")
		_, err = plan.Plan(w.cat, q.Query)
		t.end(s)
		done()
		if err != nil {
			return o, nil, nil, fmt.Errorf("replay plan %s: %w", q.Name, err)
		}
		if err = replayCompile(t, c, w.eng.Opts, cq, t.took(s)); err != nil {
			return o, nil, nil, fmt.Errorf("%s: %w", q.Name, err)
		}
		explainRun(t, r, nil, res)
		replayAttribute(t, a, r, cq, prof)
		t.add("vm.armed_instrs", float64(prof.Stats.Instructions))
		t.add("pmu.samples", float64(len(prof.Samples)))
		t.add("pmu.sample_cycles", float64(prof.Stats.SampleCycles))
		t.add("pmu.cycles", float64(prof.Stats.Cycles))
		countAttribution(t, p.Attribution(), p.TotalSamples)
	}
	return o, res.Rows, prof.Rows, nil
}
