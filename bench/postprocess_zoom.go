package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/pmu"
	"repro/internal/queries"
	"repro/internal/viz"
	"repro/internal/vm"
)

// postprocessZoom is Fig. 4 steps 3–4, the offline path of cmd/tpostproc,
// with no VM and no compiler in the timed part: set-up records every suite
// query once at dense sampling into an in-memory meta-data file and sample
// log; one op reads both back, attributes the samples, renders the
// operator/task/timeline/attribution reports and then drills down into
// eight overlapping quarter-range time windows, rebuilding a profile for
// each.
//
// Why: it is the only workload where internal/core (deserialise,
// attribute, zoom) and internal/viz dominate. It uses core offline and
// repeatedly where profile_suite uses it once inline, so an attribution
// table that is faster to query but slower to build shows up as a loss
// here. No simulated cycle is spent; sim_cycles_per_op is the length, on
// the simulated clock, of the recorded run the op post-processes, which is
// fixed at recording time.
type postprocessZoom struct {
	logs []recordedLog
	want []uint64
}

type recordedLog struct {
	name      string
	meta, log []byte
	cycles    uint64
}

const (
	zoomSF      = 0.2
	densePeriod = 500 // ten times the paper's default rate
	zoomWindows = 8
)

func (w *postprocessZoom) setup(seed uint64, scale float64, st *setupTimes) (int, error) {
	t0 := time.Now()
	cat := datagen.Generate(datagen.Config{ScaleFactor: zoomSF * scale, Seed: seed})
	st.datagen = time.Since(t0)
	eng := engine.New(cat, engine.DefaultOptions())
	suite := queries.Suite()
	w.logs = make([]recordedLog, len(suite))
	w.want = make([]uint64, len(suite))
	for i, q := range suite {
		cq, err := eng.CompileQuery(q.Query)
		if err != nil {
			return 0, fmt.Errorf("compile %s: %w", q.Name, err)
		}
		res, err := eng.Run(cq, &pmu.Config{Event: vm.EvCycles, Period: densePeriod, Format: pmu.FormatIPTimeRegs})
		if err != nil {
			return 0, fmt.Errorf("record %s: %w", q.Name, err)
		}
		t0 = time.Now()
		rows, ordered, err := oracleQuery(cat, q.Query)
		st.oracle += time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("oracle for %s: %w", q.Name, err)
		}
		if !sameRows(res.Rows, rows, ordered) {
			return 0, fmt.Errorf("%s: recorded run's rows differ from internal/ref", q.Name)
		}
		var meta, log bytes.Buffer
		if err := core.WriteMetadata(&meta, cq.Pipe.Dict, cq.Code.NMap); err != nil {
			return 0, err
		}
		if err := core.WriteSamples(&log, res.Samples); err != nil {
			return 0, err
		}
		w.logs[i] = recordedLog{name: q.Name, meta: meta.Bytes(), log: log.Bytes(), cycles: res.WallCycles}

		// Verify round: the profile rebuilt offline from the two files
		// must be the one the engine attributed inline while recording.
		o, canon, err := w.op(i, nil)
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(canon, res.Profile.Canonical()) {
			return 0, fmt.Errorf("%s: offline profile differs from the inline one", q.Name)
		}
		w.want[i] = o.hash
	}
	return len(suite), nil
}

func (w *postprocessZoom) beginRound() error { return nil }

func (w *postprocessZoom) finish(*tracer) error { return nil }

func (w *postprocessZoom) do(i int, t *tracer) (outcome, error) {
	o, _, err := w.op(i, t)
	if err != nil {
		return o, err
	}
	o.failed = o.hash != w.want[i]
	return o, nil
}

// op runs op i and also hands back the rebuilt profile's canonical form.
func (w *postprocessZoom) op(i int, t *tracer) (o outcome, canon []byte, err error) {
	l := &w.logs[i]
	s := t.begin("core.read_metadata")
	dict, nmap, err := core.ReadMetadata(bytes.NewReader(l.meta))
	t.end(s)
	if err != nil {
		return o, nil, fmt.Errorf("%s: read meta-data: %w", l.name, err)
	}
	s = t.begin("core.read_samples")
	samples, err := core.ReadSamples(bytes.NewReader(l.log))
	t.end(s)
	if err != nil {
		return o, nil, fmt.Errorf("%s: read samples: %w", l.name, err)
	}
	s = t.begin("core.attribute")
	att := core.NewAttributor(dict, nmap)
	p := core.BuildProfile(att, samples)
	t.end(s)

	s = t.begin("core.timeline")
	tl := p.BuildTimeline(timelineBins)
	t.end(s)
	s = t.begin("viz.reports")
	var sb strings.Builder
	sb.WriteString(viz.OperatorTable(p))
	for _, c := range p.TaskCosts() {
		fmt.Fprintf(&sb, "%-36s %8.1f %6.1f%%\n", c.Name, c.Samples, c.Pct)
	}
	sb.WriteString(viz.TimelineChart(tl, 3.5))
	a := p.Attribution()
	fmt.Fprintf(&sb, "attribution: operators %.1f%%, kernel %.1f%%, unattributed %.1f%%\n", a.OperatorPct, a.KernelPct, a.UnattributedPct)
	t.end(s)

	// The §4.3 drill-down: windows a quarter of the run wide, starting
	// every eighth, each rebuilt into a profile of its own.
	s = t.begin("core.zoom")
	span := p.MaxTSC - p.MinTSC
	for k := uint64(0); k < zoomWindows; k++ {
		from := p.MinTSC + span*k/zoomWindows
		z := core.BuildProfile(att, core.SliceSamples(samples, from, from+span/4))
		sb.WriteString(strconv.Itoa(z.TotalSamples))
		sb.WriteByte(' ')
	}
	t.end(s)

	canon = p.Canonical()
	o.cycles = l.cycles
	o.hash = hashText(hashText(fnvOffset, canon), sb.String())
	if t != nil {
		t.add("core.samples_read", float64(len(samples)))
		t.add("core.attributed_samples", float64(len(samples)))
		countAttribution(t, a, p.TotalSamples)
	}
	return o, canon, nil
}
