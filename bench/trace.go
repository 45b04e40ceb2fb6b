package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// A span is one timed call from the benchmark into a layer. Spans are
// recorded here, around public calls only; nothing inside the engine knows
// it is being traced.
//
// Real spans nest in time (Parent). Two kinds of span explain the interior
// of a real span that cannot be opened from outside: a replay span
// (ReplayOf) re-executes, after the fact and in isolation, one layer call
// the real span made internally; a derived span (Derived) is a difference
// of measured spans. Both lie inside the op's root span but outside the
// span they explain, and both are subtracted from its self time.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0: a root span, one per op
	Op       int    `json:"op"`
	Name     string `json:"name"` // "layer.call"
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	ReplayOf int    `json:"replay_of,omitempty"`
	Derived  bool   `json:"derived,omitempty"`
}

func (s *span) dur() float64 { return float64(s.End - s.Start) }

// tracer keeps the spans of the round in progress in memory and folds every
// finished round into per-name duration samples and per-layer self times.
// All methods are no-ops on a nil tracer, which is how the untraced rounds
// run the very same workload code.
type tracer struct {
	epoch    time.Time
	op       int
	spans    []span // the round in progress; IDs are index+1
	open     []int  // stack of open span IDs
	replayOf int    // explained span for spans begun now, 0 outside a replay

	first  []span               // the first traced round, for the span file
	rounds int                  // traced rounds folded
	dur    map[string][]float64 // span name → durations (ns), all traced rounds
	count  map[string]float64   // counters, all traced rounds
	self   map[string]float64   // layer → self time (ns), all traced rounds
	net    float64              // Σ root spans minus the replays run inside them (ns)
	// Per traced round, per op: the real spans directly under the op's
	// root, and the root minus the replays run inside it (ns).
	opReal, opNet [][]float64
}

func newTracer() *tracer {
	return &tracer{
		epoch: time.Now(),
		dur:   map[string][]float64{},
		count: map[string]float64{},
		self:  map[string]float64{},
	}
}

// beginOp opens the root span of op i.
func (t *tracer) beginOp(i int) int {
	if t == nil {
		return 0
	}
	t.op = i
	return t.begin("bench.op")
}

// begin opens a span and returns its ID for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	s := span{ID: len(t.spans) + 1, Op: t.op, Name: name}
	if n := len(t.open); n > 0 {
		s.Parent = t.open[n-1]
	}
	// A replay runs after the span it explains has ended, so it hangs off
	// the root; anything begun inside a replay is a plain child of it.
	if len(t.open) == 1 {
		s.ReplayOf = t.replayOf
	}
	t.spans = append(t.spans, s)
	t.open = append(t.open, s.ID)
	t.spans[s.ID-1].Start = int64(time.Since(t.epoch))
	return s.ID
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// replay marks every span begun until the returned func runs as a replay
// of span id. Replays nest: a replayed compile is itself explained by
// replays of its passes.
func (t *tracer) replay(id int) func() {
	if t == nil {
		return func() {}
	}
	prev := t.replayOf
	t.replayOf = id
	return func() { t.replayOf = prev }
}

// derive records a computed span of d nanoseconds that explains part of
// span id (clamped at zero: differences of noisy timings can go negative).
func (t *tracer) derive(id int, name string, d float64) {
	if t == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	now := int64(time.Since(t.epoch))
	s := span{ID: len(t.spans) + 1, Op: t.op, Name: name, Start: now - int64(d), End: now, ReplayOf: id, Derived: true}
	if n := len(t.open); n > 0 {
		s.Parent = t.open[n-1]
	}
	t.spans = append(t.spans, s)
}

// took returns the duration of a closed span in nanoseconds.
func (t *tracer) took(id int) float64 {
	if t == nil {
		return 0
	}
	return t.spans[id-1].dur()
}

// add bumps a counter.
func (t *tracer) add(name string, v float64) {
	if t != nil {
		t.count[name] += v
	}
}

// sample files a duration under a name of its own, for calls that are
// timed as part of a differently named span (a warm Prepare is both an
// engine.prepare span and a qcache.warm_prepare sample).
func (t *tracer) sample(name string, ns float64) {
	if t != nil {
		t.dur[name] = append(t.dur[name], ns)
	}
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// foldRound turns the finished round's spans into samples and self times
// and resets the tracer for the next round.
//
// A span's self time is its duration minus its nested children minus the
// replays and derived spans that explain it. A replay is a second
// execution, so it can run slower than the interior it replays (a colder
// cache, a GC cycle); replays explain at most the span they replay, and
// when they add up to more they are scaled down together. Self times
// therefore always add up to the ops' time net of replays.
func (t *tracer) foldRound() {
	n := len(t.spans)
	nested := make([]float64, n)  // Σ children by Parent: time really spent inside the span
	replays := make([]float64, n) // Σ spans by ReplayOf: time explained after the fact
	for i := range t.spans {
		s := &t.spans[i]
		t.dur[s.Name] = append(t.dur[s.Name], s.dur())
		if s.ReplayOf != 0 {
			replays[s.ReplayOf-1] += s.dur()
		}
		// A derived span took no time of its own inside its parent.
		if s.Parent != 0 && !s.Derived {
			nested[s.Parent-1] += s.dur()
		}
	}
	scale := make([]float64, n) // weight of the span's time in the self-time ledger
	opReal, opNet := make([]float64, t.op+1), make([]float64, t.op+1)
	for i := range t.spans {
		s := &t.spans[i]
		scale[i] = 1
		switch {
		case s.ReplayOf != 0:
			e := s.ReplayOf - 1 // always an earlier span
			scale[i] = scale[e]
			if room := max(0, t.spans[e].dur()-nested[e]); room < replays[e] {
				scale[i] *= room / replays[e]
			}
		case s.Parent != 0:
			scale[i] = scale[s.Parent-1]
		}
		room := s.dur() - nested[i]
		t.self[layerOf(s.Name)] += scale[i] * max(0, room-replays[i])
		switch {
		case s.Parent == 0:
			opNet[s.Op] += s.dur()
		case s.Derived:
		case s.ReplayOf != 0:
			opNet[s.Op] -= s.dur()
		case t.spans[s.Parent-1].Parent == 0:
			opReal[s.Op] += s.dur()
		}
	}
	t.net += sum(opNet)
	t.opReal, t.opNet = append(t.opReal, opReal), append(t.opNet, opNet)
	if t.rounds == 0 {
		t.first = append([]span(nil), t.spans...)
	}
	t.rounds++
	t.spans = t.spans[:0]
}

// sharePct is the layer's self time as a share of the traced ops' time net
// of replays — where an op's time goes when nobody is replaying anything.
func (t *tracer) sharePct(layer string) float64 {
	if t.net == 0 {
		return 0
	}
	return 100 * t.self[layer] / t.net
}

// writeSpans writes the first traced round to dir/trace-<workload>.json.
func (t *tracer) writeSpans(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.first})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), b, 0o644)
}
