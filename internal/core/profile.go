package core

import (
	"math"
	"sort"

	"repro/internal/vm"
)

// SliceSamples returns the samples whose timestamps fall in [from, to] —
// the paper's §4.3 drill-down: spot a temporal hotspot in the timeline,
// then rebuild the profile for just that interval at a lower abstraction
// level. When the samples in the window are one contiguous run, as in any
// single-worker log (TSC-ordered), the result is a capacity-capped window
// of samples itself; a worker-merged log is ordered by worker first, so
// its window is copied out. Either way, treat the result as read-only.
func SliceSamples(samples []Sample, from, to uint64) []Sample {
	in := func(i int) bool { return samples[i].TSC >= from && samples[i].TSC <= to }
	first, last, n := 0, -1, 0
	for i := range samples {
		if in(i) {
			if n == 0 {
				first = i
			}
			last, n = i, n+1
		}
	}
	if n == 0 {
		return nil
	}
	if last-first+1 == n {
		return samples[first : last+1 : last+1]
	}
	out := make([]Sample, 0, n)
	for i := first; i <= last; i++ {
		if in(i) {
			out = append(out, samples[i])
		}
	}
	return out
}

// MemPoint is one memory-access observation: when, and which address.
type MemPoint struct {
	TSC  uint64
	Addr int64
}

// timedCredit retains the time dimension per attributed sample so the
// profile can be re-aggregated into operator-activity timelines (Fig. 7/11)
// and restricted to time intervals, as §4.3 describes.
type timedCredit struct {
	tsc     uint64
	credits []Credit
}

// Profile is the aggregated result of attributing all samples of one run.
// It supports every report of the paper: per-operator cost (Fig. 6a/9b),
// annotated IR listings (Fig. 6b), operator activity over time (Fig. 7/11),
// per-operator memory access profiles (Fig. 12), and attribution statistics
// (Table 2).
type Profile struct {
	Registry *Registry
	Dict     *Dictionary

	TotalSamples int
	OpWeight     map[ComponentID]float64
	TaskWeight   map[ComponentID]float64
	IRWeight     map[int]float64
	NativeCount  []float64
	RoutineCount map[string]float64

	KernelWeight float64
	Unattributed float64

	// ByWorker counts samples per recording core (Sample.Worker). A
	// single-CPU run has everything under worker 0.
	ByWorker map[int]float64

	// ByShard counts samples per data shard (Sample.Shard: 0 = unsharded
	// work, s+1 = shard s). Like ByWorker it is a per-buffer reporting
	// lens, not part of the invariant attribution (see Canonical).
	ByShard map[int]float64

	// Skips are the zero-cost skip events of pruned scan zones, derived
	// from the run's shard journals (Skips: by pipeline, then zone) after
	// the sample merge, so attribution stays complete when sharded
	// execution proves work unnecessary and never runs it.
	Skips []SkipEvent

	MemByOp map[ComponentID][]MemPoint

	MinTSC, MaxTSC uint64

	timed []timedCredit
}

// Weights sum in fixed point: whole units of 1/weightScale of a sample,
// held in float64s, which add whole numbers below 2^53 — 1.2e10 samples
// on one key — exactly. An exact sum does not depend on the order of its
// terms, so a profile has the same weights whatever order its samples
// arrive in: merged from any number of workers or shards. The scale is
// the least multiple of every n ≤ 16: the 1/n share of an instruction
// fused from n IR instructions is exact, and a sum converts back to the
// float nearest its exact value.
const weightScale = 720720

// units converts a credit weight to fixed point.
func units(w float64) float64 { return math.Round(w * weightScale) }

// BuildProfile attributes samples and aggregates them. Weights accumulate
// in fixed point (units), in arrays indexed by component id and IR id, and
// move to the exported maps as weights at the end. Every credit weight is
// positive, so a non-zero sum marks a touched key.
func BuildProfile(att *Attributor, samples []Sample) *Profile {
	reg := att.Dict.Registry
	nIP, nComp := len(att.table), reg.Len()+1
	acc := make([]float64, nIP+2*nComp+att.irSpan)
	p := &Profile{
		Registry:     reg,
		Dict:         att.Dict,
		OpWeight:     make(map[ComponentID]float64),
		TaskWeight:   make(map[ComponentID]float64),
		IRWeight:     make(map[int]float64),
		NativeCount:  acc[:nIP:nIP],
		RoutineCount: make(map[string]float64),
		ByWorker:     make(map[int]float64),
		ByShard:      make(map[int]float64),
		MemByOp:      make(map[ComponentID][]MemPoint),
		MinTSC:       ^uint64(0),
		timed:        make([]timedCredit, 0, len(samples)),
	}
	taskW, opW, irW := acc[nIP:][:nComp], acc[nIP+nComp:][:nComp], acc[nIP+2*nComp:]
	// Credit lists a sample decides (CSE'd code walks) live here; p.timed
	// keeps windows of it. It is sized for every walk's bound up front, so
	// it is allocated once, if at all.
	walks := 0
	for i := range samples {
		if ip := samples[i].IP; uint(ip) < uint(nIP) && att.table[ip].class == classWalk {
			walks += int(att.table[ip].nCre)
		}
	}
	var arena []Credit
	if walks > 0 {
		arena = make([]Credit, 0, walks)
	}
	workers, shards := runCount{m: p.ByWorker}, runCount{m: p.ByShard}
	for i := range samples {
		s := &samples[i]
		p.TotalSamples++
		workers.add(s.Worker)
		shards.add(s.Shard)
		if s.TSC < p.MinTSC {
			p.MinTSC = s.TSC
		}
		if s.TSC > p.MaxTSC {
			p.MaxTSC = s.TSC
		}
		if uint(s.IP) >= uint(nIP) {
			p.Unattributed++
			continue
		}
		p.NativeCount[s.IP]++
		e := &att.table[s.IP]
		class, credits := att.lookup(e, s, &arena)
		if class == ClassUnattributed {
			p.Unattributed++
			continue
		}
		for _, c := range credits {
			// An id outside the registry (only a sample-dependent walk can
			// name one) never meets the arrays: it goes to its map directly,
			// as every IR id does when the ids are too sparse for an array.
			u := units(c.Weight)
			if uint(c.Task) < uint(nComp) {
				taskW[c.Task] += u
			} else {
				p.TaskWeight[c.Task] += u
			}
			if uint(c.Operator) < uint(nComp) {
				opW[c.Operator] += u
			} else {
				p.OpWeight[c.Operator] += u
			}
			if c.Operator == reg.KernelOperator {
				p.KernelWeight += u
			}
		}
		if !e.routine { // generated code: an equal share to each IR instruction
			irIDs := att.NMap.IRs[s.IP]
			u := units(1 / float64(len(irIDs)))
			for _, irID := range irIDs {
				if len(irW) > 0 {
					irW[irID-att.irLo] += u
				} else {
					p.IRWeight[irID] += u
				}
			}
		}
		p.timed = append(p.timed, timedCredit{tsc: s.TSC, credits: credits})
		if s.Event == vm.EvMemLoads || s.Event == vm.EvL3Miss {
			for _, c := range credits {
				if c.Weight >= 0.5 { // assign the point to the dominant owner
					p.MemByOp[c.Operator] = append(p.MemByOp[c.Operator], MemPoint{TSC: s.TSC, Addr: s.Addr})
				}
			}
		}
	}
	workers.flush()
	shards.flush()
	if p.TotalSamples == 0 {
		p.MinTSC = 0
	}
	// The maps hold units so far (the ids the arrays do not reach).
	p.KernelWeight /= weightScale
	weighUnits(p.TaskWeight)
	weighUnits(p.OpWeight)
	weighUnits(p.IRWeight)
	touched(p.TaskWeight, taskW, func(id int) ComponentID { return ComponentID(id) })
	touched(p.OpWeight, opW, func(id int) ComponentID { return ComponentID(id) })
	touched(p.IRWeight, irW, func(i int) int { return i + att.irLo })
	for ip, n := range p.NativeCount { // whole-number counts: regrouping by routine is exact
		if name := att.NMap.Routine[ip]; n != 0 && att.table[ip].routine && name != "" {
			p.RoutineCount[name] += n
		}
	}
	return p
}

// touched moves the non-zero fixed-point sums of a dense accumulator into
// m as weights.
func touched[K comparable](m map[K]float64, acc []float64, key func(int) K) {
	for i, u := range acc {
		if u != 0 {
			m[key(i)] = u / weightScale
		}
	}
}

// weighUnits converts m's fixed-point sums to weights in place.
func weighUnits[K comparable](m map[K]float64) {
	for k, u := range m {
		m[k] = u / weightScale
	}
}

// runCount counts samples per worker or shard one run of equal keys at a
// time: a log changes key rarely, and whole-number counts regroup exactly.
type runCount struct {
	m      map[int]float64
	key, n int
}

func (r *runCount) add(key int) {
	if key != r.key {
		r.flush()
		r.key = key
	}
	r.n++
}

func (r *runCount) flush() {
	if r.n > 0 {
		r.m[r.key] += float64(r.n)
		r.n = 0
	}
}

// OpCost is one row of a per-operator cost report.
type OpCost struct {
	ID      ComponentID
	Name    string
	Kind    string
	Samples float64
	Pct     float64
}

// OperatorCosts returns per-operator costs sorted by descending share,
// excluding the kernel pseudo-operator (reported separately).
func (p *Profile) OperatorCosts() []OpCost {
	return p.costs(p.OpWeight, p.Registry.KernelOperator)
}

// TaskCosts returns per-task costs sorted by descending share.
func (p *Profile) TaskCosts() []OpCost {
	return p.costs(p.TaskWeight, p.Registry.KernelTask)
}

func (p *Profile) costs(w map[ComponentID]float64, kernel ComponentID) []OpCost {
	total := float64(p.TotalSamples)
	if total == 0 {
		total = 1
	}
	out := make([]OpCost, 0, len(w))
	for id, weight := range w {
		if id == kernel {
			continue
		}
		c := p.Registry.Get(id)
		out = append(out, OpCost{ID: id, Name: c.Name, Kind: c.Kind, Samples: weight, Pct: 100 * weight / total})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Samples != out[j].Samples {
			return out[i].Samples > out[j].Samples
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// OpPct returns one operator's share of all samples, in percent.
func (p *Profile) OpPct(id ComponentID) float64 {
	if p.TotalSamples == 0 {
		return 0
	}
	return 100 * p.OpWeight[id] / float64(p.TotalSamples)
}

// AttributionSummary reproduces Table 2's buckets.
type AttributionSummary struct {
	OperatorPct     float64 // samples mapped to dataflow-graph operators
	KernelPct       float64 // runtime-system ("kernel tasks") samples
	AttributedPct   float64 // OperatorPct + KernelPct ("Umbra" row)
	UnattributedPct float64 // system libraries, no mapping
}

// Attribution returns the Table 2 summary for this profile.
func (p *Profile) Attribution() AttributionSummary {
	total := float64(p.TotalSamples)
	if total == 0 {
		return AttributionSummary{}
	}
	kernel := 100 * p.KernelWeight / total
	unatt := 100 * p.Unattributed / total
	return AttributionSummary{
		OperatorPct:     100 - kernel - unatt,
		KernelPct:       kernel,
		AttributedPct:   100 - unatt,
		UnattributedPct: unatt,
	}
}

// Timeline is an operator-activity-over-time report (Fig. 7/11): for each
// time bin, each operator's share of the samples in that bin.
type Timeline struct {
	Operators []ComponentID
	Names     []string
	BinCycles uint64
	StartTSC  uint64
	// Activity[bin][opIndex] is the operator's share (0..1) of bin samples.
	Activity [][]float64
	// BinTotal[bin] is the number of samples in the bin.
	BinTotal []float64
}

// BuildTimeline aggregates the profile into nBins equal time bins between
// the first and last sample. Restricting to a sub-interval — the paper's
// "zoom in on the hotspot" workflow — is done via BuildTimelineRange.
func (p *Profile) BuildTimeline(nBins int) *Timeline {
	return p.BuildTimelineRange(nBins, p.MinTSC, p.MaxTSC)
}

// BuildTimelineRange aggregates activity between fromTSC and toTSC.
func (p *Profile) BuildTimelineRange(nBins int, fromTSC, toTSC uint64) *Timeline {
	if nBins <= 0 {
		nBins = 1
	}
	span := toTSC - fromTSC + 1
	binCycles := span / uint64(nBins)
	if binCycles == 0 {
		binCycles = 1
	}
	ops := p.Registry.ByLevel(LevelOperator)
	tl := &Timeline{BinCycles: binCycles, StartTSC: fromTSC}
	idx := make(map[ComponentID]int)
	for _, op := range ops {
		if op.ID == p.Registry.KernelOperator {
			continue
		}
		idx[op.ID] = len(tl.Operators)
		tl.Operators = append(tl.Operators, op.ID)
		tl.Names = append(tl.Names, op.Name)
	}
	tl.Activity = make([][]float64, nBins)
	tl.BinTotal = make([]float64, nBins)
	for i := range tl.Activity {
		tl.Activity[i] = make([]float64, len(tl.Operators))
	}
	for _, tc := range p.timed {
		if tc.tsc < fromTSC || tc.tsc > toTSC {
			continue
		}
		bin := int((tc.tsc - fromTSC) / binCycles)
		if bin >= nBins {
			bin = nBins - 1
		}
		for _, c := range tc.credits {
			if j, ok := idx[c.Operator]; ok {
				tl.Activity[bin][j] += c.Weight
				tl.BinTotal[bin] += c.Weight
			}
		}
	}
	// Normalize bins to shares.
	for b := range tl.Activity {
		if tl.BinTotal[b] == 0 {
			continue
		}
		for j := range tl.Activity[b] {
			tl.Activity[b][j] /= tl.BinTotal[b]
		}
	}
	return tl
}

// Interval is a half-open time range [From, To) in TSC cycles.
type Interval struct {
	From, To uint64
}

// DetectIterations splits an operator's activity into iterations using
// sample timestamps (§4.2.6: the Tagging Dictionary cannot distinguish
// iterations of an iterative dataflow, so post-processing uses time gaps).
// A new iteration starts whenever consecutive samples of the operator are
// more than gap cycles apart.
func (p *Profile) DetectIterations(op ComponentID, gap uint64) []Interval {
	var times []uint64
	for _, tc := range p.timed {
		for _, c := range tc.credits {
			if c.Operator == op && c.Weight > 0 {
				times = append(times, tc.tsc)
				break
			}
		}
	}
	if len(times) == 0 {
		return nil
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	var out []Interval
	start, prev := times[0], times[0]
	for _, t := range times[1:] {
		if t-prev > gap {
			out = append(out, Interval{From: start, To: prev + 1})
			start = t
		}
		prev = t
	}
	out = append(out, Interval{From: start, To: prev + 1})
	return out
}
