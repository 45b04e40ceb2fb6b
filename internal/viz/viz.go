// Package viz renders Tailored Profiling reports as text: annotated query
// plans (Fig. 6a/9b), annotated IR listings (Fig. 6b), operator activity
// timelines (Fig. 7/11), per-operator memory access profiles (Fig. 12),
// and attribution tables (Table 2).
package viz

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/plan"
)

// AnnotatedPlan renders the query plan with each operator's share of the
// profile — the domain expert's view.
func AnnotatedPlan(pl *plan.Output, pc *pipeline.Compiled, p *core.Profile) string {
	return plan.Render(pl, func(n plan.Node) string {
		out := ""
		if id, ok := pc.OpIDs[n]; ok {
			out = fmt.Sprintf("(%.1f%%)", p.OpPct(id))
		}
		if fid, ok := pc.FilterOpIDs[n]; ok {
			out += fmt.Sprintf(" [σ %.1f%%]", p.OpPct(fid))
		}
		return out
	})
}

// irAnnotator implements ir.Annotator over a profile. AnnotatedIR takes
// one from annotators and puts it back, so the listing's buffer and the
// block headers' per-operator sums are reused from call to call.
type irAnnotator struct {
	p    *core.Profile
	buf  []byte
	byOp []opWeight
}

type opWeight struct {
	op core.ComponentID
	w  float64
}

var annotators = sync.Pool{New: func() any { return new(irAnnotator) }}

// appendPct appends x as fmt's "%.1f%%" does.
func appendPct(dst []byte, x float64) []byte {
	return append(strconv.AppendFloat(dst, x, 'f', 1, 64), '%')
}

func (a *irAnnotator) AppendPrefix(dst []byte, in *ir.Instr) []byte {
	w := a.p.IRWeight[in.ID]
	if w == 0 {
		return dst
	}
	return appendPct(dst, 100*w/float64(a.p.TotalSamples))
}

// AppendSuffix appends the operators owning in's tasks (Log B, then Log A),
// separated by ", ".
func (a *irAnnotator) AppendSuffix(dst []byte, in *ir.Instr) []byte {
	n := 0
	for _, t := range a.p.Dict.TasksOf(in.ID) {
		if op := a.p.Dict.OperatorOf(t); op != core.NoComponent {
			if n++; n > 1 {
				dst = append(dst, ", "...)
			}
			dst = append(dst, a.p.Registry.Name(op)...)
		}
	}
	return dst
}

// AppendBlockHeader aggregates the block's samples per operator (the
// "(tablescan 2.4% hash join 45.7%)" headers of Fig. 6b), heaviest first and
// ties on component id, so the rendering is a function of the profile.
func (a *irAnnotator) AppendBlockHeader(dst []byte, b *ir.Block) []byte {
	byOp := a.byOp[:0]
	for _, in := range b.Instrs {
		w := a.p.IRWeight[in.ID]
		if w == 0 {
			continue
		}
		tasks := a.p.Dict.TasksOf(in.ID)
		for _, t := range tasks {
			op, i := a.p.Dict.OperatorOf(t), 0
			for i < len(byOp) && byOp[i].op != op {
				i++
			}
			if i == len(byOp) {
				byOp = append(byOp, opWeight{op: op})
			}
			byOp[i].w += w / float64(len(tasks))
		}
	}
	a.byOp = byOp
	if len(byOp) == 0 {
		return dst
	}
	slices.SortFunc(byOp, func(x, y opWeight) int {
		if x.w != y.w {
			return cmp.Compare(y.w, x.w)
		}
		return cmp.Compare(x.op, y.op)
	})
	dst = append(dst, '(')
	for i, e := range byOp {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = appendPct(append(append(dst, a.p.Registry.Name(e.op)...), ' '), 100*e.w/float64(a.p.TotalSamples))
	}
	return append(dst, ')')
}

// AnnotatedIR renders one pipeline function with per-instruction sample
// shares and owning operators — the operator developer's view (Fig. 6b).
func AnnotatedIR(f *ir.Func, pc *pipeline.Compiled, p *core.Profile) string {
	a := annotators.Get().(*irAnnotator)
	a.p = p
	a.buf = f.AppendTo(a.buf[:0], a)
	s := string(a.buf)
	a.p = nil
	annotators.Put(a)
	return s
}

// OperatorTable renders per-operator costs.
func OperatorTable(p *core.Profile) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-28s %10s %8s\n", "operator", "samples", "share")
	for _, c := range p.OperatorCosts() {
		fmt.Fprintf(&sb, "%-28s %10.1f %7.1f%%\n", c.Name, c.Samples, c.Pct)
	}
	a := p.Attribution()
	fmt.Fprintf(&sb, "%-28s %10.1f %7.1f%%\n", "kernel", p.KernelWeight, a.KernelPct)
	fmt.Fprintf(&sb, "%-28s %10.1f %7.1f%%\n", "<unattributed>", p.Unattributed, a.UnattributedPct)
	return sb.String()
}

// shade maps a 0..1 intensity to a character.
func shade(x float64) byte {
	const ramp = " .:-=+*#%@"
	i := int(x * float64(len(ramp)))
	if i >= len(ramp) {
		i = len(ramp) - 1
	}
	if i < 0 {
		i = 0
	}
	return ramp[i]
}

// TimelineChart renders operator activity over time (Fig. 7/11): one row
// per operator, one column per time bin, darkness = share of bin samples.
func TimelineChart(tl *core.Timeline, freqGHz float64) string {
	var sb strings.Builder
	totalMs := float64(tl.BinCycles) * float64(len(tl.Activity)) / (freqGHz * 1e6)
	fmt.Fprintf(&sb, "operator activity over time (%d bins, total %.2f ms)\n", len(tl.Activity), totalMs)
	for j, name := range tl.Names {
		fmt.Fprintf(&sb, "%-22s |", name)
		for b := range tl.Activity {
			sb.WriteByte(shade(tl.Activity[b][j]))
		}
		sb.WriteString("|\n")
	}
	return sb.String()
}

// TimelineSeries renders the numeric activity matrix (for EXPERIMENTS.md
// and plotting): header row then one line per bin with percentages.
func TimelineSeries(tl *core.Timeline, freqGHz float64) string {
	var sb strings.Builder
	sb.WriteString("time_ms")
	for _, n := range tl.Names {
		sb.WriteString("\t" + n)
	}
	sb.WriteByte('\n')
	for b := range tl.Activity {
		t := float64(tl.BinCycles) * float64(b) / (freqGHz * 1e6)
		fmt.Fprintf(&sb, "%.2f", t)
		for j := range tl.Names {
			fmt.Fprintf(&sb, "\t%.1f", 100*tl.Activity[b][j])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// MemoryProfile renders per-operator memory access patterns (Fig. 12):
// for each operator a grid of time (x) versus address offset (y), plus
// the address span, mirroring the paper's "+30 MB" style axis labels.
// Samples below addrFloor (the stack/spill region) are excluded, the way
// memory profiles conventionally separate data from stack traffic.
func MemoryProfile(p *core.Profile, bins, rows int, addrFloor int64) string {
	var sb strings.Builder
	ops := make([]core.ComponentID, 0, len(p.MemByOp))
	for id := range p.MemByOp {
		ops = append(ops, id)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	span := p.MaxTSC - p.MinTSC + 1
	for _, id := range ops {
		var pts []core.MemPoint
		for _, pt := range p.MemByOp[id] {
			if pt.Addr >= addrFloor {
				pts = append(pts, pt)
			}
		}
		if len(pts) == 0 {
			continue
		}
		lo, hi := pts[0].Addr, pts[0].Addr
		for _, pt := range pts {
			if pt.Addr < lo {
				lo = pt.Addr
			}
			if pt.Addr > hi {
				hi = pt.Addr
			}
		}
		grid := make([][]float64, rows)
		for r := range grid {
			grid[r] = make([]float64, bins)
		}
		addrSpan := hi - lo + 1
		maxC := 0.0
		for _, pt := range pts {
			b := int(uint64(bins) * (pt.TSC - p.MinTSC) / span)
			if b >= bins {
				b = bins - 1
			}
			r := int(int64(rows) * (pt.Addr - lo) / addrSpan)
			if r >= rows {
				r = rows - 1
			}
			grid[r][b]++
			if grid[r][b] > maxC {
				maxC = grid[r][b]
			}
		}
		fmt.Fprintf(&sb, "%s  (%d load samples, span %s)\n", p.Registry.Name(id), len(pts), fmtBytes(addrSpan))
		for r := rows - 1; r >= 0; r-- {
			fmt.Fprintf(&sb, "  +%-8s |", fmtBytes(int64(r)*addrSpan/int64(rows)))
			for b := 0; b < bins; b++ {
				x := 0.0
				if maxC > 0 {
					x = grid[r][b] / maxC
				}
				sb.WriteByte(shade(x))
			}
			sb.WriteString("|\n")
		}
	}
	return sb.String()
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// ResultTable renders query results with decoded values.
func ResultTable(res *engine.Result, maxRows int) string {
	var sb strings.Builder
	for i, c := range res.Cols {
		if i > 0 {
			sb.WriteByte('\t')
		}
		sb.WriteString(c.Label())
	}
	sb.WriteByte('\n')
	n := len(res.Rows)
	if maxRows > 0 && n > maxRows {
		n = maxRows
	}
	for _, row := range res.Rows[:n] {
		for j, v := range row {
			if j > 0 {
				sb.WriteByte('\t')
			}
			sb.WriteString(engine.FormatValue(v, res.Cols[j]))
		}
		sb.WriteByte('\n')
	}
	if n < len(res.Rows) {
		fmt.Fprintf(&sb, "... (%d rows total)\n", len(res.Rows))
	}
	return sb.String()
}
