// Package viz renders Tailored Profiling reports as text: annotated query
// plans (Fig. 6a/9b), annotated IR listings (Fig. 6b), operator activity
// timelines (Fig. 7/11), per-operator memory access profiles (Fig. 12),
// and attribution tables (Table 2).
package viz

import (
	"fmt"
	"sort"
	"strings"

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

// irAnnotator implements ir.Annotator over a profile.
type irAnnotator struct {
	p  *core.Profile
	pc *pipeline.Compiled
}

func (a *irAnnotator) Prefix(in *ir.Instr) string {
	w := a.p.IRWeight[in.ID]
	if w == 0 {
		return ""
	}
	return fmt.Sprintf("%.1f%%", 100*w/float64(a.p.TotalSamples))
}

func (a *irAnnotator) Suffix(in *ir.Instr) string {
	tasks := a.p.Dict.TasksOf(in.ID)
	if len(tasks) == 0 {
		return ""
	}
	names := make([]string, 0, len(tasks))
	for _, t := range tasks {
		op := a.p.Dict.OperatorOf(t)
		if op != core.NoComponent {
			names = append(names, a.p.Registry.Name(op))
		}
	}
	return strings.Join(names, ", ")
}

func (a *irAnnotator) BlockHeader(b *ir.Block) string {
	// Aggregate the block's samples per operator (the "(tablescan 2.4%
	// hash join 45.7%)" headers of Fig. 6b).
	byOp := map[core.ComponentID]float64{}
	for _, in := range b.Instrs {
		w := a.p.IRWeight[in.ID]
		if w == 0 {
			continue
		}
		tasks := a.p.Dict.TasksOf(in.ID)
		for _, t := range tasks {
			byOp[a.p.Dict.OperatorOf(t)] += w / float64(len(tasks))
		}
	}
	if len(byOp) == 0 {
		return ""
	}
	type kv struct {
		id core.ComponentID
		w  float64
	}
	var list []kv
	for id, w := range byOp {
		list = append(list, kv{id, w})
	}
	// Ties break on component ID: the list comes out of a map, and the
	// rendering must not depend on its iteration order.
	sort.Slice(list, func(i, j int) bool {
		if list[i].w != list[j].w {
			return list[i].w > list[j].w
		}
		return list[i].id < list[j].id
	})
	parts := make([]string, len(list))
	for i, e := range list {
		parts[i] = fmt.Sprintf("%s %.1f%%", a.p.Registry.Name(e.id), 100*e.w/float64(a.p.TotalSamples))
	}
	return "(" + strings.Join(parts, " ") + ")"
}

// AnnotatedIR renders one pipeline function with per-instruction sample
// shares and owning operators — the operator developer's view (Fig. 6b).
func AnnotatedIR(f *ir.Func, pc *pipeline.Compiled, p *core.Profile) string {
	return f.Print(&irAnnotator{p: p, pc: pc})
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
