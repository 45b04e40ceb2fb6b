package experiments

import (
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/pmu"
	"repro/internal/queries"
	"repro/internal/vm"
)

func memLoadsConfig(period int64) *pmu.Config {
	return &pmu.Config{Event: vm.EvMemLoads, Period: period, Format: pmu.FormatIPTimeRegs}
}

// OverheadPoint is one measurement of Fig. 13.
type OverheadPoint struct {
	Label    string // sampling configuration
	FreqKHz  float64
	Overhead float64 // relative runtime increase (1.0 = +100%)
}

// Overhead reproduces Fig. 13: sampling overhead as a function of
// frequency for the three record formats, on the Q16 analogue. It also
// reports the §6.2 storage numbers.
func (e *Env) Overhead() (string, []OverheadPoint, error) {
	eng := e.engine()
	w := queries.Q16()
	cq, err := eng.CompileQuery(w.Query)
	if err != nil {
		return "", nil, err
	}
	base, err := eng.Run(cq, nil)
	if err != nil {
		return "", nil, err
	}
	baseCycles := float64(base.Stats.Cycles)

	formats := []struct {
		label string
		f     pmu.Format
	}{
		{"IP, Callstack", pmu.FormatCallStack},
		{"IP, Time", pmu.FormatIPTime},
		{"IP, Time, Registers", pmu.FormatIPTimeRegs},
	}
	// Periods in cycles; at the simulated 3.5 GHz these correspond to the
	// paper's 10 kHz .. 1 MHz x-axis.
	periods := []int64{350000, 35000, 10000, 5000, 3500}

	var sb strings.Builder
	var points []OverheadPoint
	sb.WriteString("=== Fig. 13: sampling overhead vs frequency (q16) ===\n\n")
	fmt.Fprintf(&sb, "baseline: %.2f ms unprofiled\n\n", ms(base.Stats.Cycles))
	fmt.Fprintf(&sb, "%-22s %12s %12s %10s\n", "config", "freq (kHz)", "overhead", "samples")
	for _, f := range formats {
		for _, p := range periods {
			res, err := eng.Run(cq, &pmu.Config{Event: vm.EvCycles, Period: p, Format: f.f})
			if err != nil {
				return "", nil, err
			}
			ov := float64(res.Stats.TotalCycles())/baseCycles - 1
			freq := 3.5e6 / float64(p) // kHz at 3.5 GHz
			fmt.Fprintf(&sb, "%-22s %12.0f %11.0f%% %10d\n", f.label, freq, 100*ov, len(res.PMU.Samples()))
			points = append(points, OverheadPoint{Label: f.label, FreqKHz: freq, Overhead: ov})
		}
	}

	// Storage accounting (§6.2).
	sb.WriteString("\n=== §6.2: storage cost ===\n\n")
	fmt.Fprintf(&sb, "sample record: %d B (IP, time, registers); %d B with call stack (paper: 54 B / 265 B)\n",
		pmu.RecordBytes(pmu.FormatIPTimeRegs), pmu.RecordBytes(pmu.FormatCallStack))
	perSec := 0.7e6 * float64(pmu.RecordBytes(pmu.FormatIPTimeRegs)) / 1e6
	fmt.Fprintf(&sb, "at 0.7 MHz: %.0f MB/s of samples (paper: 77 MB/s)\n", perSec)
	// The dictionary a parallel run attributes through, over the
	// statement's whole generated code; a serial run's lacks the merge
	// kernels (engine.Compiled.Parallel).
	par, err := cq.Parallel()
	if err != nil {
		return "", nil, err
	}
	fmt.Fprintf(&sb, "Tagging Dictionary: %d entries, %d B (paper: ~1320 IR instructions, ~30 kB)\n",
		par.Dict.Entries(), par.Dict.StorageBytes())
	fmt.Fprintf(&sb, "IR instructions in module: %d\n", par.Module.InstrCount())
	return sb.String(), points, nil
}

// RegReserve reproduces the §6.2 register-reservation measurement: how
// much slower generated code runs when one register is reserved for
// Register Tagging (paper: 2.8% on average over all TPC-H queries).
func (e *Env) RegReserve() (string, float64, error) {
	tagged := engine.DefaultOptions()
	plain := engine.DefaultOptions()
	plain.RegisterTagging = false

	var sb strings.Builder
	sb.WriteString("=== §6.2: register reservation overhead ===\n\n")
	fmt.Fprintf(&sb, "%-12s %14s %14s %10s %8s %8s\n",
		"query", "cycles (free)", "cycles (rsvd)", "overhead", "spills-", "spills+")
	sum, n := 0.0, 0
	for _, w := range queries.Suite() {
		ePlain := engine.New(e.Cat, plain)
		eTag := engine.New(e.Cat, tagged)
		c1, err := ePlain.CompileQuery(w.Query)
		if err != nil {
			return "", 0, err
		}
		c2, err := eTag.CompileQuery(w.Query)
		if err != nil {
			return "", 0, err
		}
		r1, err := ePlain.Run(c1, nil)
		if err != nil {
			return "", 0, err
		}
		r2, err := eTag.Run(c2, nil)
		if err != nil {
			return "", 0, err
		}
		ov := float64(r2.Stats.Cycles)/float64(r1.Stats.Cycles) - 1
		fmt.Fprintf(&sb, "%-12s %14d %14d %9.2f%% %8d %8d\n",
			w.Name, r1.Stats.Cycles, r2.Stats.Cycles, 100*ov, c1.Code.Spills, c2.Code.Spills)
		sum += ov
		n++
	}
	avg := sum / float64(n)
	fmt.Fprintf(&sb, "\naverage overhead: %.2f%% (paper: 2.8%%)\n", 100*avg)
	return sb.String(), avg, nil
}

// AttributionRow is one query's Table 2 measurement.
type AttributionRow struct {
	Query       string
	Samples     int
	OperatorPct float64
	KernelPct   float64
	NoAttrib    float64
}

// Attribution reproduces Table 2: the share of samples attributed to
// operators, runtime ("kernel tasks"), and nothing, across the suite.
func (e *Env) Attribution() (string, []AttributionRow, error) {
	var sb strings.Builder
	sb.WriteString("=== Table 2: sample attribution across the query suite ===\n\n")
	fmt.Fprintf(&sb, "%-12s %9s %11s %9s %9s\n", "query", "samples", "operators", "kernel", "none")
	var rows []AttributionRow
	totS, totOp, totK, totN := 0.0, 0.0, 0.0, 0.0
	for _, w := range queries.Suite() {
		_, res, err := e.profileQuery(w, DefaultPeriod)
		if err != nil {
			return "", nil, err
		}
		a := res.Profile.Attribution()
		n := res.Profile.TotalSamples
		fmt.Fprintf(&sb, "%-12s %9d %10.1f%% %8.1f%% %8.1f%%\n",
			w.Name, n, a.OperatorPct, a.KernelPct, a.UnattributedPct)
		rows = append(rows, AttributionRow{w.Name, n, a.OperatorPct, a.KernelPct, a.UnattributedPct})
		totS += float64(n)
		totOp += a.OperatorPct * float64(n)
		totK += a.KernelPct * float64(n)
		totN += a.UnattributedPct * float64(n)
	}
	fmt.Fprintf(&sb, "%-12s %9.0f %10.1f%% %8.1f%% %8.1f%%\n", "TOTAL", totS,
		totOp/totS, totK/totS, totN/totS)
	fmt.Fprintf(&sb, "\npaper (Table 2): operators 95.4%%, kernel tasks 2.6%%, no attribution 2.0%%\n")
	rows = append(rows, AttributionRow{"TOTAL", int(totS), totOp / totS, totK / totS, totN / totS})
	return sb.String(), rows, nil
}
