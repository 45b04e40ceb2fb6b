package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// runRecord is one line of a -record file: a result tagged with what ran.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

func appendRecord(path string, r runRecord) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(v, n=4) does (the exclusive method), so the spreads
// printed here are the ones an outside checker computes.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based
		i := int(pos)
		switch {
		case len(s) == 1 || i < 1:
			return s[0]
		case i >= len(s):
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(1), at(2), at(3)
}

// verdict applies the rule of the choosing-metrics guide, §6 and §8, to one
// metric on one workload. worse is a signed relative change of the median,
// positive when the new side is worse. A difference is resolved only when
// the run-to-run spread of both sides stays within the bound — or when
// every new run falls on one side of every old run. A gain is claimed only
// when the new side also wins nine tenths of the seed-matched pairs and the
// medians differ by more than the old side's own quartile distance.
func verdict(m e2eMetric, old, cur []float64, pairsWon, pairs int) (string, float64, float64) {
	oq1, omed, oq3 := quartiles(old)
	nq1, nmed, nq3 := quartiles(cur)
	if omed == 0 {
		return "unresolved", 0, 0
	}
	worse := (nmed - omed) / omed
	if m.higher {
		worse = -worse
	}
	spread := max(oq3-oq1, nq3-nq1) / omed
	better := func(a, b float64) bool { return (a > b) == m.higher && a != b }
	allBetter, allWorse := true, true
	for _, n := range cur {
		for _, o := range old {
			allBetter = allBetter && better(n, o)
			allWorse = allWorse && better(o, n)
		}
	}
	switch {
	case allWorse && worse > m.bound:
		return "worse", worse, spread
	case allBetter:
		return "better", worse, spread
	case spread > m.bound:
		return "unresolved", worse, spread
	case worse > m.bound:
		return "worse", worse, spread
	case pairs > 0 && 10*pairsWon >= 9*pairs && math.Abs(nmed-omed) > oq3-oq1:
		return "better", worse, spread
	}
	return "same", worse, spread
}

// compareFiles prints, per workload and end-to-end metric, both sides'
// medians with their quartiles, the ratio with its base, the spread, the
// bound and the verdict.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	old, err := readRecords(oldPath)
	if err != nil {
		return err
	}
	cur, err := readRecords(newPath)
	if err != nil {
		return err
	}
	values := func(rs []runRecord, workload, name string) (v []float64, bySeed map[uint64]float64, failed int) {
		bySeed = map[uint64]float64{}
		for _, r := range rs {
			if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Trace == 0 {
				v = append(v, m.Value)
				bySeed[r.Seed] = m.Value
				failed += r.Failed
			}
		}
		return v, bySeed, failed
	}
	for _, wl := range workloads {
		printed := false
		for _, m := range endToEndMetrics {
			ov, oseed, ofail := values(old, wl.name, m.name)
			nv, nseed, nfail := values(cur, wl.name, m.name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			if !printed {
				fmt.Fprintf(w, "%s: %d old runs (%d failed ops), %d new runs (%d failed ops)\n", wl.name, len(ov), ofail, len(nv), nfail)
				printed = true
			}
			won, pairs := 0, 0
			for seed, o := range oseed {
				if n, ok := nseed[seed]; ok && n != o {
					pairs++
					if (n > o) == m.higher {
						won++
					}
				}
			}
			v, worse, spread := verdict(m, ov, nv, won, pairs)
			oq1, omed, oq3 := quartiles(ov)
			nq1, nmed, nq3 := quartiles(nv)
			dir := "lower"
			if m.higher {
				dir = "higher"
			}
			fmt.Fprintf(w, "  %-18s old %.6g [%.6g, %.6g]  new %.6g [%.6g, %.6g] %s  new/old %.4f of %.6g  worse by %+.2f%% (bound %.2f%%, spread %.2f%%, %s is better, won %d/%d pairs)  %s\n",
				m.name, omed, oq1, oq3, nmed, nq1, nq3, m.unit, nmed/omed, omed, 100*worse, 100*m.bound, 100*spread, dir, won, pairs, v)
		}
	}
	return nil
}
