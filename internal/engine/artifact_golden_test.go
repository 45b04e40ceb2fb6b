package engine

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/ir"
	"repro/internal/queries"
)

var updateArtifactGolden = flag.Bool("update-artifact-golden", false,
	"rewrite testdata/artifact_golden.txt from this build's compiles (only when an artifact change is intended)")

// artifactDigest is one statement's lines of the golden, one per program:
// the serial program, and the parallel program named name+"/parallel"
// (Compiled.Parallel). A line is an FNV-1a digest of everything a compile
// hands downstream — the optimized module as printed (instruction IDs
// included), the dictionary's lineage journal in report order, the native
// code, the native→IR debug map, the spill count, and the IDs of the loads
// marked ir.Instr.Invariant (the printer does not show the mark, and code
// motion reads it) — and, for the serial program, what the optimizer
// counted.
func artifactDigest(t *testing.T, name string, cq *Compiled) string {
	t.Helper()
	par, err := cq.Parallel()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return programDigest(name, cq.serial(), fmt.Sprintf(" stats=%+v", cq.OptStats)) +
		programDigest(name+"/parallel", *par, "")
}

func programDigest(name string, p Program, stats string) string {
	sum := func(write func(w io.Writer)) uint64 {
		h := fnv.New64a()
		write(h)
		return h.Sum64()
	}
	irSum := sum(func(w io.Writer) { io.WriteString(w, p.Module.Print(nil)) })
	journal := sum(func(b io.Writer) {
		for _, ev := range p.Dict.Journal() {
			fmt.Fprintf(b, "%d %d %v\n", ev.Kind, ev.ID, ev.Srcs)
		}
	})
	code := sum(func(b io.Writer) {
		for _, in := range p.Code.Program.Code {
			fmt.Fprintf(b, "%+v\n", in)
		}
		fmt.Fprintf(b, "%+v\n", p.Code.Program.Funcs)
	})
	nm := p.Code.NMap
	nmap := sum(func(b io.Writer) {
		for i := range nm.IRs {
			fmt.Fprintf(b, "%v %d %q %v\n", nm.IRs[i], nm.Region[i], nm.Routine[i], nm.Inverted[i])
		}
	})
	inv := sum(func(b io.Writer) {
		var ids []int
		p.Module.ForEachInstr(func(_ *ir.Func, _ *ir.Block, in *ir.Instr) {
			if in.Invariant {
				ids = append(ids, in.ID)
			}
		})
		slices.Sort(ids)
		fmt.Fprintln(b, ids)
	})
	return fmt.Sprintf("%s ir=%016x maxid=%d%s journal=%016x code=%016x nmap=%016x spills=%d slots=%d inv=%016x\n",
		name, irSum, p.Module.MaxID(), stats, journal, code, nmap, p.Code.Spills, p.Code.SpillSlots, inv)
}

// TestArtifactGolden pins the compile path's output: every statement of
// the programmatic suite and the SQL suite must lower to exactly the
// programs, serial and parallel, recorded in testdata/artifact_golden.txt. A change to internal/ir,
// internal/iropt or internal/codegen that is meant to be invisible
// (host-speed work) passes this unchanged.
func TestArtifactGolden(t *testing.T) {
	cat := datagen.Generate(datagen.Config{ScaleFactor: 0.05, Seed: 7})
	e := New(cat, DefaultOptions())
	var got bytes.Buffer
	for _, w := range queries.Suite() {
		cq, err := e.CompileQuery(w.Query)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		got.WriteString(artifactDigest(t, "suite/"+w.Name, cq))
	}
	for _, w := range queries.SQLSuite() {
		cq, err := e.CompileSQL(w.SQL)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		got.WriteString(artifactDigest(t, "sql/"+w.Name, cq))
	}

	const path = "testdata/artifact_golden.txt"
	if *updateArtifactGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("artifact drifted from %s at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("artifact golden has %d lines, this build produced %d", len(wl), len(gl))
	}
}
