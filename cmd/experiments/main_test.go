package main

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"

	"repro/internal/experiments"
)

var update = flag.Bool("update", false,
	"rewrite experiments_output.txt up to Table 3 from this build's report (only when a paper number is meant to move)")

// TestEvaluationGolden: the paper's evaluation is a golden. The report of
// `experiments -exp all -sf 1.0 -seed 42` is experiments_output.txt byte
// for byte up to "=== Table 3"; Table 3's line counts (-exp loc) stay out,
// because they move with every change to the code. A change that moves a
// paper number shows it in its diff: run with -update to rewrite the file.
func TestEvaluationGolden(t *testing.T) {
	const path, table3 = "../../experiments_output.txt", "=== Table 3"
	recorded, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := bytes.Index(recorded, []byte(table3))
	if cut < 0 {
		t.Fatalf("%s has no %q section", path, table3)
	}
	var got strings.Builder
	for _, r := range runners(experiments.NewEnv(1.0, 42), "../..") {
		if r.name == "loc" {
			continue
		}
		s, err := r.run()
		if err != nil {
			t.Fatalf("experiment %s: %v", r.name, err)
		}
		got.WriteString(s + "\n")
	}
	if *update {
		if err := os.WriteFile(path, append([]byte(got.String()), recorded[cut:]...), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if want := string(recorded[:cut]); got.String() != want {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(want, "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("%s:%d differs from this build's report (rerun with -update if the change is meant):\n got %q\nwant %q",
					path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s has %d lines before %q, this build's report %d (rerun with -update if the change is meant)",
			path, len(wl), table3, len(gl))
	}
}
