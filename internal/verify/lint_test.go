package verify_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/verify"
)

// repoRoot walks up from the package directory to the go.mod.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}

// TestLintRepoClean runs the source linter over the whole repository —
// the same gate CI enforces via tprofvet lint. A violation of any rule
// anywhere (a stray math/rand import, a Sprintf on the compile hot path,
// a wall-clock read in the VM, a discarded error on an engine path)
// fails this test with the offending file:line.
func TestLintRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repository; skipped in -short")
	}
	ds, err := verify.Lint(repoRoot(t))
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	for _, d := range ds {
		t.Errorf("%s", d.String())
	}
}
