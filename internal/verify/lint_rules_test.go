package verify_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/verify"
)

// lintFixture lints a synthetic module rooted in a temp dir. File names
// are root-relative, so "internal/engine/x.go" lands in the path-scoped
// rules exactly like the real package would.
func lintFixture(t *testing.T, files map[string]string) []verify.Diag {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := verify.Lint(root)
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	return ds
}

// wantChecks asserts exactly the given lint checks fired (by count).
func wantChecks(t *testing.T, ds []verify.Diag, want map[string]int) {
	t.Helper()
	got := map[string]int{}
	for _, d := range ds {
		got[d.Check]++
	}
	for check, n := range want {
		if got[check] != n {
			t.Errorf("%s: got %d diagnostics, want %d", check, got[check], n)
		}
	}
	for check, n := range got {
		if _, ok := want[check]; !ok {
			t.Errorf("unexpected %s (%d): %v", check, n, diagsFor(ds, check))
		}
	}
}

func diagsFor(ds []verify.Diag, check string) []string {
	var out []string
	for _, d := range ds {
		if d.Check == check {
			out = append(out, d.String())
		}
	}
	return out
}

func TestLintNoPanic(t *testing.T) {
	ds := lintFixture(t, map[string]string{
		"internal/fix/fix.go": `package fix

// bug is the blessed invariant helper.
func bug(msg string) {
	panic("fix: " + msg)
}

func bad() {
	panic("boom")
}

func alsoBad(x int) int {
	if x < 0 {
		panic("negative")
	}
	return x
}
`,
	})
	wantChecks(t, ds, map[string]int{"lint/nopanic": 2})
}

func TestLintNoErrDrop(t *testing.T) {
	ds := lintFixture(t, map[string]string{
		"internal/engine/x.go": `package engine

import "errors"

func fail() error { return errors.New("x") }

func pair() (int, error) { return 0, errors.New("x") }

func use() int {
	fail()
	_ = fail()
	v, _ := pair()
	w := v
	_ = w // not an error: blank of a non-error value is fine
	return w
}
`,
	})
	wantChecks(t, ds, map[string]int{"lint/noerrdrop": 3})
}

// TestLintNoDenseMap: in the lowering stack a map keyed by an
// instruction, a block, a vreg or a machine register is an error — the
// key carries a dense index — while other maps, and test files, pass.
func TestLintNoDenseMap(t *testing.T) {
	ds := lintFixture(t, map[string]string{
		"internal/isa/isa.go": `package isa

type Reg uint8
`,
		"internal/ir/ir.go": `package ir

type Instr struct{ ID int }
type Block struct{ Index int }

var pos = map[*Instr]int{}
var names = map[string]*Block{}
`,
		"internal/codegen/x.go": `package codegen

import (
	"repro/internal/ir"
	"repro/internal/isa"
)

type vreg int32

type lowerer struct {
	regOf   map[*ir.Instr]vreg
	blockIx map[*ir.Block]int
}

func live() map[vreg]bool { return make(map[vreg]bool) }

var inUse map[isa.Reg]bool

var symbols = map[string]int{}
var byID = map[int]*ir.Instr{}
`,
		"internal/codegen/reference_test.go": `package codegen

var refLive = map[vreg]bool{}
`,
		"internal/engine/x.go": `package engine

import "repro/internal/ir"

var elsewhere = map[*ir.Instr]int{}
`,
	})
	wantChecks(t, ds, map[string]int{"lint/nodensemap": 6})
}

func TestLintLockOrder(t *testing.T) {
	inverted := map[string]string{
		"internal/fix/fix.go": `package fix

import "sync"

type S struct {
	a, b sync.Mutex
}

func f(s *S) {
	s.a.Lock()
	s.b.Lock()
	s.b.Unlock()
	s.a.Unlock()
}

func g(s *S) {
	s.b.Lock()
	s.a.Lock()
	s.a.Unlock()
	s.b.Unlock()
}
`,
	}
	ds := lintFixture(t, inverted)
	wantChecks(t, ds, map[string]int{"lint/lockorder": 1})

	consistent := map[string]string{
		"internal/fix/fix.go": `package fix

import "sync"

type S struct {
	a, b sync.Mutex
}

func f(s *S) {
	s.a.Lock()
	s.b.Lock()
	s.b.Unlock()
	s.a.Unlock()
}

func g(s *S) {
	s.a.Lock()
	defer s.a.Unlock()
	s.b.Lock()
	defer s.b.Unlock()
}
`,
	}
	wantChecks(t, lintFixture(t, consistent), map[string]int{})
}

func TestLintWaitGroup(t *testing.T) {
	ds := lintFixture(t, map[string]string{
		"internal/fix/fix.go": `package fix

import "sync"

func racy() {
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		go func() {
			wg.Add(1)
			defer wg.Done()
		}()
	}
	wg.Wait()
}

func sound() {
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
		}()
	}
	wg.Wait()
}
`,
	})
	wantChecks(t, ds, map[string]int{"lint/waitgroup": 1})
}

func TestLintChanClose(t *testing.T) {
	ds := lintFixture(t, map[string]string{
		"internal/fix/fix.go": `package fix

func sendAfterClose() {
	ch := make(chan int)
	close(ch)
	ch <- 1
	close(ch)
}

func closeParam(ch chan int) {
	close(ch)
}

func fine() chan int {
	ch := make(chan int, 1)
	ch <- 1
	close(ch)
	return ch
}
`,
	})
	// send-after-close, double-close, close-of-parameter.
	wantChecks(t, ds, map[string]int{"lint/chanclose": 3})
}

func TestLintAtomicMix(t *testing.T) {
	ds := lintFixture(t, map[string]string{
		"internal/fix/fix.go": `package fix

import "sync/atomic"

type C struct {
	n int64
	m int64
}

func inc(c *C) {
	atomic.AddInt64(&c.n, 1)
}

func reset(c *C) {
	c.n = 0
	c.m = 0 // plain-only field: fine
}
`,
	})
	wantChecks(t, ds, map[string]int{"lint/atomicmix": 1})
}

// TestLintConcurrencyDiagsAreErrors: the concurrency rules report their
// findings — each one an error, as every Diag is — at root-relative loci.
func TestLintConcurrencyDiagsAreErrors(t *testing.T) {
	ds := lintFixture(t, map[string]string{
		"internal/fix/fix.go": `package fix

func bad() {
	ch := make(chan int)
	close(ch)
	close(ch)
}
`,
	})
	if len(ds) == 0 {
		t.Fatal("no diagnostics")
	}
	for _, d := range ds {
		if !strings.HasPrefix(d.Locus, "internal/fix/") {
			t.Errorf("locus %q not root-relative", d.Locus)
		}
	}
}

// TestLintExternalTestSeesTestHelpers: an external test package may use
// what the package's in-package test files export (the export_test idiom),
// through a dependent package too, as in the test binary the go tool
// builds; a name no file declares is still a typecheck diagnostic.
func TestLintExternalTestSeesTestHelpers(t *testing.T) {
	files := map[string]string{
		"internal/base/base.go": `package base

type T struct{ n int }

func New() *T { return &T{n: 1} }
`,
		"internal/base/export_test.go": `package base

func N(t *T) int { return t.n }
`,
		"internal/user/user.go": `package user

import "repro/internal/base"

func Make() *base.T { return base.New() }
`,
		"internal/base/base_x_test.go": `package base_test

import (
	"testing"

	"repro/internal/base"
	"repro/internal/user"
)

func TestN(t *testing.T) {
	if base.N(user.Make()) != 1 {
		t.Fatal("n")
	}
}
`,
	}
	wantChecks(t, lintFixture(t, files), map[string]int{})
	files["internal/base/export_test.go"] = "package base\n"
	wantChecks(t, lintFixture(t, files), map[string]int{"lint/typecheck": 1})
}
