package verify_test

import (
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/verify"
)

// writeFixture writes a synthetic module ("module repro", no
// dependencies) into a temp dir and returns its root. File names are
// root-relative, so "internal/engine/x.go" lands in the path-scoped rules
// exactly like the real package would.
func writeFixture(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files = maps.Clone(files)
	files["go.mod"] = "module repro\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// lintFixture lints a synthetic module (writeFixture).
func lintFixture(t *testing.T, files map[string]string) []core.Diag {
	t.Helper()
	ds, err := verify.Lint(writeFixture(t, files))
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	return ds
}

// wantChecks asserts exactly the given lint checks fired (by count).
func wantChecks(t *testing.T, ds []core.Diag, want map[string]int) {
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

func diagsFor(ds []core.Diag, check string) []string {
	var out []string
	for _, d := range ds {
		if d.Check == check {
			out = append(out, d.String())
		}
	}
	return out
}

// lintFixtures holds one fixture per rule of verify.Lint, on which that
// rule fires alone (want), and the negative rows: code the rules must let
// through.
var lintFixtures = []struct {
	name  string
	files map[string]string
	want  map[string]int
}{
	{"norand", map[string]string{
		"internal/fix/fix.go": `package fix

import "math/rand"

func Roll() int { return rand.Intn(6) }
`,
		"internal/fix/v2.go": `package fix

import "math/rand/v2"

func Flip() bool { return rand.IntN(2) == 0 }
`,
		"internal/xrand/xrand.go": `package xrand

import "math/rand"

func New(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
`,
	}, map[string]int{"lint/norand": 2}},

	{"nopanic", map[string]string{
		"internal/fix/fix.go": `package fix

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
		"cmd/tool/main.go": `package main

func main() { panic("a command may panic") }
`,
	}, map[string]int{"lint/nopanic": 2}},

	{"noerrdrop", map[string]string{
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
	}, map[string]int{"lint/noerrdrop": 3}},

	{"nosprintf", map[string]string{
		"internal/codegen/x.go": `package codegen

import "fmt"

func name(i int) string { return fmt.Sprintf("v%d", i) }

func plain(i int) string { return fmt.Sprint(i) }
`,
		"internal/engine/x.go": `package engine

import "fmt"

func name(i int) string { return fmt.Sprintf("v%d", i) }
`,
	}, map[string]int{"lint/nosprintf": 1}},

	{"notimenow", map[string]string{
		"internal/vm/x.go": `package vm

import "time"

func stamp() int64 { return time.Now().UnixNano() }
`,
		"internal/engine/x.go": `package engine

import "time"

func stamp() int64 { return time.Now().UnixNano() }
`,
	}, map[string]int{"lint/notimenow": 1}},

	// In the lowering stack a map keyed by an instruction, a block, a
	// vreg or a machine register fires; other maps, test files and other
	// packages do not.
	{"nodensemap", map[string]string{
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
	}, map[string]int{"lint/nodensemap": 6}},

	{"lockorder", map[string]string{
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
	}, map[string]int{"lint/lockorder": 1}},

	{"waitgroup", map[string]string{
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
	}, map[string]int{"lint/waitgroup": 1}},

	// Send-after-close, double-close, close-of-parameter.
	{"chanclose", map[string]string{
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
	}, map[string]int{"lint/chanclose": 3}},

	{"atomicmix", map[string]string{
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
	}, map[string]int{"lint/atomicmix": 1}},

	// Negative rows.
	{"bug/bugf exemption", map[string]string{
		"internal/fix/fix.go": `package fix

import "fmt"

// bug and bugf are the blessed invariant helpers.
func bug(msg string) {
	panic("fix: " + msg)
}

func bugf(format string, args ...any) {
	panic("fix: " + fmt.Sprintf(format, args...))
}

func check(x int) {
	if x < 0 {
		bug("negative")
	}
	if x > 9 {
		bugf("%d too large", x)
	}
}
`,
	}, map[string]int{}},

	{"test files", map[string]string{
		"internal/engine/x.go": `package engine

import "errors"

func fail() error { return errors.New("x") }
`,
		"internal/engine/x_test.go": `package engine

func drop() {
	fail()
	_ = fail()
	panic("a test may panic")
}
`,
		"internal/codegen/x.go": "package codegen\n",
		"internal/codegen/x_test.go": `package codegen

import "fmt"

func name(i int) string { return fmt.Sprintf("v%d", i) }
`,
		"internal/vm/x.go": "package vm\n",
		"internal/vm/x_test.go": `package vm

import "time"

func stamp() int64 { return time.Now().UnixNano() }
`,
	}, map[string]int{}},

	// The one legitimate error sink on an engine path, handled as
	// engine.hwrite does.
	{"hash.Hash.Write", map[string]string{
		"internal/engine/x.go": `package engine

import "hash/fnv"

func bugf(format string, args ...any) { panic(format) }

func digest(p []byte) uint64 {
	h := fnv.New64a()
	if _, err := h.Write(p); err != nil {
		bugf("digest write failed: %v", err)
	}
	return h.Sum64()
}
`,
	}, map[string]int{}},

	{"consistent lock order", map[string]string{
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
	}, map[string]int{}},
}

// TestLintEveryRuleCatchesAFixtureAlone: every rule verify.Lint can emit
// (but lint/typecheck, the linter's own failure to type-check) fires
// alone on a fixture of its own, and the negative rows fire nothing. go
// vet passes every fixture: a rule vet also caught would only repeat vet,
// which CI runs, and is deleted instead.
func TestLintEveryRuleCatchesAFixtureAlone(t *testing.T) {
	fixtures := map[string]bool{}
	for _, fx := range lintFixtures {
		fixtures["lint/"+fx.name] = true
	}
	for _, file := range []string{"lint.go", "concurrency.go"} {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range regexp.MustCompile(`"(lint/[a-z]+)"`).FindAllStringSubmatch(string(src), -1) {
			if rule := m[1]; rule != "lint/typecheck" && !fixtures[rule] {
				t.Errorf("%s (%s) has no fixture", rule, file)
			}
		}
	}

	for _, fx := range lintFixtures {
		t.Run(fx.name, func(t *testing.T) {
			root := writeFixture(t, fx.files)
			ds, err := verify.Lint(root)
			if err != nil {
				t.Fatalf("lint: %v", err)
			}
			wantChecks(t, ds, fx.want)
			if testing.Short() {
				return
			}
			vet := exec.Command("go", "vet", "./...")
			vet.Dir = root
			vet.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOWORK=off", "GOPROXY=off", "GOTOOLCHAIN=local")
			if out, err := vet.CombinedOutput(); err != nil || len(out) > 0 {
				t.Errorf("go vet reports the fixture (%v):\n%s", err, out)
			}
		})
	}
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
