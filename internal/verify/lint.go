package verify

// The source linter: repository rules checked with go/ast + go/types only
// (no external analysis frameworks). The rules all guard properties the
// profiler depends on:
//
//   - determinism: simulated runs must replay bit-identically, so
//     math/rand (global, seed-racy) is banned outside internal/xrand,
//     and time.Now is banned in the simulated-machine packages (the VM
//     and PMU have their own TSC — wall-clock reads would leak
//     nondeterminism into sample timestamps);
//   - compile speed: fmt.Sprintf allocates per call; the hot compile
//     path (pipeline → iropt → codegen, the path BenchmarkCompileSQL
//     guards) must build names by concatenation instead;
//   - compile allocations: in the lowering stack (ir → iropt → codegen)
//     instructions, blocks, virtual and machine registers all carry
//     dense indices, so a map keyed by one of them is a slice or bitset
//     paying for hashing, growth and GC on every cold statement
//     (TestCompileFootprint guards the count; this guards the cause).
//
// A lock copied by value is go vet's copylocks check, which CI runs; the
// concurrency rules of concurrency.go cover what vet does not.

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
)

// modulePath is the module this repository builds ("module repro" in
// go.mod); the source importer maps its import paths onto directories.
const modulePath = "repro"

// hotCompilePaths are the packages on the query-compilation hot path,
// measured by BenchmarkCompileSQL: fmt.Sprintf is banned here because
// name formatting showed up in compile profiles (each call allocates).
var hotCompilePaths = map[string]bool{
	modulePath + "/internal/pipeline": true,
	modulePath + "/internal/iropt":    true,
	modulePath + "/internal/codegen":  true,
}

// denseIndexPaths are the lowering-stack packages whose per-instruction,
// per-block and per-register tables must be slices or bitsets over the
// dense index the key already carries (Instr.ID, Block.Index, the vreg or
// register number). internal/ir is on the compile hot path too but is
// not in hotCompilePaths: its fmt.Sprintf calls are the printer and the
// verifier's failure-path messages.
var denseIndexPaths = map[string]bool{
	modulePath + "/internal/ir":      true,
	modulePath + "/internal/iropt":   true,
	modulePath + "/internal/codegen": true,
}

// denseKey names t when it is one of the densely indexed key types of the
// lowering stack: *ir.Instr, *ir.Block, codegen's vreg, isa.Reg.
func denseKey(t types.Type) string {
	ptr, isPtr := t.(*types.Pointer)
	if isPtr {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	pkg, name := named.Obj().Pkg().Path(), named.Obj().Name()
	switch {
	case isPtr && pkg == modulePath+"/internal/ir" && (name == "Instr" || name == "Block"):
		return "*ir." + name
	case !isPtr && pkg == modulePath+"/internal/codegen" && name == "vreg":
		return "vreg"
	case !isPtr && pkg == modulePath+"/internal/isa" && name == "Reg":
		return "isa.Reg"
	}
	return ""
}

// deterministicPaths are the simulated-machine packages where wall-clock
// reads would make runs non-replayable.
var deterministicPaths = map[string]bool{
	modulePath + "/internal/vm":  true,
	modulePath + "/internal/pmu": true,
}

// randExemptPath is the one package allowed to own randomness.
const randExemptPath = modulePath + "/internal/xrand"

// errStrictPaths are the engine/service hot paths where a silently
// discarded error turns a failed compile or a poisoned cache entry into
// wrong profile numbers instead of a visible failure.
var errStrictPaths = map[string]bool{
	modulePath + "/internal/engine": true,
	modulePath + "/internal/qcache": true,
}

// Lint type-checks every package under root and applies the repository
// rules. The returned diagnostics use file:line loci. A non-nil error
// means the linter itself could not run (unreadable tree); broken Go code
// surfaces as lint/typecheck diagnostics, not an error.
func Lint(root string) ([]Diag, error) {
	dirs, err := goDirs(root)
	if err != nil {
		return nil, err
	}
	l := &linter{
		fset:  token.NewFileSet(),
		root:  root,
		cache: map[string]*types.Package{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)

	var out []Diag
	for _, dir := range dirs {
		out = append(out, l.lintDir(dir)...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Locus < out[j].Locus })
	return out, nil
}

// goDirs returns every directory under root that contains .go files,
// skipping VCS internals and testdata trees.
func goDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.Walk(root, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.IsDir() {
			name := fi.Name()
			if name == ".git" || name == "testdata" || (name != "." && strings.HasPrefix(name, ".") && path != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	return dirs, err
}

type linter struct {
	fset  *token.FileSet
	root  string
	cache map[string]*types.Package
	std   types.Importer
}

// Import implements types.Importer: module-internal paths are resolved to
// repository directories and type-checked from source; everything else
// (the standard library) is delegated to the compiler's source importer.
func (l *linter) Import(path string) (*types.Package, error) {
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	if path == modulePath || strings.HasPrefix(path, modulePath+"/") {
		dir := filepath.Join(l.root, strings.TrimPrefix(strings.TrimPrefix(path, modulePath), "/"))
		files, err := l.parseDir(dir, func(name string) bool {
			return !strings.HasSuffix(name, "_test.go")
		})
		if err != nil {
			return nil, err
		}
		cfg := types.Config{Importer: l}
		pkg, err := cfg.Check(path, l.fset, files, nil)
		if err != nil {
			return nil, err
		}
		l.cache[path] = pkg
		return pkg, nil
	}
	return l.std.Import(path)
}

func (l *linter) parseDir(dir string, keep func(string) bool) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || !keep(e.Name()) {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// importPath maps a repository directory back to its import path.
func (l *linter) importPath(dir string) string {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil || rel == "." {
		return modulePath
	}
	return modulePath + "/" + filepath.ToSlash(rel)
}

// lintDir applies every rule to one package directory. The directory is
// checked as up to two type-checking units: the package including its
// in-package tests, and the external _test package if present.
func (l *linter) lintDir(dir string) []Diag {
	path := l.importPath(dir)

	all, err := l.parseDir(dir, func(string) bool { return true })
	if err != nil {
		return []Diag{lintDiag("typecheck", dir, "%v", err)}
	}
	if len(all) == 0 {
		return nil
	}

	// Split into the package unit (lib + in-package tests) and the
	// external test unit (package foo_test).
	base := all[0].Name.Name
	for _, f := range all {
		if !strings.HasSuffix(f.Name.Name, "_test") {
			base = f.Name.Name
			break
		}
	}
	var unitMain, unitXTest []*ast.File
	for _, f := range all {
		if f.Name.Name == base {
			unitMain = append(unitMain, f)
		} else {
			unitXTest = append(unitXTest, f)
		}
	}

	var out []Diag
	imp := l
	for _, unit := range [][]*ast.File{unitMain, unitXTest} {
		if len(unit) == 0 {
			continue
		}
		info := &types.Info{
			Uses:       map[*ast.Ident]types.Object{},
			Defs:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Types:      map[ast.Expr]types.TypeAndValue{},
		}
		cfg := types.Config{Importer: imp}
		pkg, err := cfg.Check(path, l.fset, unit, info)
		if err != nil {
			out = append(out, lintDiag("typecheck", dir, "%v", err))
			continue
		}
		if len(unitXTest) > 0 && imp == l {
			// The external test unit imports the package as checked with
			// its in-package tests.
			imp = l.forExternalTests(path, pkg)
		}
		for _, f := range unit {
			out = append(out, l.lintFile(path, f, info)...)
		}
		// The concurrency rules need whole-unit state (lock orders and
		// atomically-accessed fields are package-level properties).
		out = append(out, l.lintConcurrency(path, unit, info)...)
	}
	return out
}

// forExternalTests returns the importer the external test unit of path is
// checked with. As in the test binary the go tool builds, path resolves to
// pkg — the package together with its in-package tests, whose exported
// helpers the unit may use (the export_test idiom) — and every package
// that imports path is checked again, against pkg. Packages that do not
// depend on path keep their cached identity.
func (l *linter) forExternalTests(path string, pkg *types.Package) *linter {
	x := &linter{fset: l.fset, root: l.root, std: l.std, cache: map[string]*types.Package{path: pkg}}
	for p, cached := range l.cache {
		if p != path && !dependsOn(cached, path, map[*types.Package]bool{}) {
			x.cache[p] = cached
		}
	}
	return x
}

// dependsOn reports whether pkg is, or transitively imports, path.
func dependsOn(pkg *types.Package, path string, seen map[*types.Package]bool) bool {
	if pkg.Path() == path {
		return true
	}
	if seen[pkg] {
		return false
	}
	seen[pkg] = true
	for _, imported := range pkg.Imports() {
		if dependsOn(imported, path, seen) {
			return true
		}
	}
	return false
}

// pos renders a token position as a root-relative file:line locus.
func (l *linter) pos(p token.Pos) string {
	position := l.fset.Position(p)
	rel, err := filepath.Rel(l.root, position.Filename)
	if err != nil {
		rel = position.Filename
	}
	return rel + ":" + strconv.Itoa(position.Line)
}

func lintDiag(rule, locus string, format string, args ...interface{}) Diag {
	return Diag{
		Check: "lint/" + rule, Level: core.LevelOperator,
		Locus: locus, Msg: fmt.Sprintf(format, args...),
	}
}

func (l *linter) lintFile(pkgPath string, f *ast.File, info *types.Info) []Diag {
	var out []Diag
	pos := l.pos
	fileName := l.fset.Position(f.Pos()).Filename
	isTest := strings.HasSuffix(fileName, "_test.go")

	// Rule: no math/rand outside internal/xrand. Tests included — a test
	// seeded from the global source is exactly the flake this prevents.
	if pkgPath != randExemptPath && !strings.HasPrefix(pkgPath, randExemptPath+"/") {
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if p == "math/rand" || p == "math/rand/v2" {
				out = append(out, lintDiag("norand", pos(imp.Pos()),
					"import of %s outside %s: use internal/xrand for deterministic randomness", p, randExemptPath))
			}
		}
	}

	// Rule: no panic in library packages outside the bug/bugf
	// invariant-violation helpers. A library panic is either a violated
	// internal invariant (then it belongs in bug/bugf, where the message
	// gets the package prefix and the rule's blessing) or input
	// validation (then it should be an error).
	if !isTest && strings.HasPrefix(pkgPath, modulePath+"/internal/") {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil &&
				(fd.Name.Name == "bug" || fd.Name.Name == "bugf") {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, isID := call.Fun.(*ast.Ident); isID && id.Name == "panic" {
					if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
						out = append(out, lintDiag("nopanic", pos(call.Pos()),
							"panic in a library package: report invariant violations through the package's bug/bugf helper, and turn input validation into errors"))
					}
				}
				return true
			})
		}
	}

	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ExprStmt:
			// Rule: no silently discarded error on the engine/service hot
			// paths — a call whose error result is not consumed.
			if errStrictPaths[pkgPath] && !isTest {
				if call, isCall := x.X.(*ast.CallExpr); isCall && returnsError(call, info) {
					out = append(out, lintDiag("noerrdrop", pos(x.Pos()),
						"call discards its error result on an engine/service path; handle or explicitly propagate it"))
				}
			}
		case *ast.AssignStmt:
			// Rule (noerrdrop): no `_` in an error position of a call result.
			if errStrictPaths[pkgPath] && !isTest {
				out = append(out, checkErrBlank(x, info, pos)...)
			}
		case *ast.CallExpr:
			// Rule: no fmt.Sprintf on the compile hot path (non-test code).
			if hotCompilePaths[pkgPath] && !isTest && isPkgFunc(x.Fun, info, "fmt", "Sprintf") {
				out = append(out, lintDiag("nosprintf", pos(x.Pos()),
					"fmt.Sprintf on the compile hot path (BenchmarkCompileSQL): build the string without formatting"))
			}
			// Rule: no time.Now in the deterministic VM/PMU packages.
			if deterministicPaths[pkgPath] && !isTest && isPkgFunc(x.Fun, info, "time", "Now") {
				out = append(out, lintDiag("notimenow", pos(x.Pos()),
					"time.Now in a deterministic simulation package: use the simulated TSC"))
			}
		case *ast.MapType:
			// Rule: no map keyed by a densely indexed type in the lowering
			// stack (non-test code; the reference_test.go oracles keep theirs).
			if denseIndexPaths[pkgPath] && !isTest {
				if t := info.TypeOf(x.Key); t != nil {
					if key := denseKey(t); key != "" {
						out = append(out, lintDiag("nodensemap", pos(x.Pos()),
							"map keyed by %s in the lowering stack: index a slice or ir.Bitset by the key's dense index instead", key))
					}
				}
			}
		}
		return true
	})
	return out
}

// errType is the predeclared error interface type.
var errType = types.Universe.Lookup("error").Type()

// returnsError reports whether any result of the call has type error.
func returnsError(call *ast.CallExpr, info *types.Info) bool {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	if tuple, isTuple := tv.Type.(*types.Tuple); isTuple {
		for i := 0; i < tuple.Len(); i++ {
			if types.Identical(tuple.At(i).Type(), errType) {
				return true
			}
		}
		return false
	}
	return types.Identical(tv.Type, errType)
}

// checkErrBlank flags blank identifiers bound to error-typed results in an
// assignment (x, _ := f() where f's second result is an error).
func checkErrBlank(as *ast.AssignStmt, info *types.Info, pos func(token.Pos) string) []Diag {
	var out []Diag
	flag := func(p token.Pos) {
		out = append(out, lintDiag("noerrdrop", pos(p),
			"error result assigned to _ on an engine/service path; handle or explicitly propagate it"))
	}
	isBlank := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == "_"
	}
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		// Multi-value call: map tuple positions onto the LHS.
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return out
		}
		tv, ok := info.Types[call]
		if !ok {
			return out
		}
		tuple, ok := tv.Type.(*types.Tuple)
		if !ok || tuple.Len() != len(as.Lhs) {
			return out
		}
		for i, lhs := range as.Lhs {
			if isBlank(lhs) && types.Identical(tuple.At(i).Type(), errType) {
				flag(lhs.Pos())
			}
		}
		return out
	}
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) || !isBlank(lhs) {
			continue
		}
		if t := info.TypeOf(as.Rhs[i]); t != nil && types.Identical(t, errType) {
			flag(lhs.Pos())
		}
	}
	return out
}

// isPkgFunc reports whether fun is a selector pkg.name where pkg resolves
// to the named standard-library package (not a shadowing local).
func isPkgFunc(fun ast.Expr, info *types.Info, pkg, name string) bool {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == pkg
}
