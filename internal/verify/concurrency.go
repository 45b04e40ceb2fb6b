package verify

// The concurrency analyzer: go/ast + go/types discipline rules for the
// coordinator code (morsel dispatch, partitioned merge, shard execution,
// the service cache). The VM itself is single-threaded and deterministic;
// the host-side coordinators are ordinary Go concurrency, and a latent
// race there corrupts profiles nondeterministically — the worst possible
// failure mode for a profiling tool, since it looks like attribution
// noise. The rules are deliberately shallow (single-package, mostly
// function-local) so they stay fast and false-positive-free:
//
//   - lockorder: two mutexes acquired in inconsistent nesting orders
//     anywhere in a package is a latent deadlock;
//   - waitgroup: WaitGroup.Add inside the goroutine it accounts for races
//     with Wait (the canonical misuse the sync docs warn about);
//   - atomicmix: a field accessed through sync/atomic in one place and by
//     plain load/store elsewhere has no happens-before edge at all;
//   - chanclose: send-after-close and double-close in the same function,
//     and closing a channel that arrived as a parameter (the closer should
//     be the goroutine that owns the send side).

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/core"
)

// lintConcurrency applies the concurrency rules to one type-checked unit.
func (l *linter) lintConcurrency(pkgPath string, unit []*ast.File, info *types.Info) []core.Diag {
	c := &concChecker{l: l, pkgPath: pkgPath, info: info,
		lockPairs: map[[2]string]token.Pos{}, atomicFields: map[types.Object]token.Pos{}}
	for _, f := range unit {
		if strings.HasSuffix(l.fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		c.collectAtomicFields(f)
	}
	for _, f := range unit {
		if strings.HasSuffix(l.fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		c.checkFile(f)
		c.checkAtomicStores(f)
	}
	// Lock-order inversions are a package-level property: report once per
	// inverted pair, at the later acquisition site.
	for pair, pos := range c.lockPairs {
		inv := [2]string{pair[1], pair[0]}
		if ipos, ok := c.lockPairs[inv]; ok && pair[0] < pair[1] {
			c.diag(pos, "lint/lockorder", "%s acquired while holding %s, but %s is also acquired while holding %s (at %s): inconsistent lock order is a latent deadlock",
				pair[1], pair[0], pair[0], pair[1], c.l.pos(ipos))
		}
	}
	return c.out
}

type concChecker struct {
	l       *linter
	pkgPath string
	info    *types.Info
	out     []core.Diag

	// lockPairs records "inner acquired while outer held": [outer, inner]
	// keyed by lock identity, valued by the inner acquisition site.
	lockPairs map[[2]string]token.Pos
	// atomicFields maps struct fields accessed via sync/atomic address-of
	// calls to one such call site.
	atomicFields map[types.Object]token.Pos
}

func (c *concChecker) diag(p token.Pos, check, format string, args ...interface{}) {
	c.out = append(c.out, core.Diagf(check, core.LevelOperator, c.l.pos(p), format, args...))
}

// syncMethod resolves a call like x.Lock() to (receiver expr, sync type
// name, method name) when the method belongs to a sync package type.
func (c *concChecker) syncMethod(call *ast.CallExpr) (ast.Expr, string, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, "", "", false
	}
	s, ok := c.info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return nil, "", "", false
	}
	recv := s.Recv()
	if p, isPtr := recv.(*types.Pointer); isPtr {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return nil, "", "", false
	}
	return sel.X, named.Obj().Name(), sel.Sel.Name, true
}

// lockKey names a mutex stably across functions: field selectors key by
// the owning named type ("qcache.Cache.mu"), package vars by package path,
// locals by enclosing-function identity (fnKey).
func (c *concChecker) lockKey(e ast.Expr, fnKey string) string {
	switch x := e.(type) {
	case *ast.Ident:
		if obj := c.info.Uses[x]; obj != nil && obj.Pkg() != nil &&
			obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Path() + "." + x.Name
		}
		return fnKey + ":" + x.Name
	case *ast.SelectorExpr:
		if s, ok := c.info.Selections[x]; ok && s.Kind() == types.FieldVal {
			recv := s.Recv()
			if p, isPtr := recv.(*types.Pointer); isPtr {
				recv = p.Elem()
			}
			if named, isNamed := recv.(*types.Named); isNamed {
				return types.TypeString(named, nil) + "." + x.Sel.Name
			}
		}
		return fnKey + ":" + types.ExprString(x)
	case *ast.ParenExpr:
		return c.lockKey(x.X, fnKey)
	case *ast.UnaryExpr:
		return c.lockKey(x.X, fnKey)
	}
	return fnKey + ":" + types.ExprString(e)
}

// collectAtomicFields records struct fields whose address is passed to a
// sync/atomic function (atomic.AddInt64(&x.f, ...)).
func (c *concChecker) collectAtomicFields(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		if pn, isPkg := c.info.Uses[id].(*types.PkgName); !isPkg || pn.Imported().Path() != "sync/atomic" {
			return true
		}
		for _, arg := range call.Args {
			u, isAddr := arg.(*ast.UnaryExpr)
			if !isAddr || u.Op != token.AND {
				continue
			}
			fs, isSel := u.X.(*ast.SelectorExpr)
			if !isSel {
				continue
			}
			if s, isField := c.info.Selections[fs]; isField && s.Kind() == types.FieldVal {
				if _, seen := c.atomicFields[s.Obj()]; !seen {
					c.atomicFields[s.Obj()] = call.Pos()
				}
			}
		}
		return true
	})
}

// fnCtx is the per-function (or per-closure) analysis state.
type fnCtx struct {
	key  string
	held []string // lock keys currently held, in acquisition order
	// closedIn maps a channel object to its close() position within the
	// statement walk, for send-after-close and double-close.
	closed map[types.Object]token.Pos
	// inGo marks a function literal launched via a go statement.
	inGo bool
	// bodyPos brackets the context body, to decide capture-vs-local.
	bodyLo, bodyHi token.Pos
}

func (c *concChecker) checkFile(f *ast.File) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		c.walkFn(fd.Body, &fnCtx{
			key:    c.pkgPath + "." + fd.Name.Name,
			closed: map[types.Object]token.Pos{},
			bodyLo: fd.Body.Pos(), bodyHi: fd.Body.End(),
		}, fd)
	}
}

// chanObj resolves the root object of a channel expression (ident or the
// leaf field of a selector), or nil.
func (c *concChecker) chanObj(e ast.Expr) types.Object {
	switch x := e.(type) {
	case *ast.Ident:
		return c.info.Uses[x]
	case *ast.SelectorExpr:
		if s, ok := c.info.Selections[x]; ok {
			return s.Obj()
		}
	case *ast.ParenExpr:
		return c.chanObj(x.X)
	}
	return nil
}

// walkFn walks one function or closure body in source order, maintaining
// held locks and close/send channel state. fd is the enclosing declaration
// (for parameter identification), nil inside closures.
func (c *concChecker) walkFn(body *ast.BlockStmt, ctx *fnCtx, fd *ast.FuncDecl) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			if lit, ok := x.Call.Fun.(*ast.FuncLit); ok && lit.Body != nil {
				c.walkFn(lit.Body, &fnCtx{
					key:    ctx.key + ".go",
					closed: map[types.Object]token.Pos{},
					inGo:   true,
					bodyLo: lit.Body.Pos(), bodyHi: lit.Body.End(),
				}, nil)
				return false
			}
			return true
		case *ast.FuncLit:
			// Non-go closure: fresh lock context (it runs who-knows-when),
			// same goroutine assumptions otherwise.
			if x.Body != nil {
				c.walkFn(x.Body, &fnCtx{
					key:    ctx.key + ".func",
					closed: map[types.Object]token.Pos{},
					inGo:   ctx.inGo,
					bodyLo: x.Body.Pos(), bodyHi: x.Body.End(),
				}, nil)
			}
			return false
		case *ast.DeferStmt:
			// A deferred Unlock keeps the lock held to function end; no
			// state change. Other deferred calls are ignored.
			return false
		case *ast.SendStmt:
			if obj := c.chanObj(x.Chan); obj != nil {
				if cpos, closed := ctx.closed[obj]; closed {
					c.diag(x.Pos(), "lint/chanclose",
						"send on %s after it was closed at %s", obj.Name(), c.l.pos(cpos))
				}
			}
			return true
		case *ast.CallExpr:
			c.checkCall(x, ctx, fd)
			return true
		}
		return true
	})
}

func (c *concChecker) checkCall(call *ast.CallExpr, ctx *fnCtx, fd *ast.FuncDecl) {
	// close(ch): double-close, close-of-parameter.
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "close" && len(call.Args) == 1 {
		if _, isBuiltin := c.info.Uses[id].(*types.Builtin); isBuiltin {
			obj := c.chanObj(call.Args[0])
			if obj == nil {
				return
			}
			if prev, closed := ctx.closed[obj]; closed {
				c.diag(call.Pos(), "lint/chanclose",
					"%s closed twice (first at %s)", obj.Name(), c.l.pos(prev))
			}
			ctx.closed[obj] = call.Pos()
			if fd != nil && fd.Type.Params != nil {
				for _, p := range fd.Type.Params.List {
					for _, name := range p.Names {
						if c.info.Defs[name] == obj {
							c.diag(call.Pos(), "lint/chanclose",
								"close of parameter channel %s: the sender that owns the channel should close it", obj.Name())
						}
					}
				}
			}
		}
		return
	}

	recv, typeName, method, ok := c.syncMethod(call)
	if !ok {
		return
	}
	switch typeName {
	case "Mutex", "RWMutex":
		key := c.lockKey(recv, ctx.key)
		switch method {
		case "Lock", "RLock":
			for _, outer := range ctx.held {
				if outer != key {
					if _, seen := c.lockPairs[[2]string{outer, key}]; !seen {
						c.lockPairs[[2]string{outer, key}] = call.Pos()
					}
				}
			}
			ctx.held = append(ctx.held, key)
		case "Unlock", "RUnlock":
			for i := len(ctx.held) - 1; i >= 0; i-- {
				if ctx.held[i] == key {
					ctx.held = append(ctx.held[:i], ctx.held[i+1:]...)
					break
				}
			}
		}
	case "WaitGroup":
		if method == "Add" && ctx.inGo {
			// Add inside a goroutine races with the coordinator's Wait
			// unless the WaitGroup was created inside this goroutine.
			if obj := c.chanObj(recv); obj != nil &&
				!(obj.Pos() >= ctx.bodyLo && obj.Pos() <= ctx.bodyHi) {
				c.diag(call.Pos(), "lint/waitgroup",
					"WaitGroup.Add on captured %s inside a goroutine races with Wait: call Add before the go statement", obj.Name())
			}
		}
	}
}

// checkAtomicStores flags plain assignments to fields that are accessed
// via sync/atomic elsewhere in the package.
func (c *concChecker) checkAtomicStores(f *ast.File) {
	if len(c.atomicFields) == 0 {
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			sel, isSel := lhs.(*ast.SelectorExpr)
			if !isSel {
				continue
			}
			s, isField := c.info.Selections[sel]
			if !isField || s.Kind() != types.FieldVal {
				continue
			}
			if apos, mixed := c.atomicFields[s.Obj()]; mixed {
				c.diag(as.Pos(), "lint/atomicmix",
					"plain store to %s, which is accessed atomically at %s: mixing atomic and plain access has no happens-before edge", sel.Sel.Name, c.l.pos(apos))
			}
		}
		return true
	})
}
