package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Shared infrastructure of the concurrency-safety analyzers (goleak,
// lockorder, ctxflow): classification of spawned goroutine bodies, canonical
// module-wide lock keys, context/WaitGroup type tests, and the summarizer
// facets (Spawns, Locks, FuncSinks) that make the three analyzers
// interprocedural.

// goClass is the termination classification of one spawned goroutine body.
type goClass int

const (
	// goUntied: the body loops or blocks with no termination signal the
	// analyzer can see — the leak report.
	goUntied goClass = iota
	// goCtxTied: the body observes a context's Done channel; the context's
	// owner bounds its lifetime.
	goCtxTied
	// goBounded: a straight-line body with no loops or selects; it runs to
	// completion on its own.
	goBounded
	// goManaged: the body blocks on state the spawning scope cannot signal
	// (fields, globals, call results) — assumed managed elsewhere.
	goManaged
	// goObliged: the body's termination is tied to objects of the spawning
	// scope; the spawner owes the signal on every path (the ties).
	goObliged
)

// goTie is one termination tie of a spawned goroutine, resolved into the
// spawning scope: close (or send on) a channel, or Wait on a WaitGroup the
// goroutine calls Done on.
type goTie struct {
	obj  types.Object
	kind string // "close" or "wait"
}

// classifyGoBody determines how the body of a spawned goroutine terminates.
// resolve maps an object the body blocks on (a captured local, or a
// parameter of the spawned function) to the object the spawning scope must
// signal; a false return means the object is out of the spawner's reach.
func classifyGoBody(info *types.Info, body *ast.BlockStmt, resolve func(types.Object) (types.Object, bool)) (goClass, []goTie) {
	ctxTied := false
	blocking := false // loops and selects: the body does not just run off its end
	anyTie := false   // some termination tie exists, trackable or not
	var ties []goTie
	seen := make(map[types.Object]bool)
	addTie := func(e ast.Expr, kind string) {
		anyTie = true
		obj := objOf(info, e)
		if obj == nil {
			return
		}
		r, ok := resolve(obj)
		if !ok || r == nil || seen[r] {
			return
		}
		seen[r] = true
		ties = append(ties, goTie{obj: r, kind: kind})
	}
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.ForStmt, *ast.SelectStmt:
			blocking = true
		case *ast.RangeStmt:
			blocking = true
			if tv, ok := info.Types[x.X]; ok && isChanType(tv.Type) {
				addTie(x.X, "close")
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				addTie(x.X, "close")
			}
		case *ast.CallExpr:
			sel, ok := unparen(x.Fun).(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Done" {
				return true
			}
			if tv, ok := info.Types[sel.X]; ok {
				switch {
				case isContextType(tv.Type):
					ctxTied = true
				case isWaitGroup(tv.Type):
					addTie(sel.X, "wait")
				}
			}
		}
		return true
	})
	switch {
	case ctxTied:
		return goCtxTied, nil
	case len(ties) > 0:
		return goObliged, ties
	case anyTie:
		return goManaged, nil
	case !blocking:
		return goBounded, nil
	default:
		return goUntied, nil
	}
}

// globalLockKey canonicalizes the receiver of a sync Lock/Unlock call to a
// module-wide key — "pkgpath.Type.field" for a mutex field reached through
// any access path, "pkgpath.var" for a package-level mutex — or reports that
// the mutex is function-local and cannot participate in a cross-function
// ordering.
func globalLockKey(info *types.Info, recv ast.Expr) (string, bool) {
	switch x := unparen(recv).(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok && sel.Obj() != nil {
			if v, ok := sel.Obj().(*types.Var); ok && v.IsField() {
				if named, ok := derefNamed(sel.Recv()); ok && named.Obj().Pkg() != nil {
					return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + x.Sel.Name, true
				}
			}
		}
		// pkg.Mu: a package-qualified package-level variable.
		if v, ok := info.Uses[x.Sel].(*types.Var); ok && !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name(), true
		}
	case *ast.Ident:
		if v, ok := objOf(info, x).(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name(), true
		}
	}
	return "", false
}

// shortLockKey strips the import-path directory from a global lock key for
// display: "blocktri/internal/serve.Server.mu" -> "serve.Server.mu".
func shortLockKey(key string) string {
	if i := strings.LastIndex(key, "/"); i >= 0 {
		return key[i+1:]
	}
	return key
}

func isNamedOf(t types.Type, pkgPath, name string) bool {
	p, n := namedFrom(t)
	return p == pkgPath && n == name
}

func isContextType(t types.Type) bool { return isNamedOf(t, "context", "Context") }

func isWaitGroup(t types.Type) bool { return isNamedOf(t, "sync", "WaitGroup") }

func isCondType(t types.Type) bool { return isNamedOf(t, "sync", "Cond") }

func isChanType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// builtinName returns the name of the builtin a call invokes ("close",
// "len", ...), or "".
func builtinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// syncMethodOn classifies a call as method name on a sync type (WaitGroup
// Wait/Done/Add, Cond Wait, ...), returning the receiver expression.
func syncMethodOn(info *types.Info, call *ast.CallExpr) (recv ast.Expr, name string) {
	f := calleeFunc(info, call)
	if f == nil || funcPkgPath(f) != "sync" {
		return nil, ""
	}
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	return sel.X, f.Name()
}

// worldRunName reports whether a call is comm.World.Run or RunContext.
func worldRunName(info *types.Info, call *ast.CallExpr) string {
	f := calleeFunc(info, call)
	if f == nil || funcPkgPath(f) != commPkgPath {
		return ""
	}
	if named := recvNamedType(f); named == nil || named.Obj().Name() != "World" {
		return ""
	}
	if f.Name() == "Run" || f.Name() == "RunContext" {
		return f.Name()
	}
	return ""
}

// declaredIn reports whether obj's declaration lies inside node's source
// range — the test for "a local the enclosing body can signal".
func declaredIn(node ast.Node, obj types.Object) bool {
	return obj != nil && obj.Pos() >= node.Pos() && obj.Pos() < node.End()
}

// funcDeclParams flattens a declaration's parameter objects in order (nil
// entries for unnamed and blank parameters).
func funcDeclParams(info *types.Info, decl *ast.FuncDecl) []types.Object {
	var out []types.Object
	if decl.Type.Params == nil {
		return out
	}
	for _, field := range decl.Type.Params.List {
		if len(field.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, name := range field.Names {
			obj := info.Defs[name]
			if obj != nil && name.Name != "_" {
				out = append(out, obj)
			} else {
				out = append(out, nil)
			}
		}
	}
	return out
}

// pkgFuncDecls indexes a package's function declarations by their type
// objects, so goleak can classify the body behind `go f(args)` directly.
func pkgFuncDecls(pkg *Package) map[*types.Func]*ast.FuncDecl {
	out := make(map[*types.Func]*ast.FuncDecl)
	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if f, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				out[f] = fd
			}
		}
	}
	return out
}

// --- summary facets ----------------------------------------------------------

// maxSummaryLocks caps the transitive lock set a summary carries; excess
// keys are dropped (a may-fact, so dropping only loses reports).
const maxSummaryLocks = 16

// concurrencyFacets fills the Spawns, Locks and FuncSinks facets.
func (s *summarizer) concurrencyFacets(sum *FuncSummary) {
	info := s.pkg.Info
	body := s.node.Decl.Body

	// FuncSinks: a function-typed parameter the body mentions anywhere may
	// be called or stored; only a parameter the body never names is proven
	// ignored (the claim that keeps a caller's cancel obligation alive).
	var sinks uint32
	for i, obj := range s.paramObjs {
		if obj == nil || i >= maxSummaryParams {
			continue
		}
		if _, isFunc := obj.Type().Underlying().(*types.Signature); !isFunc {
			continue
		}
		used := false
		ast.Inspect(body, func(x ast.Node) bool {
			if id, ok := x.(*ast.Ident); ok && info.Uses[id] == obj {
				used = true
			}
			return !used
		})
		if used {
			sinks |= 1 << uint(i)
		}
	}
	sum.FuncSinks = sinks

	// Spawns: goroutine literals whose termination is tied to exactly one of
	// our own parameters. The caller inherits the close/Wait obligation for
	// the argument it passed (goleak's call-site consult).
	inspectShallow(body, func(x ast.Node) bool {
		gs, ok := x.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := gs.Call.Fun.(*ast.FuncLit)
		if !ok {
			return true
		}
		cl, ties := classifyGoBody(info, lit.Body, func(obj types.Object) (types.Object, bool) {
			if _, isParam := s.paramIdx[obj]; isParam {
				return obj, true
			}
			return nil, false
		})
		if cl != goObliged || len(ties) != 1 {
			return true
		}
		if i := s.paramIdx[ties[0].obj]; i < maxSummaryParams {
			sum.Spawns = append(sum.Spawns, sumSpawn{Param: i, Kind: ties[0].kind})
		}
		return true
	})
	sort.Slice(sum.Spawns, func(i, j int) bool {
		a, b := sum.Spawns[i], sum.Spawns[j]
		if a.Param != b.Param {
			return a.Param < b.Param
		}
		return a.Kind < b.Kind
	})

	// Locks: the global lock keys this function may acquire, directly or
	// through summarized callees — the edges lockorder condenses through the
	// call graph.
	keys := make(map[string]bool)
	inspectShallow(body, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if syncLockKind(info, call) > 0 {
			if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
				if k, isGlobal := globalLockKey(info, sel.X); isGlobal {
					keys[k] = true
				}
			}
			return true
		}
		if f := calleeFunc(info, call); f != nil && funcPkgPath(f) != "sync" {
			if cs := s.lookup(f); cs != nil {
				for _, k := range cs.Locks {
					keys[k] = true
				}
			}
		}
		return true
	})
	if len(keys) > 0 {
		locks := make([]string, 0, len(keys))
		for k := range keys {
			locks = append(locks, k)
		}
		sort.Strings(locks)
		if len(locks) > maxSummaryLocks {
			locks = locks[:maxSummaryLocks]
		}
		sum.Locks = locks
	}
}
