package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ctxflow audits how context.Context values move through the module. The
// service stack's cancellation story only works if contexts flow downward:
// a handler that quietly starts from context.Background(), drops the cancel
// func of a WithTimeout, or parks a ctx in a long-lived struct breaks the
// chain that lets callers bound work.
//
// Four rules:
//
//   - background-restart: a function that receives a ctx but passes
//     context.Background()/TODO() to a callee detaches that call from the
//     caller's deadline and cancellation.
//   - cancel-obligation: the cancel function returned by WithCancel /
//     WithTimeout / WithDeadline must be called on every path (discarding
//     it with _ is reported immediately). The check is flow-sensitive over
//     the CFG, and deferred calls count: cfg.go appends deferred calls to
//     the exit block. A cancel captured by a function literal leaves this
//     function's view and is not tracked. Passing the cancel to a callee
//     normally transfers the obligation — except when the callee's summary
//     proves the parameter is never used (FuncSinks), in which case the
//     obligation stays put and a leak is still a leak.
//   - stored-ctx: a ctx assigned into a struct field or composite literal
//     outlives the call that carried it; the context package documents
//     this as an anti-pattern because the stored ctx silently expires.
//   - not-forwarded: a function that accepts a ctx, never mentions it, and
//     then performs a blocking comm operation or World.Run runs detached
//     from the cancellation its signature promises to honor.
var ctxFlowAnalyzer = &Analyzer{
	Name:     "ctxflow",
	Doc:      "contexts must flow to callees, WithCancel/WithTimeout cancels must run on every path, and contexts must not be stored",
	Severity: SeverityWarning,
	Run:      runCtxFlow,
}

func runCtxFlow(m *Module) []Finding {
	p := &pass{m: m, name: "ctxflow"}
	rep := newReporter(p)
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			eachFuncNode(file, func(ft *ast.FuncType, body *ast.BlockStmt, named bool) {
				ctx := ctxParamObj(pkg.Info, ft)
				if ctx != nil {
					checkBackgroundRestart(rep, pkg.Info, body)
					if named {
						checkCtxForwarded(rep, pkg.Info, ctx, body)
					}
				}
				checkStoredContext(rep, pkg.Info, body)
				checkCancelObligation(rep, m, pkg.Info, body)
			})
		}
	}
	return p.findings
}

// eachFuncNode visits every function declaration and literal of a file with
// its type and body. Rules that must not double-count nested literals use
// inspectShallow within the callback.
func eachFuncNode(file *ast.File, fn func(ft *ast.FuncType, body *ast.BlockStmt, named bool)) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				fn(n.Type, n.Body, true)
			}
		case *ast.FuncLit:
			fn(n.Type, n.Body, false)
		}
		return true
	})
}

// ctxParamObj returns the object of the first named context.Context
// parameter, or nil.
func ctxParamObj(info *types.Info, ft *ast.FuncType) types.Object {
	if ft.Params == nil {
		return nil
	}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			obj := info.Defs[name]
			if obj != nil && name.Name != "_" && isContextType(obj.Type()) {
				return obj
			}
		}
	}
	return nil
}

// contextFuncName reports which context-package function a call invokes.
func contextFuncName(info *types.Info, call *ast.CallExpr) string {
	f := calleeFunc(info, call)
	if f == nil || funcPkgPath(f) != "context" {
		return ""
	}
	return f.Name()
}

// checkBackgroundRestart flags fresh-context arguments in a body that has a
// ctx of its own to forward.
func checkBackgroundRestart(rep *reporter, info *types.Info, body *ast.BlockStmt) {
	inspectShallow(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, arg := range call.Args {
			ac, ok := unparen(arg).(*ast.CallExpr)
			if !ok {
				continue
			}
			if name := contextFuncName(info, ac); name == "Background" || name == "TODO" {
				rep.reportf(ac.Pos(), "context.%s() passed to a callee while the caller's ctx is in scope: the call is detached from cancellation (forward ctx)", name)
			}
		}
		return true
	})
}

// checkCtxForwarded flags named functions that accept a ctx, never mention
// it, and still perform blocking comm work.
func checkCtxForwarded(rep *reporter, info *types.Info, ctx types.Object, body *ast.BlockStmt) {
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == ctx {
			used = true
		}
		return !used
	})
	if used {
		return
	}
	var first *ast.CallExpr
	var op string
	inspectShallow(body, func(n ast.Node) bool {
		if first != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name := commOpName(info, call); name != "" {
			first, op = call, "comm."+name
		} else if name := worldRunName(info, call); name == "Run" {
			first, op = call, "World.Run"
		}
		return true
	})
	if first != nil {
		rep.reportf(first.Pos(), "%s accepted but never used: %s blocks without the caller's cancellation (forward %s or drop the parameter)", ctx.Name(), op, ctx.Name())
	}
}

// checkStoredContext flags contexts written into struct fields or composite
// literals.
func checkStoredContext(rep *reporter, info *types.Info, body *ast.BlockStmt) {
	isCtxExpr := func(e ast.Expr) bool {
		tv, ok := info.Types[e]
		return ok && isContextType(tv.Type)
	}
	inspectShallow(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, l := range n.Lhs {
				if _, ok := unparen(l).(*ast.SelectorExpr); ok && isCtxExpr(n.Rhs[i]) {
					rep.reportf(n.Rhs[i].Pos(), "context stored into a struct field outlives this call and silently expires; pass it as a parameter to each operation instead")
				}
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				v := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if isCtxExpr(v) {
					rep.reportf(v.Pos(), "context stored into a struct field outlives this call and silently expires; pass it as a parameter to each operation instead")
				}
			}
		}
		return true
	})
}

// cancelSite is one tracked WithCancel/WithTimeout/WithDeadline binding.
type cancelSite struct {
	pos  token.Pos
	name string // the context.WithX function
}

func isCancelCtor(name string) bool {
	return name == "WithCancel" || name == "WithTimeout" || name == "WithDeadline"
}

// checkCancelObligation runs the poolrelease-style exactly-once dataflow for
// cancel functions.
func checkCancelObligation(rep *reporter, m *Module, info *types.Info, body *ast.BlockStmt) {
	g := BuildCFG(body)
	var sitesList []cancelSite
	sites := make(map[*ast.AssignStmt]int)    // gen node -> site index
	cancelObjs := make(map[types.Object]bool) // tracked cancel variables
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			a, ok := n.(*ast.AssignStmt)
			if !ok || len(a.Lhs) != 2 {
				continue
			}
			call, ok := rhsCall(a)
			if !ok {
				continue
			}
			name := contextFuncName(info, call)
			if !isCancelCtor(name) {
				continue
			}
			if id, ok := unparen(a.Lhs[1]).(*ast.Ident); ok && id.Name == "_" {
				rep.reportf(call.Pos(), "cancel function of context.%s discarded: the context (and any timer) leaks until the parent is cancelled (bind it and defer cancel())", name)
				continue
			}
			obj := objOf(info, a.Lhs[1])
			if obj == nil {
				continue // stored straight into a field or element: untracked
			}
			if len(sitesList) >= maxFactSites {
				continue
			}
			sites[a] = len(sitesList)
			sitesList = append(sitesList, cancelSite{pos: call.Pos(), name: name})
			cancelObjs[obj] = true
		}
	}
	if len(sitesList) == 0 {
		return
	}

	// A cancel captured by a function literal can run after this function
	// returns; its obligation leaves the intraprocedural view.
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(x ast.Node) bool {
			if id, ok := x.(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil && cancelObjs[obj] {
					delete(cancelObjs, obj)
				}
			}
			return true
		})
		return true
	})
	if len(cancelObjs) == 0 {
		return
	}

	reportLeftover := func(bits uint64) {
		for i, s := range sitesList {
			if bits&(1<<uint(i)) == 0 {
				continue
			}
			if bits&relBit != 0 {
				rep.reportf(s.pos, "context.%s's cancel function runs on some paths but not all (defer cancel() immediately after the call)", s.name)
			} else {
				rep.reportf(s.pos, "context.%s's cancel function is never called on any path (defer cancel() immediately after the call)", s.name)
			}
		}
	}

	transfer := func(env factEnv, b *Block, report bool) factEnv {
		for _, n := range b.Nodes {
			skip := assignTargets(n)
			walkExprs(n, func(x ast.Node) bool {
				call, ok := x.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, ok := unparen(call.Fun).(*ast.Ident); ok {
					if obj := info.Uses[id]; obj != nil && cancelObjs[obj] {
						env[obj] = relBit
						skip[id] = true
						return true
					}
				}
				var sum *FuncSummary
				if f := calleeFunc(info, call); f != nil {
					sum = m.calleeSummary(f)
				}
				if sum == nil {
					return true
				}
				for ai, arg := range call.Args {
					id, ok := unparen(arg).(*ast.Ident)
					if !ok {
						continue
					}
					obj := info.Uses[id]
					if obj == nil || !cancelObjs[obj] {
						continue
					}
					if ai < maxSummaryParams && sum.FuncSinks&(1<<uint(ai)) == 0 {
						// The callee provably ignores the parameter: the
						// cancel obligation stays here.
						skip[id] = true
					}
				}
				return true
			})
			if a, ok := n.(*ast.AssignStmt); ok {
				for _, obj := range lhsObjs(info, a.Lhs) {
					if obj == nil || !cancelObjs[obj] {
						continue
					}
					if bits := env[obj]; bits&acqMask != 0 && report {
						reportLeftover(bits)
					}
					delete(env, obj)
				}
			}
			// Any remaining read (aliasing, returning, passing to an
			// unsummarized callee) transfers the obligation elsewhere.
			eachReadIdent(info, n, skip, func(id *ast.Ident, obj types.Object) {
				if cancelObjs[obj] {
					delete(env, obj)
				}
			})
			if a, ok := n.(*ast.AssignStmt); ok {
				if idx, ok := sites[a]; ok {
					if obj := objOf(info, a.Lhs[1]); obj != nil && cancelObjs[obj] {
						env[obj] = 1 << uint(idx)
					}
				}
			}
		}
		return env
	}

	in := solveFlow(g, factFlow(func(env factEnv, b *Block) factEnv {
		return transfer(env, b, false)
	}))
	for _, b := range g.Blocks {
		env, ok := in[b]
		if !ok {
			continue
		}
		out := transfer(cloneFactEnv(env), b, true)
		if b == g.Exit {
			var all uint64
			for _, bits := range out {
				if bits&acqMask != 0 {
					all |= bits
				}
			}
			reportLeftover(all)
		}
	}
}
