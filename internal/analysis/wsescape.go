package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// wsescape enforces the mat.Workspace arena contract from PR 2: a checkout
// (Get, GetNoClear, CloneOf, View, Floats, Ints, LU) is only valid until the
// next Reset of the workspace it came from, and must not outlive the
// function that holds the arena. Two failure modes are flagged:
//
//   - use-after-reset: a path reaches a read of a checkout after the
//     workspace's Reset ran; the arena storage has been recycled and the
//     value silently aliases whatever was checked out next.
//   - escape: a checkout is returned, or stored through a pointer or into a
//     package-level variable, from a function that owns the workspace
//     locally. The checkout dies at the owner's next Reset while the
//     escaped reference lives on. Functions that receive the workspace as a
//     parameter or via their receiver may return checkouts freely — the
//     caller owns the arena's lifetime (wsBlockOf and the transfer-matrix
//     helpers are the idiom).
//
// Tracking is intentionally exact-name-based: only values bound directly
// from a checkout call on a plain workspace variable are followed, plus
// whole-value aliases of those. Derived values (lu.Inverse(), composite
// literals, subviews stored in slices) allocate or stay function-local and
// are not tracked. The mat package itself is excluded — the arena
// internals hand out their own storage by design.
var wsEscapeAnalyzer = &Analyzer{
	Name:     "wsescape",
	Doc:      "workspace checkouts must not be read after Reset or escape the arena-owning function",
	Severity: SeverityError,
	Run:      runWSEscape,
}

// wsFreshSites caps tracked checkout sites per function: bit i is a live
// checkout from site i, bit i+wsFreshSites the same checkout gone stale.
const wsFreshSites = 28

const wsStaleMask = ((uint64(1) << wsFreshSites) - 1) << wsFreshSites

// wsSite is one tracked checkout.
type wsSite struct {
	pos     token.Pos
	wsObj   types.Object // the workspace variable the checkout came from
	wsParam bool         // workspace is a parameter/receiver of this function
	method  string
}

func runWSEscape(m *Module) []Finding {
	p := &pass{m: m, name: "wsescape"}
	rep := newReporter(p)
	for _, pkg := range m.Pkgs {
		if pkg.Path == matPkgPath {
			continue
		}
		for _, file := range pkg.Files {
			eachFuncWithType(file, func(ftype *ast.FuncType, recv *ast.FieldList, body *ast.BlockStmt) {
				wsEscapeFunc(rep, m, pkg.Info, ftype, recv, body)
			})
		}
	}
	return p.findings
}

// eachFuncWithType visits every function declaration and literal of a file
// with its signature fields, mirroring eachFuncBody.
func eachFuncWithType(file *ast.File, fn func(*ast.FuncType, *ast.FieldList, *ast.BlockStmt)) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				fn(n.Type, n.Recv, n.Body)
			}
		case *ast.FuncLit:
			fn(n.Type, nil, n.Body)
		}
		return true
	})
}

// wsCheckout classifies a call that yields a Workspace checkout on a
// plain-ident workspace variable: a direct checkout method, or —
// interprocedurally — a summarized helper whose first result is a checkout
// of the workspace argument (the reducedMatrixWS/decodeHMatWS idiom). Returns
// the workspace variable's object, the method or helper name, and the
// number of call results.
func wsCheckout(m *Module, info *types.Info, call *ast.CallExpr) (types.Object, string, int) {
	if wsObj, method, results := wsCheckoutDirect(info, call); wsObj != nil {
		return wsObj, method, results
	}
	f := calleeFunc(info, call)
	if f == nil || funcPkgPath(f) == matPkgPath {
		return nil, "", 0
	}
	sum := m.calleeSummary(f)
	if sum == nil || sum.NumResults == 0 || len(sum.CheckoutOf) == 0 {
		return nil, "", 0
	}
	j := sum.CheckoutOf[0]
	if j < 0 || j >= len(call.Args) {
		return nil, "", 0
	}
	wsObj := objOf(info, call.Args[j])
	if wsObj == nil || !isWorkspace(wsObj.Type()) {
		return nil, "", 0
	}
	return wsObj, f.Name(), sum.NumResults
}

// wsCheckoutDirect classifies a direct Workspace checkout method call.
func wsCheckoutDirect(info *types.Info, call *ast.CallExpr) (types.Object, string, int) {
	f := calleeFunc(info, call)
	if f == nil || funcPkgPath(f) != matPkgPath {
		return nil, "", 0
	}
	named := recvNamedType(f)
	if named == nil || named.Obj().Name() != "Workspace" {
		return nil, "", 0
	}
	var results int
	switch f.Name() {
	case "Get", "GetNoClear", "CloneOf", "View", "Floats", "Ints":
		results = 1
	case "LU":
		results = 2
	default:
		return nil, "", 0
	}
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, "", 0
	}
	wsObj := objOf(info, sel.X)
	if wsObj == nil {
		return nil, "", 0 // s.ws.Get(...): the receiver owns the arena
	}
	return wsObj, f.Name(), results
}

// paramObjSet collects the objects bound by a function's receiver and
// parameters.
func paramObjSet(info *types.Info, ftype *ast.FuncType, recv *ast.FieldList) map[types.Object]bool {
	set := make(map[types.Object]bool)
	collect := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := info.Defs[name]; obj != nil {
					set[obj] = true
				}
			}
		}
	}
	collect(recv)
	collect(ftype.Params)
	return set
}

func wsEscapeFunc(rep *reporter, m *Module, info *types.Info, ftype *ast.FuncType, recv *ast.FieldList, body *ast.BlockStmt) {
	g := BuildCFG(body)
	params := paramObjSet(info, ftype, recv)

	var sitesList []wsSite
	sites := make(map[*ast.AssignStmt]int) // assignment -> site index
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			a, ok := n.(*ast.AssignStmt)
			if !ok {
				continue
			}
			call, ok := rhsCall(a)
			if !ok {
				continue
			}
			wsObj, method, results := wsCheckout(m, info, call)
			if wsObj == nil || len(a.Lhs) != results || len(sitesList) >= wsFreshSites {
				continue
			}
			if bound := objOf(info, a.Lhs[0]); bound == nil || isPkgLevel(bound) {
				continue // blank, field targets, and globals are not locals
			}
			sites[a] = len(sitesList)
			sitesList = append(sitesList, wsSite{
				pos:     call.Pos(),
				wsObj:   wsObj,
				wsParam: params[wsObj],
				method:  method,
			})
		}
	}

	transfer := func(env factEnv, b *Block, report bool) factEnv {
		for _, n := range b.Nodes {
			wsEscapeNode(rep, m, info, env, sites, sitesList, params, n, report)
		}
		return env
	}
	in := solveFlow(g, factFlow(func(env factEnv, b *Block) factEnv {
		return transfer(env, b, false)
	}))
	for _, b := range g.Blocks {
		if env, ok := in[b]; ok {
			transfer(cloneFactEnv(env), b, true)
		}
	}
}

func wsEscapeNode(rep *reporter, m *Module, info *types.Info, env factEnv, sites map[*ast.AssignStmt]int, sitesList []wsSite, params map[types.Object]bool, n ast.Node, report bool) {
	// A read of a checkout that went stale at a Reset is the core bug.
	if report {
		skip := assignTargets(n)
		eachReadIdent(info, n, skip, func(id *ast.Ident, obj types.Object) {
			bits := env[obj]
			if bits&wsStaleMask == 0 {
				return
			}
			for i, s := range sitesList {
				if bits&(1<<uint(i+wsFreshSites)) != 0 {
					rep.reportf(id.Pos(), "workspace checkout %q (from %s.%s) is used after %s.Reset recycled the arena", id.Name, s.wsObj.Name(), s.method, s.wsObj.Name())
				}
			}
		})
	}

	switch n := n.(type) {
	case *ast.AssignStmt:
		wsEscapeAssign(rep, m, info, env, sites, sitesList, n, report)
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			wsEscapeValue(rep, m, info, env, sitesList, params, r, report,
				"workspace checkout escapes via return from the function that owns the arena (it dies at the next %s.Reset)")
		}
	default:
		wsEscapeReset(info, env, sitesList, n)
	}
}

// wsEscapeReset marks every live checkout of a workspace stale when that
// workspace's Reset call executes.
func wsEscapeReset(info *types.Info, env factEnv, sitesList []wsSite, n ast.Node) {
	walkExprs(n, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		f := calleeFunc(info, call)
		if f == nil || funcPkgPath(f) != matPkgPath || f.Name() != "Reset" {
			return true
		}
		named := recvNamedType(f)
		if named == nil || named.Obj().Name() != "Workspace" {
			return true
		}
		sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		wsObj := objOf(info, sel.X)
		if wsObj == nil {
			return true
		}
		for obj, bits := range env {
			for i, s := range sitesList {
				if s.wsObj == wsObj && bits&(1<<uint(i)) != 0 {
					bits = bits&^(1<<uint(i)) | 1<<uint(i+wsFreshSites)
				}
			}
			env[obj] = bits
		}
		return true
	})
}

func wsEscapeAssign(rep *reporter, m *Module, info *types.Info, env factEnv, sites map[*ast.AssignStmt]int, sitesList []wsSite, n *ast.AssignStmt, report bool) {
	// Stores through a pointer or into a package-level variable escape the
	// arena; stores into function-local values (structs, slices, maps by
	// value) die with the frame and are fine.
	if len(n.Lhs) == len(n.Rhs) {
		for i, l := range n.Lhs {
			if _, plain := unparen(l).(*ast.Ident); plain {
				// Rebinding a local is handled below; binding a
				// package-level variable is an escape.
				if obj := objOf(info, l); obj == nil || !isPkgLevel(obj) {
					continue
				}
			}
			if escapingRoot(info, l) {
				wsEscapeValue(rep, m, info, env, sitesList, nil, n.Rhs[i], report,
					"workspace checkout is stored into a location that outlives the arena (it dies at the next %s.Reset)")
			}
		}
	}
	// Kill-and-rebind; a whole-value alias shares the original's fate.
	aliases := make(map[types.Object]uint64)
	if len(n.Lhs) == len(n.Rhs) {
		for i := range n.Lhs {
			src := objOf(info, n.Rhs[i])
			dst := objOf(info, n.Lhs[i])
			if src != nil && dst != nil {
				aliases[dst] = env[src]
			}
		}
	}
	for _, obj := range lhsObjs(info, n.Lhs) {
		if obj != nil {
			delete(env, obj)
		}
	}
	for dst, bits := range aliases {
		if bits != 0 {
			env[dst] = bits
		}
	}
	if idx, ok := sites[n]; ok {
		env[objOf(info, n.Lhs[0])] = 1 << uint(idx)
	}
}

// wsEscapeValue reports when an expression hands a tracked checkout (an
// exact tracked identifier, or a direct checkout call) to a longer-lived
// location. params non-nil means checkouts from parameter-owned workspaces
// are exempt (the return case).
func wsEscapeValue(rep *reporter, m *Module, info *types.Info, env factEnv, sitesList []wsSite, params map[types.Object]bool, e ast.Expr, report bool, format string) {
	if !report {
		return
	}
	if obj := objOf(info, e); obj != nil {
		bits := env[obj]
		for i, s := range sitesList {
			if bits&(1<<uint(i)) == 0 {
				continue
			}
			if params != nil && s.wsParam {
				continue
			}
			rep.reportf(e.Pos(), format, s.wsObj.Name())
		}
		return
	}
	if call, ok := unparen(e).(*ast.CallExpr); ok {
		wsObj, _, _ := wsCheckout(m, info, call)
		if wsObj == nil {
			return
		}
		if params != nil && params[wsObj] {
			return
		}
		rep.reportf(e.Pos(), format, wsObj.Name())
	}
}

// escapingRoot reports whether an assignment target is reached through a
// pointer or rooted in a package-level variable, i.e. whether a value
// stored there outlives the enclosing call frame.
func escapingRoot(info *types.Info, l ast.Expr) bool {
	for {
		switch x := unparen(l).(type) {
		case *ast.SelectorExpr:
			l = x.X
		case *ast.IndexExpr:
			l = x.X
		case *ast.StarExpr:
			l = x.X
		case *ast.Ident:
			obj := objOf(info, x)
			if obj == nil {
				return false
			}
			if _, isPtr := obj.Type().Underlying().(*types.Pointer); isPtr {
				return true
			}
			return isPkgLevel(obj)
		default:
			return false
		}
	}
}

// isPkgLevel reports whether obj is declared at package scope (the package
// scope's parent is the universe scope).
func isPkgLevel(obj types.Object) bool {
	return obj.Parent() != nil && obj.Parent().Parent() == types.Universe
}
