package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// poolrelease enforces the pooled-buffer discipline comm.Recv documents:
// once a payload slice is bound to a variable, it must reach c.Release
// exactly once on every path — a path that skips Release leaks the buffer
// out of the pool (undoing PR 2's steady-state zero-alloc guarantee on hot
// solve paths), and a path that releases twice poisons the pool with an
// aliased buffer.
//
// Tracking starts at a direct binding `buf := c.Recv(...)` (also SendRecv
// and Exchange, which return Recv's buffer). One-shot idioms that never name
// the buffer, like comm.DecodeMatrices(c.Recv(...)), opt out of pooling and
// are deliberately not tracked: comm documents Release as optional, and the
// analyzer only holds code to the discipline it visibly opted into.
// Ownership transfers end tracking: returning the buffer, aliasing it to
// another variable or into a structure, or passing the whole slice to a
// callee all hand the Release obligation elsewhere.
//
// The comm package itself is excluded: the pool internals and the
// conditional hand-off in BcastMatrixInto manage buffer ownership in ways
// only the runtime contract, not intraprocedural flow, can justify.
var poolReleaseAnalyzer = &Analyzer{
	Name:     "poolrelease",
	Doc:      "pooled comm payloads bound to a variable must reach Release exactly once on every path",
	Severity: SeverityError,
	Run:      runPoolRelease,
}

// relBit marks "a Release has happened on this path"; the low bits carry
// acquisition-site indices.
const relBit = uint64(1) << 63

const acqMask = relBit - 1

// acqSite is one tracked pool acquisition.
type acqSite struct {
	pos    token.Pos
	method string
}

func runPoolRelease(m *Module) []Finding {
	p := &pass{m: m, name: "poolrelease"}
	rep := newReporter(p)
	for _, pkg := range m.Pkgs {
		if pkg.Path == commPkgPath {
			continue
		}
		for _, file := range pkg.Files {
			eachFuncBody(file, func(body *ast.BlockStmt) {
				poolReleaseFunc(rep, m, pkg.Info, body)
			})
		}
	}
	return p.findings
}

// commMethod returns the name of the comm.Comm method a call invokes, or "".
func commMethod(info *types.Info, call *ast.CallExpr) string {
	f := calleeFunc(info, call)
	if f == nil || funcPkgPath(f) != commPkgPath {
		return ""
	}
	if named := recvNamedType(f); named == nil || named.Obj().Name() != "Comm" {
		return ""
	}
	return f.Name()
}

func isPoolAcquire(method string) bool {
	return method == "Recv" || method == "SendRecv" || method == "Exchange"
}

func poolReleaseFunc(rep *reporter, m *Module, info *types.Info, body *ast.BlockStmt) {
	g := BuildCFG(body)
	var sitesList []acqSite
	sites := make(map[*ast.AssignStmt]int)
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			a, ok := n.(*ast.AssignStmt)
			if !ok || len(a.Lhs) != 1 {
				continue
			}
			call, ok := rhsCall(a)
			if !ok {
				continue
			}
			method := commMethod(info, call)
			if !isPoolAcquire(method) || len(sitesList) >= maxFactSites {
				continue
			}
			if objOf(info, a.Lhs[0]) == nil {
				continue // bound to _, a field, or an element: untracked
			}
			sites[a] = len(sitesList)
			sitesList = append(sitesList, acqSite{pos: call.Pos(), method: method})
		}
	}
	if len(sitesList) == 0 {
		return
	}

	reportUnreleased := func(bits uint64) {
		for i, s := range sitesList {
			if bits&(1<<uint(i)) == 0 {
				continue
			}
			if bits&relBit != 0 {
				rep.reportf(s.pos, "pooled payload from comm.%s is Released on some paths but not all (Release must run exactly once)", s.method)
			} else {
				rep.reportf(s.pos, "pooled payload from comm.%s is never Released (hot-path buffers must recycle through the pool)", s.method)
			}
		}
	}

	transfer := func(env factEnv, b *Block, report bool) factEnv {
		for _, n := range b.Nodes {
			switch n := n.(type) {
			case *ast.AssignStmt:
				// Rebinding a variable that still owes a Release leaks the
				// old buffer.
				for _, obj := range lhsObjs(info, n.Lhs) {
					if obj == nil {
						continue
					}
					if bits := env[obj]; bits&acqMask != 0 && report {
						reportUnreleased(bits)
					}
					delete(env, obj)
				}
				// Aliasing the whole slice to another location transfers
				// ownership out of this function's view.
				for _, r := range n.Rhs {
					if obj := objOf(info, r); obj != nil {
						delete(env, obj)
					}
				}
				killWholeArgs(rep, m, info, env, n, report)
				if idx, ok := sites[n]; ok {
					env[objOf(info, n.Lhs[0])] = 1 << uint(idx)
				}
			case *ast.ReturnStmt:
				for _, r := range n.Results {
					if obj := objOf(info, r); obj != nil {
						delete(env, obj)
					}
				}
			default:
				poolReleaseCalls(rep, m, info, env, n, report)
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
			reportUnreleased(all)
		}
	}
}

// poolReleaseCalls processes the calls of one non-assignment node: Release
// flips the fact, and any other call consuming the whole slice takes over
// ownership (unless a summary proves otherwise).
func poolReleaseCalls(rep *reporter, m *Module, info *types.Info, env factEnv, n ast.Node, report bool) {
	walkExprs(n, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		method := commMethod(info, call)
		if method == "Release" && len(call.Args) == 1 {
			obj := objOf(info, call.Args[0])
			if obj == nil {
				return true
			}
			if env[obj]&relBit != 0 && report {
				rep.reportf(call.Pos(), "pooled payload %q may already have been Released on this path (Release must run exactly once)", identName(call.Args[0]))
			}
			env[obj] = relBit
			return true
		}
		killWholeCallArgs(rep, m, info, env, call, report)
		return true
	})
}

// killWholeArgs drops facts for tracked slices passed whole to calls inside
// an assignment's RHS expressions.
func killWholeArgs(rep *reporter, m *Module, info *types.Info, env factEnv, n *ast.AssignStmt, report bool) {
	for _, r := range n.Rhs {
		walkExprs(r, func(x ast.Node) bool {
			if call, ok := x.(*ast.CallExpr); ok {
				killWholeCallArgs(rep, m, info, env, call, report)
			}
			return true
		})
	}
}

// killWholeCallArgs applies a call to the tracked buffers among its
// whole-slice arguments (subslices and element reads keep the obligation
// local). Without a summary, a whole-value hand-off transfers ownership and
// the fact dies — the intraprocedural rule. With one:
//
//   - a callee that Releases the parameter on every path counts as the
//     Release itself (and releasing an already-released buffer is the
//     double-release bug);
//   - a callee that merely Borrows the parameter leaves the obligation with
//     the caller, so a later leak is still caught.
func killWholeCallArgs(rep *reporter, m *Module, info *types.Info, env factEnv, call *ast.CallExpr, report bool) {
	var sum *FuncSummary
	if f := calleeFunc(info, call); f != nil && funcPkgPath(f) != commPkgPath {
		sum = m.calleeSummary(f)
	}
	for ai, arg := range call.Args {
		obj := objOf(info, arg)
		if obj == nil {
			continue
		}
		if sum != nil && ai < maxSummaryParams {
			if sum.Releases&(1<<uint(ai)) != 0 {
				if env[obj]&relBit != 0 && report {
					rep.reportf(call.Pos(), "pooled payload %q may already have been Released on this path (Release must run exactly once)", identName(arg))
				}
				if env[obj] != 0 {
					env[obj] = relBit
				}
				continue
			}
			if sum.Borrows&(1<<uint(ai)) != 0 {
				continue // obligation stays with the caller
			}
		}
		delete(env, obj)
	}
}

func identName(e ast.Expr) string {
	if id, ok := unparen(e).(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}
