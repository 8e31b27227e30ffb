package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// goleak flags goroutine launches whose termination is not tied to anything
// the program controls. The service stack (internal/serve, comm.RunContext)
// promises "no goroutine leaks" dynamically through the chaos harness; this
// analyzer is the static side of that invariant. A goroutine is accepted
// when its body observes a context's Done channel, runs to completion on its
// own (no loops or selects), or blocks on state the spawning scope cannot
// signal (assumed managed by that state's owner). When the body's
// termination is tied to a local channel or WaitGroup of the spawning
// function, the signal — close(ch) (or a send), wg.Wait() — becomes a
// path obligation checked over the CFG, exactly like poolrelease's Release
// obligation: a signal missing on every path is a leak, a signal on some
// paths but not all is a conditional leak.
//
// `go f(args)` with a same-package callee classifies f's body directly,
// mapping f's tied parameters back to the call's arguments. Helper functions
// that spawn param-tied goroutines internally export that fact through the
// summary Spawns facet, so the obligation is attributed at the helper's call
// site interprocedurally.
var goLeakAnalyzer = &Analyzer{
	Name:     "goleak",
	Doc:      "goroutine termination must be tied to ctx.Done, a WaitGroup join, or a channel close on every path",
	Severity: SeverityError,
	Run:      runGoLeak,
}

func runGoLeak(m *Module) []Finding {
	p := &pass{m: m, name: "goleak"}
	rep := newReporter(p)
	for _, pkg := range m.Pkgs {
		decls := pkgFuncDecls(pkg)
		for _, file := range pkg.Files {
			eachFuncBody(file, func(body *ast.BlockStmt) {
				goLeakFunc(rep, m, pkg.Info, decls, body)
			})
		}
	}
	return p.findings
}

// leakSite is one spawn whose termination obligation the enclosing function
// owes: a go statement tied to local objects, or a call to a helper whose
// summary spawns a goroutine tied to an argument.
type leakSite struct {
	pos  token.Pos
	ties []goTie
	what string // display: the spawn description
}

// tieSignals renders the signal set of a site: "close(ch)", "wg.Wait()".
func (s *leakSite) tieSignals() string {
	parts := make([]string, 0, len(s.ties))
	for _, t := range s.ties {
		if t.kind == "wait" {
			parts = append(parts, t.obj.Name()+".Wait()")
		} else {
			parts = append(parts, "close("+t.obj.Name()+")")
		}
	}
	return strings.Join(parts, " or ")
}

func goLeakFunc(rep *reporter, m *Module, info *types.Info, decls map[*types.Func]*ast.FuncDecl, body *ast.BlockStmt) {
	g := BuildCFG(body)

	// Locals only the spawner can signal: objects declared inside this body
	// but outside the goroutine being classified.
	resolveCaptured := func(lit *ast.FuncLit) func(types.Object) (types.Object, bool) {
		return func(obj types.Object) (types.Object, bool) {
			if declaredIn(body, obj) && !declaredIn(lit, obj) {
				return obj, true
			}
			return nil, false
		}
	}

	var sites []leakSite
	nodeSites := make(map[ast.Node][]int)        // CFG node -> site indices generated there
	obligedCalls := make(map[*ast.CallExpr]bool) // helper calls that create obligations
	spawnLits := make(map[*ast.FuncLit]bool)     // goroutine bodies (their captures are the tie, not an escape)
	addSite := func(n ast.Node, site leakSite) {
		if len(sites) >= maxFactSites {
			return
		}
		nodeSites[n] = append(nodeSites[n], len(sites))
		sites = append(sites, site)
	}

	classify := func(gs *ast.GoStmt) (goClass, []goTie, string) {
		call := gs.Call
		if lit, ok := call.Fun.(*ast.FuncLit); ok {
			spawnLits[lit] = true
			cl, ties := classifyGoBody(info, lit.Body, resolveCaptured(lit))
			return cl, ties, "goroutine"
		}
		f := calleeFunc(info, call)
		if f == nil {
			return goManaged, nil, ""
		}
		decl, samePkg := decls[f]
		if !samePkg {
			// Cross-package spawns are assumed managed by the callee's
			// package contract.
			return goManaged, nil, ""
		}
		params := funcDeclParams(info, decl)
		paramIdx := make(map[types.Object]int, len(params))
		for i, obj := range params {
			if obj != nil {
				paramIdx[obj] = i
			}
		}
		cl, ties := classifyGoBody(info, decl.Body, func(obj types.Object) (types.Object, bool) {
			i, isParam := paramIdx[obj]
			if !isParam || i >= len(call.Args) {
				return nil, false
			}
			argObj := objOf(info, call.Args[i])
			if argObj != nil && declaredIn(body, argObj) {
				return argObj, true
			}
			return nil, false
		})
		return cl, ties, "goroutine running " + f.Name()
	}

	// Pass 1: collect spawn sites and their obligations.
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if gs, ok := n.(*ast.GoStmt); ok {
				cl, ties, what := classify(gs)
				switch cl {
				case goUntied:
					rep.reportf(gs.Pos(), "%s has no termination tie (no ctx.Done select, WaitGroup Done, or channel close to wait for) and may run forever", what)
				case goObliged:
					addSite(n, leakSite{pos: gs.Pos(), ties: ties, what: what})
				}
				continue
			}
			// Helper calls whose summary spawns goroutines tied to an
			// argument: the obligation lands here (interprocedural only).
			walkExprs(n, func(x ast.Node) bool {
				call, ok := x.(*ast.CallExpr)
				if !ok {
					return true
				}
				f := calleeFunc(info, call)
				if f == nil {
					return true
				}
				sum := m.calleeSummary(f)
				if sum == nil || len(sum.Spawns) == 0 {
					return true
				}
				var ties []goTie
				for _, sp := range sum.Spawns {
					if sp.Param >= len(call.Args) {
						continue
					}
					obj := objOf(info, call.Args[sp.Param])
					if obj != nil && declaredIn(body, obj) {
						ties = append(ties, goTie{obj: obj, kind: sp.Kind})
					}
				}
				if len(ties) > 0 {
					obligedCalls[call] = true
					addSite(n, leakSite{pos: call.Pos(), ties: ties, what: "goroutine spawned by " + f.Name()})
				}
				return true
			})
		}
	}
	if len(sites) == 0 {
		return
	}

	// Escape pre-pass: an obligation object that leaves this function's
	// hands — captured by a non-spawned closure, aliased, returned, stored,
	// passed whole to an untracked callee — carries its signal elsewhere;
	// drop those ties rather than report against code we cannot see.
	tracked := make(map[types.Object]bool)
	for _, s := range sites {
		for _, t := range s.ties {
			tracked[t.obj] = true
		}
	}
	escaped := escapedLeakObjs(info, body, tracked, spawnLits, obligedCalls)
	var live []leakSite
	liveNodeSites := make(map[ast.Node][]int)
	for n, idxs := range nodeSites {
		for _, i := range idxs {
			s := sites[i]
			var ties []goTie
			for _, t := range s.ties {
				if !escaped[t.obj] {
					ties = append(ties, t)
				}
			}
			if len(ties) == 0 {
				continue // every tie escaped: managed elsewhere
			}
			s.ties = ties
			liveNodeSites[n] = append(liveNodeSites[n], len(live))
			live = append(live, s)
		}
	}
	sites, nodeSites = live, liveNodeSites
	if len(sites) == 0 {
		return
	}
	objSites := make(map[types.Object][]int)
	for i, s := range sites {
		for _, t := range s.ties {
			objSites[t.obj] = append(objSites[t.obj], i)
		}
	}

	// Pass 2: path obligations. State bits: bit i = site i outstanding,
	// bit 32+i = site i was signalled somewhere on this path (for the
	// "some paths but not all" distinction). Join is OR.
	const satShift = 32
	signal := func(st uint64, obj types.Object, kind string) uint64 {
		for _, i := range objSites[obj] {
			for _, t := range sites[i].ties {
				if t.obj == obj && t.kind == kind {
					st = (st &^ (uint64(1) << uint(i))) | uint64(1)<<uint(satShift+i)
				}
			}
		}
		return st
	}
	transfer := func(st uint64, b *Block) uint64 {
		for _, n := range b.Nodes {
			walkExprs(n, func(x ast.Node) bool {
				switch x := x.(type) {
				case *ast.CallExpr:
					if builtinName(info, x) == "close" && len(x.Args) == 1 {
						if obj := objOf(info, x.Args[0]); obj != nil {
							st = signal(st, obj, "close")
						}
					}
					if recv, name := syncMethodOn(info, x); name == "Wait" && recv != nil {
						if obj := objOf(info, recv); obj != nil {
							st = signal(st, obj, "wait")
						}
					}
				case *ast.SendStmt:
					// A send wakes a receiver-tied goroutine just as a close
					// does (the one-shot gate idiom).
					if obj := objOf(info, x.Chan); obj != nil {
						st = signal(st, obj, "close")
					}
				}
				return true
			})
			for _, i := range nodeSites[n] {
				st |= uint64(1) << uint(i)
			}
		}
		return st
	}

	in := solveFlow(g, flowProblem[uint64]{
		boundary: func() uint64 { return 0 },
		transfer: transfer,
		join:     func(a, b uint64) uint64 { return a | b },
		equal:    func(a, b uint64) bool { return a == b },
		clone:    func(a uint64) uint64 { return a },
	})
	exitIn, ok := in[g.Exit]
	if !ok {
		return
	}
	out := transfer(exitIn, g.Exit)
	for i, s := range sites {
		if out&(uint64(1)<<uint(i)) == 0 {
			continue
		}
		if out&(uint64(1)<<uint(satShift+i)) != 0 {
			rep.reportf(s.pos, "%s is signalled to stop on some paths but not all: %s must run on every path to return", s.what, s.tieSignals())
		} else {
			rep.reportf(s.pos, "%s is never signalled to stop: %s runs on no path to return", s.what, s.tieSignals())
		}
	}
}

// escapedLeakObjs finds tracked objects with a non-sanctioned use: anything
// beyond the spawn itself, the signal calls (close/Wait/Add/Done, sends and
// receives, len/cap), and mentions inside the spawned goroutine bodies. A
// capture by a non-spawned closure, an alias, a return, or a whole-value
// hand-off to an untracked callee all count as escapes.
func escapedLeakObjs(info *types.Info, body *ast.BlockStmt, tracked map[types.Object]bool, spawnLits map[*ast.FuncLit]bool, obligedCalls map[*ast.CallExpr]bool) map[types.Object]bool {
	sanctioned := make(map[*ast.Ident]bool)
	mark := func(e ast.Expr) {
		if id, ok := unparen(e).(*ast.Ident); ok {
			sanctioned[id] = true
		}
	}
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			if spawnLits[x] {
				// The goroutine's own mentions of its ties are the point.
				markAllIdents(x.Body, sanctioned)
			}
			// Either way do not descend: a non-spawned closure's captures
			// stay unsanctioned and count as escapes below.
			return false
		case *ast.CallExpr:
			switch builtinName(info, x) {
			case "close", "len", "cap":
				if len(x.Args) == 1 {
					mark(x.Args[0])
				}
			}
			if recv, name := syncMethodOn(info, x); recv != nil && (name == "Wait" || name == "Add" || name == "Done") {
				mark(recv)
			}
			if obligedCalls[x] {
				for _, a := range x.Args {
					mark(a)
				}
			}
		case *ast.SendStmt:
			mark(x.Chan)
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				mark(x.X)
			}
		case *ast.GoStmt:
			for _, a := range x.Call.Args {
				mark(a)
			}
		}
		return true
	})

	escaped := make(map[types.Object]bool)
	ast.Inspect(body, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil || !tracked[obj] {
			return true
		}
		if !sanctioned[id] {
			escaped[obj] = true
		}
		return true
	})
	return escaped
}

// markAllIdents sanctions every identifier mention under n.
func markAllIdents(n ast.Node, sanctioned map[*ast.Ident]bool) {
	ast.Inspect(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok {
			sanctioned[id] = true
		}
		return true
	})
}
