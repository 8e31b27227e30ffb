package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// errdiscard flags discarded results of the error-bearing entry points the
// fault-injection rework made mandatory to check: comm.World.Run (which
// since PR 3 reports *RankError / *DeadlockError instead of panicking), the
// Try* payload decoders, and harness Experiment.Run. Dropping any of these
// turns a typed, diagnosable failure back into the silent-wrong-answer mode
// the error plumbing exists to eliminate.
//
// Unlike panicpolicy's syntactic discard check (bare statement, blank
// assignment), errdiscard is flow-sensitive on the new dataflow engine: an
// error assigned to a variable must be read — in a condition, a return, an
// argument — on every path before the variable is overwritten or the
// function exits. `if err != nil` on either branch counts as checking;
// rebinding a still-unchecked err does not.
var errDiscardAnalyzer = &Analyzer{
	Name:     "errdiscard",
	Doc:      "flag World.Run / Try-decoder / Experiment.Run errors that are dropped or never checked",
	Severity: SeverityError,
	Version:  1,
	Run:      runErrDiscard,
}

// errSource describes one monitored call: how to render it and which result
// is the error.
type errSource struct {
	label    string
	errIndex int // index of the error result
	results  int // total results
}

// errSourceOf classifies a call as a monitored error producer: the directly
// monitored entry points, or — interprocedurally — any summarized function
// whose result carries a monitored error on some path (a helper wrapping
// World.Run must be checked exactly like World.Run itself).
func errSourceOf(m *Module, info *types.Info, call *ast.CallExpr) (errSource, bool) {
	if src, ok := errSourceBase(info, call); ok {
		return src, true
	}
	f := calleeFunc(info, call)
	if f == nil {
		return errSource{}, false
	}
	if sum := m.calleeSummary(f); sum != nil {
		for i, label := range sum.ErrLabel {
			if label != "" {
				return errSource{
					label:    label + " (via " + f.Name() + ")",
					errIndex: i,
					results:  sum.NumResults,
				}, true
			}
		}
	}
	return errSource{}, false
}

// errSourceBase classifies the directly monitored error producers.
func errSourceBase(info *types.Info, call *ast.CallExpr) (errSource, bool) {
	if f := calleeFunc(info, call); f != nil {
		switch funcPkgPath(f) {
		case commPkgPath:
			switch f.Name() {
			case "Run":
				if named := recvNamedType(f); named != nil && named.Obj().Name() == "World" {
					return errSource{label: "comm.World.Run", errIndex: 0, results: 1}, true
				}
			case "TryDecodeMatrix", "TryDecodeMatrices":
				return errSource{label: "comm." + f.Name(), errIndex: 1, results: 2}, true
			case "TryDecodeMatrixInto":
				return errSource{label: "comm.TryDecodeMatrixInto", errIndex: 0, results: 1}, true
			}
		}
		return errSource{}, false
	}
	// Experiment.Run is a func-typed field, so it dispatches through a
	// selection rather than a named function.
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return errSource{}, false
	}
	selection := info.Selections[sel]
	if selection == nil || selection.Kind() != types.FieldVal || sel.Sel.Name != "Run" {
		return errSource{}, false
	}
	named, ok := derefNamed(selection.Recv())
	if !ok || named.Obj().Pkg() == nil {
		return errSource{}, false
	}
	if named.Obj().Pkg().Path() != harnessPkgPath || named.Obj().Name() != "Experiment" {
		return errSource{}, false
	}
	return errSource{label: "harness.Experiment.Run", errIndex: 1, results: 2}, true
}

// recvNamedType returns the named type of a method's receiver (through one
// pointer), or nil for package functions.
func recvNamedType(f *types.Func) *types.Named {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	named, _ := derefNamed(sig.Recv().Type())
	return named
}

func derefNamed(t types.Type) (*types.Named, bool) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return named, ok
}

// errBirth is one monitored assignment site within a function.
type errBirth struct {
	pos   token.Pos
	label string
}

func runErrDiscard(m *Module) []Finding {
	p := &pass{m: m, name: "errdiscard"}
	rep := newReporter(p)
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			eachFuncBody(file, func(body *ast.BlockStmt) {
				errDiscardFunc(rep, m, pkg.Info, body)
			})
		}
	}
	return p.findings
}

func errDiscardFunc(rep *reporter, m *Module, info *types.Info, body *ast.BlockStmt) {
	g := BuildCFG(body)
	// Collect the monitored assignment sites up front: the transfer function
	// runs more than once per block during fixed-point iteration, so site
	// identity must not depend on visit count.
	var births []errBirth
	sites := make(map[*ast.AssignStmt]int)
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
			src, ok := errSourceOf(m, info, call)
			if !ok || len(a.Lhs) != src.results || len(births) >= maxFactSites {
				continue
			}
			sites[a] = len(births)
			births = append(births, errBirth{pos: call.Pos(), label: src.label})
		}
	}

	transfer := func(env factEnv, b *Block, report bool) factEnv {
		for _, n := range b.Nodes {
			skip := assignTargets(n)
			// Any read of a pending error variable counts as checking it.
			eachReadIdent(info, n, skip, func(_ *ast.Ident, obj types.Object) {
				delete(env, obj)
			})
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := unparen(n.X).(*ast.CallExpr); ok {
					if src, ok := errSourceOf(m, info, call); ok {
						if report {
							rep.reportf(call.Pos(), "the error returned by %s is discarded; a failed run must be handled, not dropped", src.label)
						}
					}
				}
			case *ast.AssignStmt:
				errDiscardAssign(rep, m, info, env, sites, births, n, report)
			case *ast.ReturnStmt:
				// A return that propagates some other non-nil error value
				// supersedes pending errors: the solvers' phase driver gives
				// domain errors precedence over the World.Run transport
				// error, and abandoning the latter on that path is deliberate.
				if returnsErrorValue(info, n) {
					for obj := range env {
						delete(env, obj)
					}
				}
			}
		}
		return env
	}

	in := solveFlow(g, factFlow(func(env factEnv, b *Block) factEnv {
		return transfer(env, b, false)
	}))
	// Replay for deterministic reporting, then flag what survives to Exit.
	for _, b := range g.Blocks {
		env, ok := in[b]
		if !ok {
			continue
		}
		out := transfer(cloneFactEnv(env), b, true)
		if b == g.Exit {
			reportPending(rep, out, births, "the error returned by %s is assigned but never checked")
		}
	}
}

// errDiscardAssign applies one assignment: kill-and-rebind error facts,
// reporting blank discards immediately and pending errors that are about to
// be overwritten unchecked.
func errDiscardAssign(rep *reporter, m *Module, info *types.Info, env factEnv, sites map[*ast.AssignStmt]int, births []errBirth, n *ast.AssignStmt, report bool) {
	targets := lhsObjs(info, n.Lhs)
	// Overwriting a variable kills its fact; doing so while the error is
	// still pending is itself the bug.
	for _, obj := range targets {
		if obj == nil {
			continue
		}
		if bits := env[obj]; bits != 0 && report {
			reportBits(rep, bits, births, "the error returned by %s is overwritten before being checked")
		}
		delete(env, obj)
	}
	idx, ok := sites[n]
	if !ok {
		return
	}
	birth := births[idx]
	call, _ := rhsCall(n)
	errLhs := n.Lhs[errSiteIndex(m, info, call)]
	if id, ok := unparen(errLhs).(*ast.Ident); ok && id.Name == "_" {
		if report {
			rep.reportf(birth.pos, "the error returned by %s is assigned to _ and dropped", birth.label)
		}
		return
	}
	obj := objOf(info, errLhs)
	if obj == nil {
		return // stored into a field/element; assume the owner checks it
	}
	env[obj] = 1 << uint(idx)
}

// returnsErrorValue reports whether a return statement carries a non-nil
// expression of an error type.
func returnsErrorValue(info *types.Info, n *ast.ReturnStmt) bool {
	for _, r := range n.Results {
		if id, ok := unparen(r).(*ast.Ident); ok && id.Name == "nil" {
			continue
		}
		tv, ok := info.Types[r]
		if !ok || tv.Type == nil {
			continue
		}
		if implementsError(tv.Type) {
			return true
		}
	}
	return false
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// implementsError covers both the error interface itself and concrete error
// types like *comm.RankError.
func implementsError(t types.Type) bool {
	return types.Implements(t, errorIface)
}

// errSiteIndex re-derives the error result index of a monitored call.
func errSiteIndex(m *Module, info *types.Info, call *ast.CallExpr) int {
	src, _ := errSourceOf(m, info, call)
	return src.errIndex
}

// rhsCall returns the single call expression on an assignment's right-hand
// side, if that is the assignment's whole RHS.
func rhsCall(n *ast.AssignStmt) (*ast.CallExpr, bool) {
	if len(n.Rhs) != 1 {
		return nil, false
	}
	call, ok := unparen(n.Rhs[0]).(*ast.CallExpr)
	return call, ok
}

func reportPending(rep *reporter, env factEnv, births []errBirth, format string) {
	var all uint64
	for _, bits := range env {
		all |= bits
	}
	reportBits(rep, all, births, format)
}

func reportBits(rep *reporter, bits uint64, births []errBirth, format string) {
	for i, b := range births {
		if bits&(1<<uint(i)) != 0 {
			rep.reportf(b.pos, format, b.label)
		}
	}
}
