package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// panicpolicy enforces the module's error-handling contract: solver and
// library code reports failures as error values — ErrSingular from a
// factorization is an expected input condition, not a programming bug — so
// panicking on an error value turns a recoverable "this matrix is
// singular" into a process crash five frames away from the context that
// could have explained it. Symmetrically, discarding the error result of a
// Factor/Solve/Invert-family call means a singular system sails through
// and the garbage shows up later as a large residual.
//
// Two patterns are flagged outside internal/harness (the experiment
// harness may still abort a suite) and _test.go files (which the loader
// does not even parse):
//
//   - panic(x) where x's static type implements error;
//   - a call to Factor, Factorize, FactorInPlace, Solve, SolveTo, Invert
//     or Inverse whose error result is discarded, either by using the call
//     as a statement or by assigning the error to the blank identifier.
//
// Additionally, inside the runtime core — internal/comm and internal/core —
// every bare panic is flagged regardless of its argument type. Those
// packages run under World.Run, whose contract is that failures unwind as
// typed *RankError values via comm.Throw; a bare panic bypasses the typed
// unwind and reaches the recovery layer as an anonymous crash. The handful
// of sanctioned panics (Throw itself, the cascade-abort control signal,
// constructor misuse outside any Run body) carry //lint:ignore panicpolicy
// directives with their rationale.
var panicPolicyAnalyzer = &Analyzer{
	Name:     "panicpolicy",
	Doc:      "flag panic(err), discarded factor/solve errors, and bare panics in the comm/core runtime",
	Severity: SeverityWarning,
	Run:      runPanicPolicy,
}

// errorResultFuncs is the factor/solve/invert call family covered by the
// discarded-error check.
var errorResultFuncs = map[string]bool{
	"Factor": true, "Factorize": true, "FactorInPlace": true,
	"Solve": true, "SolveTo": true, "Invert": true, "Inverse": true,
}

const (
	harnessPkgPath = "blocktri/internal/harness"
	corePkgPath    = "blocktri/internal/core"
)

// barePanicScoped reports whether pkg path is under the typed-unwind
// contract that forbids new bare panics (fixtures load under a synthetic
// "fix/..." path). commPkgPath is declared in lockorder.go.
func barePanicScoped(path string) bool {
	return path == commPkgPath || path == corePkgPath || strings.HasPrefix(path, "fix/")
}

func runPanicPolicy(m *Module) []Finding {
	p := &pass{m: m, name: "panicpolicy"}
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	for _, pkg := range m.Pkgs {
		if pkg.Path == harnessPkgPath {
			continue
		}
		inRuntime := barePanicScoped(pkg.Path)
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					checkPanicErr(p, pkg.Info, errIface, n)
					if inRuntime {
						checkBarePanic(p, pkg.Info, errIface, n)
					}
				case *ast.ExprStmt:
					if call, ok := unparen(n.X).(*ast.CallExpr); ok {
						checkDiscardedAll(p, pkg.Info, call)
					}
				case *ast.AssignStmt:
					checkDiscardedBlank(p, pkg.Info, n)
				}
				return true
			})
		}
	}
	return p.findings
}

// checkPanicErr flags panic(x) where x is an error value.
func checkPanicErr(p *pass, info *types.Info, errIface *types.Interface, call *ast.CallExpr) {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" || len(call.Args) != 1 {
		return
	}
	if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
		return
	}
	t := info.TypeOf(call.Args[0])
	if t == nil || !types.Implements(t, errIface) {
		return
	}
	p.reportf(call.Pos(),
		"panic(%s): return the error instead; ErrSingular and friends are expected input conditions, and a panicking rank takes the whole World down",
		types.ExprString(call.Args[0]))
}

// checkBarePanic flags every panic call in the runtime-core packages whose
// argument is NOT an error value (those are already covered by
// checkPanicErr, with a more specific message).
func checkBarePanic(p *pass, info *types.Info, errIface *types.Interface, call *ast.CallExpr) {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" || len(call.Args) != 1 {
		return
	}
	if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
		return
	}
	if t := info.TypeOf(call.Args[0]); t != nil && types.Implements(t, errIface) {
		return
	}
	p.reportf(call.Pos(),
		"bare panic in the comm/core runtime: failures must unwind as typed errors via comm.Throw (or be returned); suppress with a lint:ignore directive only for sanctioned control-flow panics")
}

// watchedCall returns the called factor/solve/invert function and the
// positions of its error results, if any.
func watchedCall(info *types.Info, call *ast.CallExpr) (f *types.Func, errAt []int) {
	f = calleeFunc(info, call)
	if f == nil || !errorResultFuncs[f.Name()] {
		return nil, nil
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return nil, nil
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if isErrorType(sig.Results().At(i).Type()) {
			errAt = append(errAt, i)
		}
	}
	if len(errAt) == 0 {
		return nil, nil
	}
	return f, errAt
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// checkDiscardedAll flags a watched call used as a bare statement, which
// discards every result including the error.
func checkDiscardedAll(p *pass, info *types.Info, call *ast.CallExpr) {
	f, _ := watchedCall(info, call)
	if f == nil {
		return
	}
	p.reportf(call.Pos(),
		"error result of %s is discarded: a singular or ill-shaped system would go unnoticed until the residual blows up", f.Name())
}

// checkDiscardedBlank flags assignments that bind a watched call's error
// result to the blank identifier.
func checkDiscardedBlank(p *pass, info *types.Info, as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	f, errAt := watchedCall(info, call)
	if f == nil {
		return
	}
	for _, i := range errAt {
		if i >= len(as.Lhs) {
			continue
		}
		if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
			p.reportf(as.Pos(),
				"error result of %s is assigned to _: handle it (ErrSingular is an expected input condition, not an impossibility)", f.Name())
		}
	}
}
