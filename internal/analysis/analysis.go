// Package analysis is a self-contained static-analysis framework for this
// module, built only on the standard library's go/parser, go/ast and
// go/types. It exists because generic tooling is blind to the invariants
// this codebase lives on: row-major mat.Matrix kernels with view/aliasing
// semantics, an MPI-style comm runtime where a mismatched tag or a blocking
// collective under a held mutex deadlocks the whole World, and solver code
// where exact float64 comparisons silently void the diagonal-dominance
// correctness arguments.
//
// The framework loads the whole module from source (see load.go),
// type-checks it with the stdlib source importer — keeping go.mod free of
// external dependencies — and runs a set of domain Analyzers over the typed
// syntax trees. Findings can be suppressed with inline
// "//lint:ignore <analyzer> reason" comments (see suppress.go).
//
// The cmd/blocktri-lint binary is the multichecker front end.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the canonical file:line: [analyzer] form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
}

// Severity levels for analyzers, mirroring SARIF's defaultConfiguration
// levels. "error" marks checks whose findings are correctness bugs (aliasing
// kernels, deadlocks, arena misuse); "warning" marks style- and
// robustness-tier checks where a finding deserves a look but may be fine.
const (
	SeverityError   = "error"
	SeverityWarning = "warning"
)

// Analyzer is one named check run over the whole loaded module. Run returns
// raw findings; suppression filtering is the driver's job so that tests can
// observe both sides.
type Analyzer struct {
	Name     string
	Doc      string
	Severity string // SeverityError or SeverityWarning
	// NeedsBuild marks analyzers whose evidence comes from invoking the Go
	// toolchain (compilerfacts.go). The toolchain-free perf baseline and
	// the lint time budget exclude them.
	NeedsBuild bool
	Run        func(m *Module) []Finding
}

// Analyzers returns the full analyzer suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		matAliasAnalyzer,
		commTagAnalyzer,
		floatEqAnalyzer,
		panicPolicyAnalyzer,
		wsEscapeAnalyzer,
		poolReleaseAnalyzer,
		errDiscardAnalyzer,
		goLeakAnalyzer,
		lockOrderAnalyzer,
		ctxFlowAnalyzer,
		perfEscapeAnalyzer,
		perfBCEAnalyzer,
		perfInlineAnalyzer,
		asmCheckAnalyzer,
	}
}

// pass accumulates findings for one analyzer over one module.
type pass struct {
	m        *Module
	name     string
	findings []Finding
	// factsFailed records that the compiler-fact provider errored during
	// this pass (perfcontract.go); the pass stops rather than repeating the
	// same module-wide error at every annotation.
	factsFailed bool
}

func (p *pass) reportf(pos token.Pos, format string, args ...any) {
	p.findings = append(p.findings, Finding{
		Pos:      p.m.Fset.Position(pos),
		Analyzer: p.name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// SortFindings orders findings by file, line and column for stable output.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		// The message tiebreak makes the order canonical even when two
		// findings share a position and analyzer.
		return a.Message < b.Message
	})
}

// unparen strips any number of enclosing parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// calleeFunc resolves the function or method a call statically dispatches
// to, or nil when the callee is not a named function (conversions, builtins,
// calls through function-typed variables).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// funcPkgPath returns the import path of the package a function belongs to
// ("" for builtins and universe functions).
func funcPkgPath(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path()
}

// eachFuncBody invokes fn once per function-like body in the file: every
// FuncDecl body and every FuncLit body. Nested function literals are
// reported separately, so analyzers that keep per-function state (lock sets,
// alias maps) can treat each body as its own straight-line scope.
func eachFuncBody(file *ast.File, fn func(body *ast.BlockStmt)) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				fn(n.Body)
			}
		case *ast.FuncLit:
			fn(n.Body)
		}
		return true
	})
}

// inspectShallow walks n in source order like ast.Inspect but does not
// descend into nested function literals: their bodies execute at some other
// time (or never), so statement-order reasoning about the enclosing
// function must not see them.
func inspectShallow(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(node ast.Node) bool {
		if _, ok := node.(*ast.FuncLit); ok && node != n {
			return false
		}
		return fn(node)
	})
}
