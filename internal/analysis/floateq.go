package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// floateq flags == and != between floating-point operands in solver and
// kernel code. The correctness arguments for recursive doubling on
// diagonally dominant systems are stated up to rounding: two mathematically
// equal quantities computed along different reduction orders differ in the
// last ulps, so an exact comparison encodes a property the algorithm does
// not actually guarantee. Two idioms are allowed:
//
//   - comparison against the exact constant 0 (the pivot-singularity
//     check: a computed pivot that is exactly zero is the one value that
//     is exactly representable and exactly meaningful), and comparisons
//     against other exact constants under a //lint:ignore floateq comment;
//   - x != x, the standard NaN probe.
//
// Measurement, reporting and CLI packages are out of scope: they compare
// floats for formatting, not for correctness.
var floatEqAnalyzer = &Analyzer{
	Name:     "floateq",
	Doc:      "flag exact floating-point equality comparisons in solver/kernel code",
	Severity: SeverityWarning,
	Run:      runFloatEq,
}

// floateqExclude lists package paths (exact, or as a subtree) where exact
// float comparison is not a correctness hazard: experiment harnesses,
// workload generators, cost-model reporting, the lint framework itself and
// command-line front ends.
var floateqExclude = []string{
	"blocktri/internal/harness",
	"blocktri/internal/workload",
	"blocktri/internal/costmodel",
	"blocktri/internal/analysis",
	"blocktri/cmd",
	"blocktri/examples",
}

func floateqInScope(path string) bool {
	for _, e := range floateqExclude {
		if path == e || strings.HasPrefix(path, e+"/") {
			return false
		}
	}
	return true
}

func runFloatEq(m *Module) []Finding {
	p := &pass{m: m, name: "floateq"}
	for _, pkg := range m.Pkgs {
		if !floateqInScope(pkg.Path) {
			continue
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				be, ok := n.(*ast.BinaryExpr)
				if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
					return true
				}
				if !isFloatExpr(pkg.Info, be.X) || !isFloatExpr(pkg.Info, be.Y) {
					return true
				}
				if isExactZero(pkg.Info, be.X) || isExactZero(pkg.Info, be.Y) {
					return true
				}
				if be.Op == token.NEQ && types.ExprString(be.X) == types.ExprString(be.Y) {
					// x != x is the NaN probe.
					return true
				}
				p.reportf(be.OpPos,
					"exact floating-point comparison %s %s %s: use a tolerance (EqualApprox / math.Abs(a-b) <= eps); if the exact compare is intentional, add //lint:ignore floateq with the reason",
					types.ExprString(be.X), be.Op, types.ExprString(be.Y))
				return true
			})
		}
	}
	return p.findings
}

// isFloatExpr reports whether e has floating-point type (including untyped
// float constants).
func isFloatExpr(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isExactZero reports whether e is a compile-time constant equal to zero.
func isExactZero(info *types.Info, e ast.Expr) bool {
	tv := info.Types[e]
	if tv.Value == nil {
		return false
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		return constant.Sign(tv.Value) == 0
	}
	return false
}
