package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// matalias flags calls to mat kernels whose destination argument may alias
// a source argument. The mat package documents which kernels tolerate
// aliasing (Add, Sub, Neg read and write elementwise in lockstep) and which
// do not: the GEMM family and Transpose read their sources while writing
// dst, so an aliased call computes with partially overwritten operands and
// silently produces garbage — the worst failure mode a solver kernel can
// have, because the residual check downstream is the first place it shows.
//
// The may-alias relation is derived per function, conservatively, from
// three sources: identical expressions (mat.Mul(a, a, b)), view-constructor
// chains (v := a.View(...) or a.Row(i) aliases a, including when the view
// call appears inline as an argument), and shared backing arrays
// (&mat.Matrix{Data: a.Data} aliases a). Distinct views of the same parent
// are treated as aliasing even when their element ranges happen to be
// disjoint: the analyzer checks the documented contract ("dst must not
// alias a or b"), not runtime overlap.
var matAliasAnalyzer = &Analyzer{
	Name:     "matalias",
	Doc:      "flag mat kernel calls whose destination may alias a source operand",
	Severity: SeverityError,
	Run:      runMatAlias,
}

const matPkgPath = "blocktri/internal/mat"

// matKernel describes one checked kernel: which argument index is the
// destination and which are the sources it must not alias. Indexes are
// into ast.CallExpr.Args (the receiver of a method call is not counted).
type matKernel struct {
	dst  int
	srcs []int
}

// matKernels lists the kernels whose documentation says "dst must not
// alias". Aliasing-safe kernels (Add, Sub, Neg, AXPY, CopyFrom) are
// deliberately absent.
var matKernels = map[string]matKernel{
	"Mul":       {dst: 0, srcs: []int{1, 2}},
	"MulAdd":    {dst: 0, srcs: []int{1, 2}},
	"MulSub":    {dst: 0, srcs: []int{1, 2}},
	"MulTrans":  {dst: 0, srcs: []int{1, 2}},
	"GEMM":      {dst: 4, srcs: []int{1, 2}},
	"Transpose": {dst: 0, srcs: []int{1}},
	// (*LU).SolveTo(dst, b): dst must not alias b.
	"SolveTo": {dst: 0, srcs: []int{1}},
}

// viewMethods are mat.Matrix methods whose result shares storage with the
// receiver.
var viewMethods = map[string]bool{"View": true, "Row": true, "Col": true}

// freshFuncs are mat functions/methods whose result is freshly allocated
// and therefore aliases nothing the caller holds.
var freshFuncs = map[string]bool{
	"New": true, "NewFromSlice": true, "Identity": true, "Diag": true,
	"Random": true, "RandomDiagDominant": true, "RandomSPD": true,
	"Clone": true, "Inverse": true, "Solve": true,
}

func runMatAlias(m *Module) []Finding {
	p := &pass{m: m, name: "matalias"}
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			eachFuncBody(file, func(body *ast.BlockStmt) {
				checkFuncAliases(p, pkg.Info, body)
			})
		}
	}
	return p.findings
}

// checkFuncAliases analyzes one function body in a single source-ordered
// walk: matrix-typed assignments update the alias-root map as they are
// encountered, and each kernel call is checked against the map state at
// that point. Forward flow only, deliberately: loop-carried aliasing
// (y = dst at the bottom of a ping-pong double-buffer loop) is exactly the
// idiom whose buffers alternate by construction, and flagging it would
// drown the signal in suppressions.
func checkFuncAliases(p *pass, info *types.Info, body *ast.BlockStmt) {
	aliases := make(map[types.Object]string)
	inspectShallow(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				// Only matrix-valued assignments can transfer storage.
				if obj == nil || !isMatrixType(info.TypeOf(n.Rhs[i])) {
					continue
				}
				if key, ok := aliasKey(info, aliases, n.Rhs[i]); ok {
					aliases[obj] = key
				} else {
					// Reassigned to fresh or unknown storage: the old
					// alias no longer holds.
					delete(aliases, obj)
				}
			}
		case *ast.CallExpr:
			checkKernelCall(p, info, aliases, n)
		}
		return true
	})
}

// checkKernelCall reports a finding if a mat kernel call's destination may
// alias one of its sources under the current alias map.
func checkKernelCall(p *pass, info *types.Info, aliases map[types.Object]string, call *ast.CallExpr) {
	f := calleeFunc(info, call)
	if f == nil || funcPkgPath(f) != matPkgPath {
		return
	}
	k, ok := matKernels[f.Name()]
	if !ok || len(call.Args) <= k.dst {
		return
	}
	dstKey, ok := aliasKey(info, aliases, call.Args[k.dst])
	if !ok {
		return
	}
	for _, si := range k.srcs {
		if si >= len(call.Args) {
			continue
		}
		srcKey, ok := aliasKey(info, aliases, call.Args[si])
		if ok && srcKey == dstKey {
			p.reportf(call.Pos(),
				"destination %s may alias source %s in mat.%s (the kernel reads its sources while writing dst; use a fresh matrix or Clone)",
				types.ExprString(call.Args[k.dst]), types.ExprString(call.Args[si]), f.Name())
		}
	}
}

// aliasKey computes a canonical storage-root key for an expression: two
// expressions with the same key may share backing storage. ok=false means
// the expression's storage is unknown or fresh, in which case no aliasing
// is assumed.
func aliasKey(info *types.Info, aliases map[types.Object]string, e ast.Expr) (string, bool) {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		if obj == nil {
			return "", false
		}
		if key, ok := aliases[obj]; ok {
			return key, true
		}
		return fmt.Sprintf("obj:%s@%d", obj.Id(), obj.Pos()), true
	case *ast.SelectorExpr:
		base, ok := aliasKey(info, aliases, e.X)
		if !ok {
			return "", false
		}
		return base + "." + e.Sel.Name, true
	case *ast.IndexExpr:
		base, ok := aliasKey(info, aliases, e.X)
		if !ok {
			return "", false
		}
		return base + "[" + types.ExprString(e.Index) + "]", true
	case *ast.StarExpr:
		return aliasKey(info, aliases, e.X)
	case *ast.UnaryExpr:
		return aliasKey(info, aliases, e.X)
	case *ast.CallExpr:
		f := calleeFunc(info, e)
		if f == nil || funcPkgPath(f) != matPkgPath {
			return "", false
		}
		if freshFuncs[f.Name()] {
			return "", false
		}
		if viewMethods[f.Name()] {
			// The view aliases its receiver.
			if sel, ok := unparen(e.Fun).(*ast.SelectorExpr); ok {
				return aliasKey(info, aliases, sel.X)
			}
		}
		return "", false
	case *ast.CompositeLit:
		// &mat.Matrix{..., Data: x.Data} aliases x.
		if !isMatrixType(info.TypeOf(e)) {
			return "", false
		}
		for _, elt := range e.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "Data" {
				if sel, ok := unparen(kv.Value).(*ast.SelectorExpr); ok && sel.Sel.Name == "Data" {
					return aliasKey(info, aliases, sel.X)
				}
				return aliasKey(info, aliases, kv.Value)
			}
		}
		return "", false
	}
	return "", false
}

// isMatrixType reports whether t is mat.Matrix or *mat.Matrix.
func isMatrixType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == matPkgPath && named.Obj().Name() == "Matrix"
}
