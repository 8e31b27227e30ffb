package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// blockshape is a symbolic abstract interpreter over the mat call sites of
// every non-mat package. Matrix dimensions are tracked as linear terms over
// symbolic variables rooted in local objects (the value of an int variable,
// the row/column count of a matrix variable, the order of a factorization),
// seeded from the mat constructors and from function summaries (summary.go),
// and propagated through a forward must-equality dataflow. At each checked
// call site — the GEMM family, elementwise ops, CopyFrom, factorizations and
// their solves — the analyzer compares the terms the contract requires to be
// equal and reports when they are *provably* different for every positive
// assignment of the symbols (2m vs m mismatches; m vs k is silently assumed
// fine). A weaker report flags suspicious constant-vs-symbolic mixes, where
// one side of a required equality is a bare literal and the other a symbolic
// block size.
//
// Soundness of the variable discipline: a symbolic variable minted for an
// object denotes that object's value at the current program point. Any write
// to the object scrubs every tracked value whose term mentions it, so two
// terms mentioning the same variable always refer to the same runtime value.
// Matrix dimensions are stable after construction (no mat API resizes), so
// calls do not scrub. Objects whose address is taken, or that a function
// literal writes, are never given variables at all.
var blockShapeAnalyzer = &Analyzer{
	Name:     "blockshape",
	Doc:      "mat call sites must be shape-conformant under symbolic block dimensions",
	Severity: SeverityError,
	Version:  3,
	Run:      runBlockShape,
}

type locVarKind int

const (
	lvInt  locVarKind = iota // the value of an int variable
	lvRows                   // the row count of a matrix variable
	lvCols                   // the column count of a matrix variable
	lvN                      // the order of an LU variable
)

// locVar is one symbolic variable of a blockshape term, rooted in a local
// (or captured) object.
type locVar struct {
	kind locVarKind
	obj  types.Object
}

type locTerm = linTerm[locVar]

type absKind int

const (
	avNone absKind = iota
	avInt
	avMat
	avFac
	avPack
)

// absVal is the abstract value of one tracked variable: an int as a term,
// a matrix as a (rows, cols) term pair, a factorization as its order, or a
// packed A-panel as its (Rows(), K()) pair — stored in the rows/cols slots,
// since a PackedA is just the frozen shape of the matrix it packed.
type absVal struct {
	kind       absKind
	x          locTerm // avInt
	rows, cols locTerm // avMat
	n          locTerm // avFac
}

func (v absVal) equal(o absVal) bool {
	return v.kind == o.kind && v.x.equal(o.x) &&
		v.rows.equal(o.rows) && v.cols.equal(o.cols) && v.n.equal(o.n)
}

func (v absVal) mentions(obj types.Object) bool {
	for _, t := range []locTerm{v.x, v.rows, v.cols, v.n} {
		for lv := range t.Lin {
			if lv.obj == obj {
				return true
			}
		}
	}
	return false
}

// shapeEnv maps tracked objects to abstract values. Join is intersection
// with equality (a flat lattice per variable), so states only shrink and the
// fixed point is structural.
type shapeEnv map[types.Object]absVal

func cloneShapeEnv(e shapeEnv) shapeEnv {
	out := make(shapeEnv, len(e))
	for k, v := range e {
		out[k] = v
	}
	return out
}

func joinShapeEnv(a, b shapeEnv) shapeEnv {
	for k, v := range a {
		if bv, ok := b[k]; !ok || !v.equal(bv) {
			delete(a, k)
		}
	}
	return a
}

func equalShapeEnv(a, b shapeEnv) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		bv, ok := b[k]
		if !ok || !v.equal(bv) {
			return false
		}
	}
	return true
}

func runBlockShape(m *Module) []Finding {
	p := &pass{m: m, name: "blockshape"}
	rep := newReporter(p)
	for _, pkg := range m.Pkgs {
		if pkg.Path == matPkgPath {
			continue // the library's own internals are its unit tests' job
		}
		for _, file := range pkg.Files {
			eachFuncBody(file, func(body *ast.BlockStmt) {
				blockShapeFunc(rep, m, pkg.Info, body)
			})
		}
	}
	return p.findings
}

// bsEval carries the per-function evaluation context.
type bsEval struct {
	rep      *reporter
	m        *Module
	info     *types.Info
	volatile map[types.Object]bool
}

const bsEvalDepth = 8

func blockShapeFunc(rep *reporter, m *Module, info *types.Info, body *ast.BlockStmt) {
	bs := &bsEval{rep: rep, m: m, info: info, volatile: volatileObjs(info, body)}
	g := BuildCFG(body)
	in := solveFlow(g, flowProblem[shapeEnv]{
		boundary: func() shapeEnv { return shapeEnv{} },
		transfer: func(env shapeEnv, b *Block) shapeEnv { return bs.transfer(env, b, false) },
		join:     joinShapeEnv,
		equal:    equalShapeEnv,
		clone:    cloneShapeEnv,
	})
	for _, b := range g.Blocks {
		env, ok := in[b]
		if !ok {
			continue
		}
		bs.transfer(cloneShapeEnv(env), b, true)
	}
}

// volatileObjs collects the objects blockshape must never mint variables
// for: anything whose address is taken, and anything a nested function
// literal writes (the write runs at an unknowable time relative to the
// enclosing flow).
func volatileObjs(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	vol := make(map[types.Object]bool)
	mark := func(e ast.Expr) {
		if obj := rootObjOf(info, e); obj != nil {
			vol[obj] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			ast.Inspect(n.Body, func(x ast.Node) bool {
				switch x := x.(type) {
				case *ast.AssignStmt:
					for _, l := range x.Lhs {
						mark(l)
					}
				case *ast.IncDecStmt:
					mark(x.X)
				case *ast.RangeStmt:
					if x.Key != nil {
						mark(x.Key)
					}
					if x.Value != nil {
						mark(x.Value)
					}
				case *ast.UnaryExpr:
					if x.Op == token.AND {
						mark(x.X)
					}
				}
				return true
			})
			return false // the inner Inspect covered it
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				mark(n.X)
			}
		}
		return true
	})
	return vol
}

// rootObjOf unwraps selectors, indexes, stars and parens to the base
// identifier's object — the variable a write to the expression disturbs.
func rootObjOf(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := unparen(e).(type) {
		case *ast.Ident:
			return objOf(info, x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func (bs *bsEval) scrub(env shapeEnv, obj types.Object) {
	if obj == nil {
		return
	}
	delete(env, obj)
	for k, v := range env {
		if v.mentions(obj) {
			delete(env, k)
		}
	}
}

// transfer folds one block: check every mat call against the incoming state
// (report pass only), then apply the block's binding and scrubbing effects.
func (bs *bsEval) transfer(env shapeEnv, b *Block, report bool) shapeEnv {
	for _, n := range b.Nodes {
		if report {
			walkExprs(n, func(x ast.Node) bool {
				if call, ok := x.(*ast.CallExpr); ok {
					bs.checkCall(env, call)
				}
				return true
			})
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			bs.assign(env, n.Lhs, n.Rhs)
		case *ast.DeclStmt:
			if gd, ok := n.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					lhs := make([]ast.Expr, len(vs.Names))
					for i, id := range vs.Names {
						lhs[i] = id
					}
					bs.assign(env, lhs, vs.Values)
				}
			}
		case *ast.IncDecStmt:
			bs.scrub(env, rootObjOf(bs.info, n.X))
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{n.Key, n.Value} {
				if e != nil {
					bs.scrub(env, rootObjOf(bs.info, e))
				}
			}
		}
	}
	return env
}

// assign applies one (possibly multi-value) assignment: evaluate the RHS
// against the pre-state, scrub every written root, then bind.
func (bs *bsEval) assign(env shapeEnv, lhs, rhs []ast.Expr) {
	vals := make([]absVal, len(lhs))
	if len(rhs) == len(lhs) {
		for i, r := range rhs {
			vals[i] = bs.evalAny(env, r, 0)
		}
	} else if len(rhs) == 1 {
		if call, ok := unparen(rhs[0]).(*ast.CallExpr); ok {
			vals[0] = bs.evalCallResult0(env, call, 0)
		}
	}
	for _, l := range lhs {
		bs.scrub(env, rootObjOf(bs.info, l))
	}
	for i, l := range lhs {
		if vals[i].kind == avNone {
			continue
		}
		if obj := objOf(bs.info, l); obj != nil && !bs.volatile[obj] {
			env[obj] = vals[i]
		}
	}
}

// --- evaluation -------------------------------------------------------------

// evalAny evaluates an expression by its static type.
func (bs *bsEval) evalAny(env shapeEnv, e ast.Expr, depth int) absVal {
	tv, ok := bs.info.Types[e]
	if !ok {
		return absVal{}
	}
	return bs.evalTyped(env, e, tv.Type, depth)
}

func (bs *bsEval) evalTyped(env shapeEnv, e ast.Expr, t types.Type, depth int) absVal {
	switch {
	case isIntType(t):
		if x := bs.evalInt(env, e, depth); x.Known {
			return absVal{kind: avInt, x: x}
		}
	case isMatrix(t):
		return bs.evalMat(env, e, depth)
	case isFactorization(t):
		if n := bs.evalFac(env, e, depth); n.Known {
			return absVal{kind: avFac, n: n}
		}
	case isPackedA(t):
		return bs.evalPack(env, e, depth)
	}
	return absVal{}
}

// evalCallResult0 evaluates the first result of a call used in a
// one-call-many-values assignment (Factor, mat.Solve, ws.LU).
func (bs *bsEval) evalCallResult0(env shapeEnv, call *ast.CallExpr, depth int) absVal {
	tv, ok := bs.info.Types[call]
	if !ok {
		return absVal{}
	}
	t := tv.Type
	if tup, ok := t.(*types.Tuple); ok {
		if tup.Len() == 0 {
			return absVal{}
		}
		t = tup.At(0).Type()
	}
	return bs.evalTyped(env, call, t, depth)
}

func isFactorization(t types.Type) bool {
	p, n := namedFrom(t)
	return p == matPkgPath && n == "LU"
}

func isPackedA(t types.Type) bool {
	p, n := namedFrom(t)
	return p == matPkgPath && n == "PackedA"
}

// evalInt evaluates an int expression as a term over local variables.
func (bs *bsEval) evalInt(env shapeEnv, e ast.Expr, depth int) locTerm {
	if depth > bsEvalDepth {
		return locTerm{}
	}
	info := bs.info
	e = unparen(e)
	if tv, ok := info.Types[e]; ok && tv.Value != nil {
		if k, exact := constInt64(tv); exact {
			return constTerm[locVar](k)
		}
		return locTerm{}
	}
	switch x := e.(type) {
	case *ast.Ident:
		obj := objOf(info, x)
		if obj == nil || bs.volatile[obj] {
			return locTerm{}
		}
		if v, ok := env[obj]; ok && v.kind == avInt {
			return v.x
		}
		if isIntType(obj.Type()) {
			return varTerm(locVar{lvInt, obj})
		}
	case *ast.SelectorExpr:
		obj := objOf(info, x.X)
		if obj == nil || bs.volatile[obj] {
			return locTerm{}
		}
		if isMatrix(obj.Type()) {
			switch x.Sel.Name {
			case "Rows":
				return bs.matVal(env, obj).rows
			case "Cols":
				return bs.matVal(env, obj).cols
			}
		}
	case *ast.CallExpr:
		// lu.N() / ch.N(): the factorization order; pa.Rows() / pa.K(): the
		// frozen dimensions of a packed A-panel.
		if f := calleeFunc(info, x); f != nil && funcPkgPath(f) == matPkgPath {
			sel, ok := unparen(x.Fun).(*ast.SelectorExpr)
			if !ok {
				break
			}
			switch f.Name() {
			case "N":
				return bs.evalFac(env, sel.X, depth+1)
			case "Rows":
				if named := recvNamedType(f); named != nil && named.Obj().Name() == "PackedA" {
					return bs.evalPack(env, sel.X, depth+1).rows
				}
			case "K":
				if named := recvNamedType(f); named != nil && named.Obj().Name() == "PackedA" {
					return bs.evalPack(env, sel.X, depth+1).cols
				}
			}
		}
	case *ast.BinaryExpr:
		a := bs.evalInt(env, x.X, depth+1)
		b := bs.evalInt(env, x.Y, depth+1)
		if !a.Known || !b.Known {
			return locTerm{}
		}
		switch x.Op {
		case token.ADD:
			return a.add(b, 1)
		case token.SUB:
			return a.add(b, -1)
		case token.MUL:
			if a.pureConst() {
				return b.scale(a.K)
			}
			if b.pureConst() {
				return a.scale(b.K)
			}
		}
	case *ast.UnaryExpr:
		if x.Op == token.SUB {
			return bs.evalInt(env, x.X, depth+1).scale(-1)
		}
		if x.Op == token.ADD {
			return bs.evalInt(env, x.X, depth+1)
		}
	}
	return locTerm{}
}

// matVal returns the tracked or minted shape of a plain matrix variable.
func (bs *bsEval) matVal(env shapeEnv, obj types.Object) absVal {
	if v, ok := env[obj]; ok && v.kind == avMat {
		return v
	}
	if bs.volatile[obj] || !isMatrix(obj.Type()) {
		return absVal{}
	}
	return absVal{
		kind: avMat,
		rows: varTerm(locVar{lvRows, obj}),
		cols: varTerm(locVar{lvCols, obj}),
	}
}

// evalMat evaluates a matrix-typed expression to its symbolic shape.
func (bs *bsEval) evalMat(env shapeEnv, e ast.Expr, depth int) absVal {
	if depth > bsEvalDepth {
		return absVal{}
	}
	info := bs.info
	e = unparen(e)
	switch x := e.(type) {
	case *ast.Ident:
		if obj := objOf(info, x); obj != nil {
			return bs.matVal(env, obj)
		}
	case *ast.CallExpr:
		return bs.evalMatCall(env, x, depth)
	}
	return absVal{}
}

// evalMatCall evaluates the matrix result of a call: the mat constructors
// and shape-preserving accessors directly, everything else through its
// function summary.
func (bs *bsEval) evalMatCall(env shapeEnv, call *ast.CallExpr, depth int) absVal {
	info := bs.info
	f := calleeFunc(info, call)
	if f == nil {
		return absVal{}
	}
	mk := func(r, c locTerm) absVal {
		if !r.Known || !c.Known {
			return absVal{}
		}
		return absVal{kind: avMat, rows: r, cols: c}
	}
	if funcPkgPath(f) == matPkgPath {
		recvName := ""
		if named := recvNamedType(f); named != nil {
			recvName = named.Obj().Name()
		}
		argInt := func(i int) locTerm { return bs.evalInt(env, call.Args[i], depth+1) }
		argMat := func(i int) absVal { return bs.evalMat(env, call.Args[i], depth+1) }
		recvExpr := func() ast.Expr {
			if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
				return sel.X
			}
			return nil
		}
		recvMat := func() absVal {
			if x := recvExpr(); x != nil {
				return bs.evalMat(env, x, depth+1)
			}
			return absVal{}
		}
		recvN := func() locTerm {
			if x := recvExpr(); x != nil {
				return bs.evalFac(env, x, depth+1)
			}
			return locTerm{}
		}
		switch {
		case recvName == "" && (f.Name() == "New" || f.Name() == "NewFromSlice"):
			return mk(argInt(0), argInt(1))
		case recvName == "" && f.Name() == "Identity":
			n := argInt(0)
			return mk(n, n)
		case recvName == "" && f.Name() == "Solve":
			return mk(argMat(0).rows, argMat(1).cols)
		case recvName == "" && f.Name() == "Inverse":
			a := argMat(0)
			return mk(a.rows, a.cols)
		case recvName == "Workspace" && (f.Name() == "Get" || f.Name() == "GetNoClear"):
			return mk(argInt(0), argInt(1))
		case recvName == "Workspace" && f.Name() == "View":
			return mk(argInt(3), argInt(4))
		case recvName == "Workspace" && f.Name() == "CloneOf":
			a := argMat(0)
			return mk(a.rows, a.cols)
		case recvName == "Matrix" && f.Name() == "View":
			return mk(argInt(2), argInt(3))
		case recvName == "Matrix" && f.Name() == "Clone":
			r := recvMat()
			return mk(r.rows, r.cols)
		case recvName == "Matrix" && f.Name() == "Row":
			return mk(constTerm[locVar](1), recvMat().cols)
		case recvName == "Matrix" && f.Name() == "Col":
			return mk(recvMat().rows, constTerm[locVar](1))
		case recvName == "LU" && f.Name() == "Solve":
			return mk(recvN(), argMat(0).cols)
		case recvName == "LU" && f.Name() == "Inverse":
			n := recvN()
			return mk(n, n)
		}
		return absVal{}
	}
	sum := bs.m.calleeSummary(f)
	if sum == nil || len(sum.Dims) == 0 || !sum.Dims[0].known() {
		return absVal{}
	}
	return mk(
		bs.substLocalTerm(env, sum.Dims[0].Rows, call, depth+1),
		bs.substLocalTerm(env, sum.Dims[0].Cols, call, depth+1),
	)
}

// substLocalTerm rewrites a summary term (over callee parameters) into the
// caller's local variable space by evaluating the arguments.
func (bs *bsEval) substLocalTerm(env shapeEnv, t sumTerm, call *ast.CallExpr, depth int) locTerm {
	if !t.Known || depth > bsEvalDepth {
		return locTerm{}
	}
	out := constTerm[locVar](t.K)
	for v, c := range t.Lin {
		if v.Param >= len(call.Args) {
			return locTerm{}
		}
		var val locTerm
		switch v.Kind {
		case svInt:
			val = bs.evalInt(env, call.Args[v.Param], depth)
		case svRows:
			val = bs.evalMat(env, call.Args[v.Param], depth).rows
		case svCols:
			val = bs.evalMat(env, call.Args[v.Param], depth).cols
		}
		if !val.Known {
			return locTerm{}
		}
		out = out.add(val.scale(c), 1)
	}
	return out
}

// packVal returns the tracked or minted shape of a plain PackedA variable.
// The minted variables reuse the lvRows/lvCols kinds: they denote Rows()/K()
// of the object, with the same stability guarantee (a PackedA's dimensions
// are frozen at pack time).
func (bs *bsEval) packVal(env shapeEnv, obj types.Object) absVal {
	if v, ok := env[obj]; ok && v.kind == avPack {
		return v
	}
	if bs.volatile[obj] || !isPackedA(obj.Type()) {
		return absVal{}
	}
	return absVal{
		kind: avPack,
		rows: varTerm(locVar{lvRows, obj}),
		cols: varTerm(locVar{lvCols, obj}),
	}
}

// evalPack evaluates a PackedA-typed expression to the symbolic shape of the
// matrix it packed: the constructors freeze the source's (rows, cols) as the
// panel's (Rows(), K()).
func (bs *bsEval) evalPack(env shapeEnv, e ast.Expr, depth int) absVal {
	if depth > bsEvalDepth {
		return absVal{}
	}
	info := bs.info
	e = unparen(e)
	switch x := e.(type) {
	case *ast.Ident:
		if obj := objOf(info, x); obj != nil {
			return bs.packVal(env, obj)
		}
	case *ast.CompositeLit:
		// mat.PackedA{} is the legacy sentinel: no shape claims.
		return absVal{}
	case *ast.CallExpr:
		f := calleeFunc(info, x)
		if f == nil || funcPkgPath(f) != matPkgPath || recvNamedType(f) != nil {
			return absVal{}
		}
		var src absVal
		switch {
		case f.Name() == "NewPackedA" && len(x.Args) == 2:
			src = bs.evalMat(env, x.Args[1], depth+1)
		case f.Name() == "PackAInto" && len(x.Args) == 3:
			src = bs.evalMat(env, x.Args[2], depth+1)
		default:
			return absVal{}
		}
		if !src.rows.Known || !src.cols.Known {
			return absVal{}
		}
		return absVal{kind: avPack, rows: src.rows, cols: src.cols}
	}
	return absVal{}
}

// evalFac evaluates an LU expression to its symbolic order.
func (bs *bsEval) evalFac(env shapeEnv, e ast.Expr, depth int) locTerm {
	if depth > bsEvalDepth {
		return locTerm{}
	}
	info := bs.info
	e = unparen(e)
	switch x := e.(type) {
	case *ast.Ident:
		obj := objOf(info, x)
		if obj == nil || bs.volatile[obj] {
			return locTerm{}
		}
		if v, ok := env[obj]; ok && v.kind == avFac {
			return v.n
		}
		if isFactorization(obj.Type()) {
			return varTerm(locVar{lvN, obj})
		}
	case *ast.CallExpr:
		f := calleeFunc(info, x)
		if f == nil || funcPkgPath(f) != matPkgPath {
			return locTerm{}
		}
		recvName := ""
		if named := recvNamedType(f); named != nil {
			recvName = named.Obj().Name()
		}
		switch {
		case recvName == "" && (f.Name() == "Factor" || f.Name() == "FactorInPlace"),
			recvName == "Workspace" && f.Name() == "LU":
			return bs.evalMat(env, x.Args[0], depth+1).rows
		}
	}
	return locTerm{}
}

// --- checks -----------------------------------------------------------------

// checkCall verifies the shape contract of one mat call site against the
// current abstract state.
func (bs *bsEval) checkCall(env shapeEnv, call *ast.CallExpr) {
	f := calleeFunc(bs.info, call)
	if f == nil || funcPkgPath(f) != matPkgPath {
		return
	}
	recvName := ""
	if named := recvNamedType(f); named != nil {
		recvName = named.Obj().Name()
	}
	argMat := func(i int) absVal {
		if i >= len(call.Args) {
			return absVal{}
		}
		return bs.evalMat(env, call.Args[i], 0)
	}
	recvExpr := func() ast.Expr {
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
			return sel.X
		}
		return nil
	}
	name := "mat." + f.Name()
	if recvName != "" {
		name = recvName + "." + f.Name()
	}
	cmp := func(whatA string, a locTerm, whatB string, b locTerm) {
		bs.require(call, name, whatA, a, whatB, b)
	}
	sameShape := func(labelA string, a absVal, labelB string, b absVal) {
		cmp(labelA+" rows", a.rows, labelB+" rows", b.rows)
		cmp(labelA+" cols", a.cols, labelB+" cols", b.cols)
	}
	mulCheck := func(dst, a, b absVal) {
		cmp("a.Cols", a.cols, "b.Rows", b.rows)
		cmp("dst.Rows", dst.rows, "a.Rows", a.rows)
		cmp("dst.Cols", dst.cols, "b.Cols", b.cols)
	}
	square := func(label string, a absVal) {
		cmp(label+" rows", a.rows, label+" cols", a.cols)
	}

	switch {
	case recvName == "":
		switch f.Name() {
		case "Mul", "MulAdd", "MulSub":
			if len(call.Args) == 3 {
				mulCheck(argMat(0), argMat(1), argMat(2))
			}
		case "GEMM":
			if len(call.Args) == 5 {
				mulCheck(argMat(4), argMat(1), argMat(2))
			}
		case "MulAddPacked":
			// dst += pack(a) * b with a pre-packed A: the panel froze a's
			// (rows, cols) as (Rows(), K()), so the GEMM contract reads
			// pa.K == b.Rows, dst.Rows == pa.Rows, dst.Cols == b.Cols.
			if len(call.Args) == 4 {
				dst, b := argMat(0), argMat(2)
				pa := bs.evalPack(env, call.Args[1], 0)
				cmp("pa.K", pa.cols, "b.Rows", b.rows)
				cmp("dst.Rows", dst.rows, "pa.Rows", pa.rows)
				cmp("dst.Cols", dst.cols, "b.Cols", b.cols)
			}
		case "Add", "Sub":
			if len(call.Args) == 3 {
				sameShape("dst", argMat(0), "a", argMat(1))
				sameShape("a", argMat(1), "b", argMat(2))
			}
		case "Neg":
			if len(call.Args) == 2 {
				sameShape("dst", argMat(0), "a", argMat(1))
			}
		case "Transpose":
			if len(call.Args) == 2 {
				cmp("dst.Rows", argMat(0).rows, "a.Cols", argMat(1).cols)
				cmp("dst.Cols", argMat(0).cols, "a.Rows", argMat(1).rows)
			}
		case "AXPY":
			if len(call.Args) == 3 {
				sameShape("dst", argMat(0), "x", argMat(2))
			}
		case "Dot":
			if len(call.Args) == 2 {
				sameShape("a", argMat(0), "b", argMat(1))
			}
		case "Solve":
			if len(call.Args) == 2 {
				square("a", argMat(0))
				cmp("a.Rows", argMat(0).rows, "b.Rows", argMat(1).rows)
			}
		case "Factor", "FactorInPlace", "Inverse":
			if len(call.Args) == 1 {
				square("a", argMat(0))
			}
		}
	case recvName == "Workspace" && f.Name() == "LU":
		if len(call.Args) == 1 {
			square("a", argMat(0))
		}
	case recvName == "Matrix" && f.Name() == "CopyFrom":
		if x := recvExpr(); x != nil && len(call.Args) == 1 {
			sameShape("dst", bs.evalMat(env, x, 0), "src", argMat(0))
		}
	case recvName == "LU":
		x := recvExpr()
		if x == nil {
			return
		}
		n := bs.evalFac(env, x, 0)
		switch f.Name() {
		case "Solve", "SolveInPlace":
			if len(call.Args) == 1 {
				cmp("b.Rows", argMat(0).rows, recvName+" order", n)
			}
		case "SolveTo":
			if len(call.Args) == 2 {
				cmp("b.Rows", argMat(1).rows, recvName+" order", n)
				cmp("dst.Rows", argMat(0).rows, recvName+" order", n)
				cmp("dst.Cols", argMat(0).cols, "b.Cols", argMat(1).cols)
			}
		}
	}
}

// require reports when two terms a shape contract equates are provably
// different, or — weaker — when one is a bare constant and the other a
// symbolic block size.
func (bs *bsEval) require(call *ast.CallExpr, name, whatA string, a locTerm, whatB string, b locTerm) {
	if !a.Known || !b.Known {
		return
	}
	if provablyDifferent(a, b) {
		bs.rep.reportf(call.Pos(), "%s shape mismatch: %s = %s but %s = %s for every positive block size",
			name, whatA, renderLocTerm(a), whatB, renderLocTerm(b))
		return
	}
	if a.pureConst() != b.pureConst() {
		bs.rep.reportf(call.Pos(), "%s mixes a constant with a symbolic dimension: %s = %s but %s = %s",
			name, whatA, renderLocTerm(a), whatB, renderLocTerm(b))
	}
}

// renderLocTerm prints a term deterministically: constants first only when
// alone, variables sorted by name.
func renderLocTerm(t locTerm) string {
	if !t.Known {
		return "?"
	}
	type part struct {
		name string
		c    int64
	}
	parts := make([]part, 0, len(t.Lin))
	for v, c := range t.Lin {
		parts = append(parts, part{name: renderLocVar(v), c: c})
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i].name < parts[j].name })
	var sb strings.Builder
	for _, p := range parts {
		c := p.c
		if sb.Len() == 0 {
			if c < 0 {
				sb.WriteString("-")
				c = -c
			}
		} else if c < 0 {
			sb.WriteString(" - ")
			c = -c
		} else {
			sb.WriteString(" + ")
		}
		if c != 1 {
			fmt.Fprintf(&sb, "%d*", c)
		}
		sb.WriteString(p.name)
	}
	if t.K != 0 || sb.Len() == 0 {
		if sb.Len() == 0 {
			fmt.Fprintf(&sb, "%d", t.K)
		} else if t.K < 0 {
			fmt.Fprintf(&sb, " - %d", -t.K)
		} else {
			fmt.Fprintf(&sb, " + %d", t.K)
		}
	}
	return sb.String()
}

func renderLocVar(v locVar) string {
	switch v.kind {
	case lvInt:
		return v.obj.Name()
	case lvRows:
		return v.obj.Name() + ".Rows"
	case lvCols:
		return v.obj.Name() + ".Cols"
	case lvN:
		return v.obj.Name() + ".N()"
	}
	return "?"
}
