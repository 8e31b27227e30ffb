package analysis

import (
	"go/ast"
	"go/types"
)

// Interprocedural layer, part 2: function summaries.
//
// A FuncSummary condenses what one function does to its parameters and what
// its results are made of, in exactly the vocabulary the dataflow analyzers
// reason in: pooled-payload ownership, workspace-arena checkouts, monitored
// errors, point-to-point comm sites, spawned goroutines, acquired locks
// and ignored function parameters. The
// analyzers consult summaries at call sites (through Module.calleeSummary)
// instead of conservatively killing facts or over-reporting, which is what
// turns the PR-4 intraprocedural engine into a whole-program one.
//
// Summaries are computed bottom-up over each package's call-graph
// condensation (callgraph.go): by the time a caller is summarized, every
// callee in an earlier SCC already has its summary, and cross-package
// callees resolve against dependency packages summarized earlier still. The
// rare recursive SCC runs a fixed-point loop: the must-facts (Releases,
// Borrows) start optimistic and descend, the may- and value-facts start
// unknown and grow, so every facet moves monotonically through a finite
// lattice and the loop terminates (a hard iteration cap degrades to the
// empty summary, never to a wrong one).
//
// Every facet follows one soundness rule: claim nothing unless the body
// proves it. An unclaimed facet makes the consuming analyzer behave exactly
// as it did intraprocedurally, so summaries can only remove false positives
// and false negatives, never add them.
//
// Summaries are cached per package on the module loader, which LoadFixture
// shares with the host module: fixture runs reuse the host packages'
// summaries.

// maxSummaryParams bounds the parameter bitsets.
const maxSummaryParams = 32

// FuncSummary is the interprocedural abstract of one declared function.
// Parameter indices count declared parameters only (receivers are never
// summarized); variadic functions are not summarized at all.
type FuncSummary struct {
	Fn         *types.Func
	NumParams  int
	NumResults int

	// Releases: bit i set means the []float64 parameter i reaches
	// comm.Release (directly or through a releasing callee) on every path
	// through the function, and the function does not otherwise alias or
	// hand off the slice. Must-semantics.
	Releases uint32
	// Borrows: bit i set means the []float64 parameter i is only read in
	// place (indexed, measured, ranged, nil-compared, or lent to another
	// borrowing callee) — the function takes no ownership and the caller's
	// Release obligation survives the call. Must-semantics.
	Borrows uint32

	// CheckoutOf[i] is the index of the *mat.Workspace parameter whose
	// arena result i is checked out of on every return path, or -1.
	CheckoutOf []int

	// ErrLabel[i] names the monitored error source (errdiscard's labels,
	// e.g. "comm.World.Run") that result i can carry on some return path;
	// "" when result i never carries one. May-semantics.
	ErrLabel []string

	// Comm lists the function's point-to-point operations expressed
	// relative to its parameters; CommOpaque is set when the body performs
	// (or may perform) point-to-point traffic the sites cannot express, in
	// which case consumers must ignore the function entirely (commtag's
	// call-site facet).
	Comm       []sumCommSite
	CommOpaque bool

	// Spawns lists goroutines the function launches whose termination is
	// tied to exactly one of its parameters: the caller inherits the
	// close/Wait obligation for the argument it passed. May-semantics
	// (goleak's call-site attribution facet).
	Spawns []sumSpawn

	// Locks is the sorted set of module-global lock keys the function may
	// acquire, directly or through summarized callees (lockorder's
	// call-graph condensation facet). May-semantics, capped at
	// maxSummaryLocks.
	Locks []string

	// FuncSinks: bit i set means function-typed parameter i is mentioned
	// somewhere in the body and so may be called or stored. A clear bit
	// proves the parameter is ignored, which keeps a caller's cancel
	// obligation alive (ctxflow). The empty summary claims every bit.
	FuncSinks uint32
}

// sumSpawn is one parameter-tied goroutine launch of a summarized function:
// the goroutine stops when the caller closes (Kind "close") or Waits on
// (Kind "wait") the argument bound to parameter Param.
type sumSpawn struct {
	Param int
	Kind  string
}

// sumCommSite is one Send/Recv of a summarized function, affine in an int
// parameter: rank = param(RankParam) + Sign*offset, where the offset is the
// constant OffConst (Sign != 0, OffParam < 0), the parameter OffParam
// (Sign != 0, OffParam >= 0), or absent (Sign == 0).
type sumCommSite struct {
	Send      bool
	RankParam int
	Sign      int
	OffConst  string
	OffParam  int
	// TagParam is the parameter forwarded as the tag, or -1 when the tag is
	// the constant with grouping key TagKey (rendered TagStr).
	TagParam int
	TagKey   string
	TagStr   string
}

type pkgSummaries map[*types.Func]*FuncSummary

// calleeSummary resolves the summary of a statically known callee, or nil
// when interprocedural mode is off, the callee is unknown, unsummarizable
// (variadic, bodiless), or outside the loaded packages. Analyzers must
// treat nil as "behave intraprocedurally".
func (m *Module) calleeSummary(f *types.Func) *FuncSummary {
	if m == nil || m.NoInterp || f == nil || f.Pkg() == nil {
		return nil
	}
	pkg := m.packageFor(f.Pkg())
	if pkg == nil {
		return nil
	}
	sums, ok := m.loader.sums[pkg]
	if !ok {
		sums = m.summarizePackage(pkg)
	}
	return sums[f]
}

// packageFor maps a type-checker package back to its loaded Package: the
// module's own packages first (fixture packages live only there), then the
// loader's dependency cache.
func (m *Module) packageFor(tp *types.Package) *Package {
	for _, p := range m.Pkgs {
		if p.Pkg == tp {
			return p
		}
	}
	if p, ok := m.loader.pkgs[tp.Path()]; ok && p.Pkg == tp {
		return p
	}
	return nil
}

// summarizePackage computes and caches the summaries of every function in
// pkg, bottom-up over the call-graph condensation. Cross-package callees
// recurse through calleeSummary; the import DAG bounds that recursion.
func (m *Module) summarizePackage(pkg *Package) pkgSummaries {
	g := buildCallGraph(pkg)
	sums := make(pkgSummaries, len(g.Nodes))
	m.loader.sums[pkg] = sums
	for _, scc := range g.SCCs {
		if !isRecursive(scc) {
			if s := m.computeSummary(pkg, scc[0], sums); s != nil {
				sums[scc[0].Obj] = s
			}
			continue
		}
		// Recursive SCC: optimistic must-facts, pessimistic value-facts,
		// iterate to the fixed point. The cap is a backstop; the facets are
		// monotone, so real code converges in a couple of rounds.
		for _, n := range scc {
			sums[n.Obj] = optimisticSummary(n.Obj)
		}
		const maxIter = 16
		converged := false
		for iter := 0; iter < maxIter && !converged; iter++ {
			converged = true
			for _, n := range scc {
				next := m.computeSummary(pkg, n, sums)
				if next == nil {
					next = emptySummary(n.Obj)
				}
				if !summariesEqual(sums[n.Obj], next) {
					converged = false
				}
				sums[n.Obj] = next
			}
		}
		if !converged {
			for _, n := range scc {
				sums[n.Obj] = emptySummary(n.Obj)
			}
		}
	}
	return sums
}

func signatureOf(f *types.Func) *types.Signature {
	sig, _ := f.Type().(*types.Signature)
	return sig
}

// emptySummary claims nothing: consumers fall back to intraprocedural
// behavior at every call site.
func emptySummary(f *types.Func) *FuncSummary {
	sig := signatureOf(f)
	s := &FuncSummary{
		Fn:         f,
		NumParams:  sig.Params().Len(),
		NumResults: sig.Results().Len(),
		CommOpaque: true,
	}
	s.CheckoutOf = make([]int, s.NumResults)
	for i := range s.CheckoutOf {
		s.CheckoutOf[i] = -1
	}
	s.ErrLabel = make([]string, s.NumResults)
	s.FuncSinks = ^uint32(0)
	return s
}

// optimisticSummary seeds a recursive SCC member: must-facts at lattice top
// (release/borrow everything), value-facts unknown.
func optimisticSummary(f *types.Func) *FuncSummary {
	s := emptySummary(f)
	s.Releases = ^uint32(0)
	s.Borrows = ^uint32(0)
	s.FuncSinks = 0 // may-fact: grows upward from "no parameter sinks"
	return s
}

func summariesEqual(a, b *FuncSummary) bool {
	if a.Releases != b.Releases || a.Borrows != b.Borrows || a.CommOpaque != b.CommOpaque {
		return false
	}
	if a.FuncSinks != b.FuncSinks {
		return false
	}
	if len(a.Comm) != len(b.Comm) || len(a.Spawns) != len(b.Spawns) || len(a.Locks) != len(b.Locks) {
		return false
	}
	for i := range a.Comm {
		if a.Comm[i] != b.Comm[i] {
			return false
		}
	}
	for i := range a.Spawns {
		if a.Spawns[i] != b.Spawns[i] {
			return false
		}
	}
	for i := range a.Locks {
		if a.Locks[i] != b.Locks[i] {
			return false
		}
	}
	for i := range a.CheckoutOf {
		if a.CheckoutOf[i] != b.CheckoutOf[i] || a.ErrLabel[i] != b.ErrLabel[i] {
			return false
		}
	}
	return true
}

// summarizer carries the state of one function's summary computation.
type summarizer struct {
	m    *Module
	pkg  *Package
	cur  pkgSummaries // in-progress summaries of the package being computed
	node *FuncNode

	paramObjs []types.Object       // declared parameter objects (nil for _)
	paramIdx  map[types.Object]int // inverse of paramObjs
	// binds maps single-assignment locals to their defining expression and
	// the result index they were bound from (for multi-value calls).
	binds map[types.Object]sumBind
}

type sumBind struct {
	rhs ast.Expr
	res int
}

// lookup resolves a callee summary during computation: members of the
// package under computation come from the in-progress map, everything else
// from the normal path.
func (s *summarizer) lookup(f *types.Func) *FuncSummary {
	if f == nil {
		return nil
	}
	if f.Pkg() == s.pkg.Pkg {
		return s.cur[f]
	}
	return s.m.calleeSummary(f)
}

// computeSummary builds the summary of one function, or nil when the
// function cannot be summarized at all (variadic).
func (m *Module) computeSummary(pkg *Package, n *FuncNode, cur pkgSummaries) *FuncSummary {
	sig := signatureOf(n.Obj)
	if sig == nil || sig.Variadic() || sig.Params().Len() > maxSummaryParams {
		return nil
	}
	s := &summarizer{m: m, pkg: pkg, cur: cur, node: n}
	s.collectParams(n.Decl, sig)
	s.collectBinds(n.Decl.Body)

	sum := emptySummary(n.Obj)
	s.sliceOwnership(sum)
	s.returnFacets(sum)
	s.commFacet(sum)
	s.concurrencyFacets(sum)
	return sum
}

func (s *summarizer) collectParams(decl *ast.FuncDecl, sig *types.Signature) {
	s.paramIdx = make(map[types.Object]int)
	if decl.Type.Params == nil {
		return
	}
	info := s.pkg.Info
	for _, field := range decl.Type.Params.List {
		if len(field.Names) == 0 {
			s.paramObjs = append(s.paramObjs, nil)
			continue
		}
		for _, name := range field.Names {
			obj := info.Defs[name]
			if obj != nil && name.Name != "_" {
				s.paramIdx[obj] = len(s.paramObjs)
				s.paramObjs = append(s.paramObjs, obj)
			} else {
				s.paramObjs = append(s.paramObjs, nil)
			}
		}
	}
}

// collectBinds records locals assigned exactly once from a trackable
// expression, the light SSA the return-facet evaluators walk through. A
// second write, an IncDec, a range binding, or a taken address disqualifies
// the local.
func (s *summarizer) collectBinds(body *ast.BlockStmt) {
	info := s.pkg.Info
	writes := make(map[types.Object]int)
	s.binds = make(map[types.Object]sumBind)
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.AssignStmt:
			for i, l := range x.Lhs {
				obj := objOf(info, l)
				if obj == nil {
					continue
				}
				writes[obj]++
				if len(x.Rhs) == len(x.Lhs) {
					s.binds[obj] = sumBind{rhs: x.Rhs[i], res: 0}
				} else if len(x.Rhs) == 1 {
					s.binds[obj] = sumBind{rhs: x.Rhs[0], res: i}
				}
			}
		case *ast.IncDecStmt:
			if obj := objOf(info, x.X); obj != nil {
				writes[obj] += 2
			}
		case *ast.UnaryExpr:
			if x.Op.String() == "&" {
				if obj := objOf(info, x.X); obj != nil {
					writes[obj] += 2
				}
			}
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{x.Key, x.Value} {
				if e != nil {
					if obj := objOf(info, e); obj != nil {
						writes[obj] += 2
					}
				}
			}
		}
		return true
	})
	for obj := range s.binds {
		if writes[obj] != 1 {
			delete(s.binds, obj)
		}
	}
	// Parameters are never "bound locals".
	for obj := range s.paramIdx {
		delete(s.binds, obj)
	}
}

// bindOf resolves a single-assignment local to its defining expression.
func (s *summarizer) bindOf(e ast.Expr) (sumBind, bool) {
	obj := objOf(s.pkg.Info, e)
	if obj == nil {
		return sumBind{}, false
	}
	b, ok := s.binds[obj]
	return b, ok
}

func isFloatSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Float64
}

func isIntType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Int
}

// namedFrom unwraps one pointer and reports the (package path, type name)
// of a named type.
func namedFrom(t types.Type) (string, string) {
	named, ok := derefNamed(t)
	if !ok || named.Obj().Pkg() == nil {
		return "", ""
	}
	return named.Obj().Pkg().Path(), named.Obj().Name()
}

func isWorkspace(t types.Type) bool {
	p, n := namedFrom(t)
	return p == matPkgPath && n == "Workspace"
}

// --- Releases / Borrows -----------------------------------------------------

// sliceOwnership fills the Releases and Borrows bitsets for []float64
// parameters.
func (s *summarizer) sliceOwnership(sum *FuncSummary) {
	info := s.pkg.Info
	candidates := make(map[types.Object]int)
	for i, obj := range s.paramObjs {
		if obj != nil && isFloatSlice(obj.Type()) {
			candidates[obj] = i
		}
	}
	if len(candidates) == 0 {
		return
	}

	// Classify every mention of a candidate. Sanctioned reads keep both
	// claims alive; a release event keeps Releases alive but kills Borrows;
	// anything else (aliasing, returning, storing, passing to a callee with
	// no borrowing/releasing summary) kills both. The walk includes function
	// literals: an escape inside a closure is still an escape, and a release
	// inside one may never run.
	sanctioned := make(map[*ast.Ident]bool) // read-in-place mentions
	released := make(map[*ast.Ident]bool)   // release-event mentions
	lent := make(map[*ast.Ident]bool)       // passed to a borrowing callee
	markIdent := func(e ast.Expr, set map[*ast.Ident]bool) {
		if id, ok := unparen(e).(*ast.Ident); ok {
			set[id] = true
		}
	}
	body := s.node.Decl.Body
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.IndexExpr:
			markIdent(x.X, sanctioned)
		case *ast.BinaryExpr:
			switch x.Op.String() {
			case "==", "!=":
				if isNilIdent(x.Y) {
					markIdent(x.X, sanctioned)
				}
				if isNilIdent(x.X) {
					markIdent(x.Y, sanctioned)
				}
			}
		case *ast.RangeStmt:
			markIdent(x.X, sanctioned)
		case *ast.CallExpr:
			if id, ok := unparen(x.Fun).(*ast.Ident); ok && (id.Name == "len" || id.Name == "cap") && len(x.Args) == 1 {
				markIdent(x.Args[0], sanctioned)
				return true
			}
			if commMethod(info, x) == "Release" && len(x.Args) == 1 {
				markIdent(x.Args[0], released)
				return true
			}
			f := calleeFunc(info, x)
			if f == nil || funcPkgPath(f) == commPkgPath {
				return true // comm internals manage ownership by contract
			}
			if cs := s.lookup(f); cs != nil {
				for ai, arg := range x.Args {
					if ai >= maxSummaryParams {
						break
					}
					if cs.Releases&(1<<uint(ai)) != 0 {
						markIdent(arg, released)
					} else if cs.Borrows&(1<<uint(ai)) != 0 {
						markIdent(arg, lent)
					}
				}
			}
		}
		return true
	})

	poisoned := make(map[types.Object]bool)
	hasRelease := make(map[types.Object]bool)
	ast.Inspect(body, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		if obj == nil {
			return true
		}
		if _, isCand := candidates[obj]; !isCand {
			return true
		}
		switch {
		case sanctioned[id] || lent[id]:
		case released[id]:
			hasRelease[obj] = true
		default:
			poisoned[obj] = true
		}
		return true
	})
	// Reassigning the parameter variable poisons it outright.
	ast.Inspect(body, func(x ast.Node) bool {
		if a, ok := x.(*ast.AssignStmt); ok {
			for _, l := range a.Lhs {
				if obj := objOf(info, l); obj != nil {
					if _, isCand := candidates[obj]; isCand {
						poisoned[obj] = true
					}
				}
			}
		}
		return true
	})

	// Borrows: only read in place, never released, never escaped.
	for obj, i := range candidates {
		if !poisoned[obj] && !hasRelease[obj] {
			sum.Borrows |= 1 << uint(i)
		}
	}

	// Releases: a must-analysis over the CFG — the release event must
	// execute on every path reaching Exit (defers run there).
	releaseCands := make(map[types.Object]int)
	for obj, i := range candidates {
		if !poisoned[obj] && hasRelease[obj] {
			releaseCands[obj] = i
		}
	}
	if len(releaseCands) == 0 {
		return
	}
	gen := func(n ast.Node) uint32 {
		var bits uint32
		walkExprs(n, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, arg := range call.Args {
				id, ok := unparen(arg).(*ast.Ident)
				if !ok || !released[id] {
					continue
				}
				obj := info.Uses[id]
				if i, isCand := releaseCands[obj]; isCand {
					bits |= 1 << uint(i)
				}
			}
			return true
		})
		return bits
	}
	g := BuildCFG(body)
	in := solveFlow(g, flowProblem[uint32]{
		boundary: func() uint32 { return 0 },
		transfer: func(st uint32, b *Block) uint32 {
			for _, n := range b.Nodes {
				st |= gen(n)
			}
			return st
		},
		join:  func(a, b uint32) uint32 { return a & b },
		equal: func(a, b uint32) bool { return a == b },
		clone: func(a uint32) uint32 { return a },
	})
	exitIn, ok := in[g.Exit]
	if !ok {
		return // Exit unreachable: claim nothing
	}
	for _, n := range g.Exit.Nodes {
		exitIn |= gen(n)
	}
	for _, i := range releaseCands {
		if exitIn&(1<<uint(i)) != 0 {
			sum.Releases |= 1 << uint(i)
		}
	}
}

func isNilIdent(e ast.Expr) bool {
	id, ok := unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// --- Checkout / error return facets ------------------------------------------

// returnFacets fills CheckoutOf and ErrLabel from the function's top-level
// return statements.
func (s *summarizer) returnFacets(sum *FuncSummary) {
	if sum.NumResults == 0 {
		return
	}
	var returns []*ast.ReturnStmt
	clean := true
	inspectShallow(s.node.Decl.Body, func(x ast.Node) bool {
		if r, ok := x.(*ast.ReturnStmt); ok {
			if len(r.Results) == sum.NumResults {
				returns = append(returns, r)
			} else {
				clean = false // naked return or tuple forwarding: bail
			}
		}
		return true
	})
	if len(returns) == 0 {
		return
	}

	for i := 0; i < sum.NumResults; i++ {
		// CheckoutOf: every return path must yield a checkout of the same
		// workspace parameter (anything weaker would let wsescape flag
		// values that are not arena-backed).
		if clean {
			co := s.checkoutOf(returns[0].Results[i], i, 0)
			for _, r := range returns[1:] {
				if co < 0 {
					break
				}
				if s.checkoutOf(r.Results[i], i, 0) != co {
					co = -1
				}
			}
			sum.CheckoutOf[i] = co
		}
		// ErrLabel: any return path carrying a monitored error taints the
		// result (a sometimes-nil monitored error still must be checked).
		for _, r := range returns {
			if label := s.errLabelOf(r.Results[i], i, 0); label != "" {
				sum.ErrLabel[i] = label
				break
			}
		}
	}
}

const sumEvalDepth = 8

// checkoutOf resolves an expression (at result position res of a return) to
// the workspace parameter it is a checkout of, or -1.
func (s *summarizer) checkoutOf(e ast.Expr, res int, depth int) int {
	if depth > sumEvalDepth {
		return -1
	}
	info := s.pkg.Info
	e = unparen(e)
	if b, ok := s.bindOf(e); ok {
		return s.checkoutOf(b.rhs, b.res, depth+1)
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return -1
	}
	if wsObj, _, _ := wsCheckoutDirect(info, call); wsObj != nil {
		// Direct checkout methods yield the checkout in result 0 (LU's
		// second result is the error).
		if res != 0 {
			return -1
		}
		if i, ok := s.paramIdx[wsObj]; ok && isWorkspace(wsObj.Type()) {
			return i
		}
		return -1
	}
	f := calleeFunc(info, call)
	if f == nil || funcPkgPath(f) == matPkgPath {
		return -1
	}
	cs := s.lookup(f)
	if cs == nil || res >= len(cs.CheckoutOf) {
		return -1
	}
	j := cs.CheckoutOf[res]
	if j < 0 || j >= len(call.Args) {
		return -1
	}
	wsObj := objOf(info, call.Args[j])
	if wsObj == nil {
		return -1
	}
	if i, ok := s.paramIdx[wsObj]; ok {
		return i
	}
	return -1
}

// errLabelOf resolves an expression to the monitored-error label it can
// carry, or "".
func (s *summarizer) errLabelOf(e ast.Expr, res int, depth int) string {
	if depth > sumEvalDepth {
		return ""
	}
	info := s.pkg.Info
	e = unparen(e)
	if b, ok := s.bindOf(e); ok {
		return s.errLabelOf(b.rhs, b.res, depth+1)
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return ""
	}
	if src, ok := errSourceBase(info, call); ok {
		// A return expression is a single value, so only single-result
		// monitored calls (World.Run, TryDecodeMatrixInto) appear here.
		if src.results == 1 && res == 0 {
			return src.label
		}
		return ""
	}
	f := calleeFunc(info, call)
	if f == nil {
		return ""
	}
	if cs := s.lookup(f); cs != nil && res < len(cs.ErrLabel) {
		return cs.ErrLabel[res]
	}
	return ""
}

// --- Comm facet -------------------------------------------------------------

// p2pArgSpec describes where a point-to-point comm method keeps its rank and
// tag arguments.
type p2pArgSpec struct {
	send    bool
	rankIdx int
	tagIdx  int
}

var p2pSpecs = map[string]p2pArgSpec{
	"Send":      {send: true, rankIdx: 0, tagIdx: 1},
	"SendOwned": {send: true, rankIdx: 0, tagIdx: 1},
	"Recv":      {send: false, rankIdx: 0, tagIdx: 1},
}

// commFacet fills Comm/CommOpaque: the function's point-to-point traffic
// expressed relative to its int parameters. Any site it cannot express —
// non-affine ranks, computed tags, traffic inside function literals, calls
// into comm-bearing helpers — marks the function opaque, and consumers
// ignore it (the intraprocedural status quo).
func (s *summarizer) commFacet(sum *FuncSummary) {
	info := s.pkg.Info
	var sites []sumCommSite
	opaque := false

	addSite := func(send bool, rankArg, tagArg ast.Expr) {
		site, ok := s.classifyParamRank(rankArg)
		if !ok {
			opaque = true
			return
		}
		site.Send = send
		site.TagParam = -1
		if tv, ok := info.Types[tagArg]; ok && tv.Value != nil {
			site.TagKey = "const:" + tv.Value.ExactString()
			site.TagStr = types.ExprString(tagArg)
		} else if obj := objOf(info, tagArg); obj != nil {
			if i, isParam := s.paramIdx[obj]; isParam {
				site.TagParam = i
			} else {
				opaque = true
				return
			}
		} else {
			opaque = true
			return
		}
		sites = append(sites, site)
	}

	// Walk the full body including function literals: p2p traffic inside a
	// closure runs at an unknowable time and must force opacity, which the
	// shared shallow walks would hide.
	ast.Inspect(s.node.Decl.Body, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		inLit := inFuncLitOf(s.node.Decl.Body, call)
		method := commMethod(info, call)
		if spec, isP2P := p2pSpecs[method]; isP2P {
			if inLit {
				opaque = true
				return true
			}
			addSite(spec.send, call.Args[spec.rankIdx], call.Args[spec.tagIdx])
			return true
		}
		switch method {
		case "SendRecv":
			if inLit {
				opaque = true
				return true
			}
			if types.ExprString(call.Args[0]) == types.ExprString(call.Args[2]) {
				return true // symmetric, pairs with itself
			}
			addSite(true, call.Args[0], call.Args[3])
			addSite(false, call.Args[2], call.Args[3])
			return true
		case "Exchange":
			return true // pairs with itself on both ends
		case "":
			// A callee with its own unexpressed point-to-point traffic
			// makes this function's traffic unexpressible too.
			f := calleeFunc(info, call)
			if f == nil || funcPkgPath(f) == commPkgPath {
				return true
			}
			if cs := s.lookup(f); cs != nil && (cs.CommOpaque && hasCommParam(f) || len(cs.Comm) > 0) {
				opaque = true
			}
		}
		return true
	})
	if opaque {
		sum.Comm = nil
		sum.CommOpaque = true
		return
	}
	sum.Comm = sites
	sum.CommOpaque = false
}

// hasCommParam reports whether a function can reach the comm runtime at all
// (a *comm.Comm parameter or receiver); comm-free callees cannot add hidden
// traffic.
func hasCommParam(f *types.Func) bool {
	sig := signatureOf(f)
	if sig == nil {
		return true
	}
	isComm := func(t types.Type) bool {
		p, n := namedFrom(t)
		return p == commPkgPath && (n == "Comm" || n == "World")
	}
	if sig.Recv() != nil && isComm(sig.Recv().Type()) {
		return true
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isComm(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// inFuncLitOf reports whether node sits inside a function literal nested in
// body.
func inFuncLitOf(body *ast.BlockStmt, node ast.Node) bool {
	found := false
	inLit := false
	var walk func(n ast.Node, lit bool)
	walk = func(n ast.Node, lit bool) {
		if found || n == nil {
			return
		}
		ast.Inspect(n, func(x ast.Node) bool {
			if found {
				return false
			}
			if x == node {
				found = true
				inLit = lit
				return false
			}
			if fl, ok := x.(*ast.FuncLit); ok && x != n {
				walk(fl.Body, true)
				return false
			}
			return true
		})
	}
	walk(body, false)
	return found && inLit
}

// classifyParamRank decomposes a rank expression as affine in an int
// parameter: p, p+e or p-e where e is an int constant or another int
// parameter.
func (s *summarizer) classifyParamRank(e ast.Expr) (sumCommSite, bool) {
	info := s.pkg.Info
	e = unparen(e)
	paramOf := func(x ast.Expr) (int, bool) {
		obj := objOf(info, x)
		if obj == nil {
			return 0, false
		}
		i, ok := s.paramIdx[obj]
		return i, ok && isIntType(obj.Type())
	}
	if i, ok := paramOf(e); ok {
		return sumCommSite{RankParam: i, OffParam: -1}, true
	}
	bin, ok := e.(*ast.BinaryExpr)
	if !ok {
		return sumCommSite{}, false
	}
	classify := func(rank ast.Expr, off ast.Expr, sign int) (sumCommSite, bool) {
		i, ok := paramOf(rank)
		if !ok {
			return sumCommSite{}, false
		}
		if tv, ok := info.Types[off]; ok && tv.Value != nil {
			return sumCommSite{RankParam: i, Sign: sign, OffConst: tv.Value.ExactString(), OffParam: -1}, true
		}
		if j, ok := paramOf(off); ok {
			return sumCommSite{RankParam: i, Sign: sign, OffParam: j}, true
		}
		return sumCommSite{}, false
	}
	switch bin.Op.String() {
	case "+":
		if site, ok := classify(bin.X, bin.Y, 1); ok {
			return site, true
		}
		return classify(bin.Y, bin.X, 1)
	case "-":
		return classify(bin.X, bin.Y, -1)
	}
	return sumCommSite{}, false
}
