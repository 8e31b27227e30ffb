package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// commshape statically pairs point-to-point Send/Recv calls inside one rank
// body — the compile-time complement of PR 3's runtime deadlock watchdog.
// The recursive-doubling schedules this module implements (Kogge-Stone,
// Brent-Kung, chain scans, the ARD replay) are butterflies: every rank that
// executes `Send(r+e, tag)` is, by symmetry of the SPMD body, the target of
// the same line running on rank r+e, so the matching receive must appear in
// the same function as `Recv(r-e, tag)` with the structurally identical
// offset e. commshape checks exactly that:
//
//   - for every Send to r+e (or r-e) under a tag, some Recv from r-e
//     (resp. r+e) with the same offset and tag must exist in the function;
//   - the mirror condition for every Recv;
//   - a Send whose destination is the rank itself is flagged outright — no
//     butterfly schedule consumes a self-send, it just parks a message
//     until the watchdog fires.
//
// Only rank expressions affine in the local rank — `r`, `r+e`, `r-e` where
// e does not mention r — participate. Any other destination (halo-plan map
// ranges, XOR partners, modulo rings) makes the whole tag group
// non-affine, and the group is skipped conservatively rather than guessed
// at. Exchange and symmetric SendRecv calls pair with themselves and are
// skipped. The comm package itself (collectives, retransmit machinery) is
// excluded.
var commShapeAnalyzer = &Analyzer{
	Name:     "commshape",
	Doc:      "Send(r±e, tag) inside a rank body must have a matching Recv(r∓e, tag); self-sends are flagged",
	Severity: SeverityError,
	Version:  3,
	Run:      runCommShape,
}

type shapeDir int

const (
	shapeSend shapeDir = iota
	shapeRecv
)

type shapeKind int

const (
	shapeSelf  shapeKind = iota // the rank variable itself
	shapePlus                   // rank + offset
	shapeMinus                  // rank - offset
	shapeOther                  // anything non-affine
)

// shapeSite is one point-to-point operation.
type shapeSite struct {
	call     *ast.CallExpr
	dir      shapeDir
	kind     shapeKind
	offset   string // canonical text of e in r±e
	rankName string
	tagKey   any    // constant value string or the tag variable's object
	tagStr   string // tag expression as written, for messages
}

func runCommShape(m *Module) []Finding {
	p := &pass{m: m, name: "commshape"}
	rep := newReporter(p)
	for _, pkg := range m.Pkgs {
		if pkg.Path == commPkgPath {
			continue
		}
		for _, file := range pkg.Files {
			eachFuncBody(file, func(body *ast.BlockStmt) {
				commShapeFunc(rep, m, pkg.Info, body)
			})
		}
	}
	return p.findings
}

// rankObjs collects the variables holding this body's own rank: targets of
// assignments from c.Rank().
func rankObjs(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	set := make(map[types.Object]bool)
	inspectShallow(body, func(n ast.Node) bool {
		a, ok := n.(*ast.AssignStmt)
		if !ok || len(a.Lhs) != len(a.Rhs) {
			return true
		}
		for i, r := range a.Rhs {
			call, ok := unparen(r).(*ast.CallExpr)
			if !ok || commMethod(info, call) != "Rank" {
				continue
			}
			if obj := objOf(info, a.Lhs[i]); obj != nil {
				set[obj] = true
			}
		}
		return true
	})
	return set
}

func commShapeFunc(rep *reporter, m *Module, info *types.Info, body *ast.BlockStmt) {
	ranks := rankObjs(info, body)
	if len(ranks) == 0 {
		return
	}

	var sites []shapeSite
	poisonedTags := false
	addSite := func(call *ast.CallExpr, dir shapeDir, rankArg, tagArg ast.Expr) {
		kind, offset, rankName := classifyRank(info, ranks, rankArg)
		tagKey, tagStr, ok := tagKeyOf(info, tagArg)
		if !ok {
			poisonedTags = true
			return
		}
		sites = append(sites, shapeSite{
			call: call, dir: dir, kind: kind, offset: offset,
			rankName: rankName, tagKey: tagKey, tagStr: tagStr,
		})
	}
	inspectShallow(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch commMethod(info, call) {
		case "Send", "SendOwned", "SendMatrix":
			addSite(call, shapeSend, call.Args[0], call.Args[1])
		case "Recv", "RecvMatrix":
			addSite(call, shapeRecv, call.Args[0], call.Args[1])
		case "SendRecv":
			if types.ExprString(call.Args[0]) == types.ExprString(call.Args[2]) {
				return true // symmetric exchange pairs with itself
			}
			addSite(call, shapeSend, call.Args[0], call.Args[3])
			addSite(call, shapeRecv, call.Args[2], call.Args[3])
		case "":
			// A summarized helper's point-to-point sites translate into this
			// function's rank space and join the pairing groups: a Recv
			// performed inside the helper satisfies a Send here (and vice
			// versa) exactly as if it were inlined.
			injected, poisoned := commShapeInject(m, info, ranks, call)
			sites = append(sites, injected...)
			if poisoned {
				poisonedTags = true
			}
		}
		return true
	})
	// A tag the analyzer cannot name poisons the whole function: it could
	// belong to any group. commtag already flags computed tags.
	if poisonedTags || len(sites) == 0 {
		return
	}

	type group struct {
		skip  bool
		have  map[[3]int]bool // (dir, kind, offset-id) present in group
		offID map[string]int
	}
	groups := make(map[any]*group)
	offIDOf := func(g *group, off string) int {
		id, ok := g.offID[off]
		if !ok {
			id = len(g.offID)
			g.offID[off] = id
		}
		return id
	}
	for _, s := range sites {
		g := groups[s.tagKey]
		if g == nil {
			g = &group{have: make(map[[3]int]bool), offID: make(map[string]int)}
			groups[s.tagKey] = g
		}
		if s.kind == shapeOther {
			g.skip = true
			continue
		}
		g.have[[3]int{int(s.dir), int(s.kind), offIDOf(g, s.offset)}] = true
	}

	inverse := map[shapeKind]shapeKind{shapeSelf: shapeSelf, shapePlus: shapeMinus, shapeMinus: shapePlus}
	for _, s := range sites {
		g := groups[s.tagKey]
		if g.skip || s.kind == shapeOther {
			continue
		}
		if s.dir == shapeSend && s.kind == shapeSelf {
			rep.reportf(s.call.Pos(), "Send targets the sending rank itself (dst = %s, tag %s); no butterfly schedule consumes a self-send", s.rankName, s.tagStr)
			continue
		}
		other := shapeRecv
		if s.dir == shapeRecv {
			other = shapeSend
		}
		if g.have[[3]int{int(other), int(inverse[s.kind]), offIDOf(g, s.offset)}] {
			continue
		}
		actual := renderRank(s.rankName, s.kind, s.offset)
		expected := renderRank(s.rankName, inverse[s.kind], s.offset)
		if s.dir == shapeSend {
			rep.reportf(s.call.Pos(), "Send to rank %s with tag %s has no matching Recv from rank %s in this function; the SPMD pairing is broken and the message is never consumed", actual, s.tagStr, expected)
		} else {
			rep.reportf(s.call.Pos(), "Recv from rank %s with tag %s has no matching Send to rank %s in this function; the SPMD pairing is broken and this receive blocks until the watchdog fires", actual, s.tagStr, expected)
		}
	}
}

// classifyRank decomposes a destination/source rank expression as affine in
// one of the body's rank variables.
func classifyRank(info *types.Info, ranks map[types.Object]bool, e ast.Expr) (shapeKind, string, string) {
	e = unparen(e)
	if obj := objOf(info, e); obj != nil && ranks[obj] {
		return shapeSelf, "", obj.Name()
	}
	bin, ok := e.(*ast.BinaryExpr)
	if !ok {
		return shapeOther, "", ""
	}
	isRank := func(x ast.Expr) (string, bool) {
		obj := objOf(info, x)
		if obj != nil && ranks[obj] {
			return obj.Name(), true
		}
		return "", false
	}
	switch bin.Op.String() {
	case "+":
		if name, ok := isRank(bin.X); ok && !mentionsRank(info, ranks, bin.Y) {
			return shapePlus, types.ExprString(bin.Y), name
		}
		if name, ok := isRank(bin.Y); ok && !mentionsRank(info, ranks, bin.X) {
			return shapePlus, types.ExprString(bin.X), name
		}
	case "-":
		if name, ok := isRank(bin.X); ok && !mentionsRank(info, ranks, bin.Y) {
			return shapeMinus, types.ExprString(bin.Y), name
		}
	}
	return shapeOther, "", ""
}

func mentionsRank(info *types.Info, ranks map[types.Object]bool, e ast.Expr) bool {
	found := false
	inspectShallow(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && ranks[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// tagKeyOf produces a grouping key for a tag expression: constants group by
// value, plain variables (forwarded tag parameters) by object identity.
func tagKeyOf(info *types.Info, e ast.Expr) (any, string, bool) {
	if tv, ok := info.Types[e]; ok && tv.Value != nil {
		return "const:" + tv.Value.ExactString(), types.ExprString(e), true
	}
	if obj := objOf(info, e); obj != nil {
		return obj, obj.Name(), true
	}
	return nil, "", false
}

func renderRank(rank string, kind shapeKind, offset string) string {
	switch kind {
	case shapePlus:
		if needsParens(offset) {
			return rank + " + (" + offset + ")"
		}
		return rank + " + " + offset
	case shapeMinus:
		if needsParens(offset) {
			return rank + " - (" + offset + ")"
		}
		return rank + " - " + offset
	default:
		return rank
	}
}

func needsParens(off string) bool {
	return strings.ContainsAny(off, "+-*/ ")
}

// commShapeInject translates the summarized point-to-point sites of a helper
// call into the caller's rank space. Returns the translated sites and
// whether an untranslatable tag poisons the caller (same conservative rule
// as a computed tag written inline). Opaque or comm-free helpers yield
// nothing — the intraprocedural status quo.
func commShapeInject(m *Module, info *types.Info, ranks map[types.Object]bool, call *ast.CallExpr) ([]shapeSite, bool) {
	f := calleeFunc(info, call)
	if f == nil || funcPkgPath(f) == commPkgPath {
		return nil, false
	}
	sum := m.calleeSummary(f)
	if sum == nil || sum.CommOpaque || len(sum.Comm) == 0 {
		return nil, false
	}
	var out []shapeSite
	for _, sc := range sum.Comm {
		if sc.RankParam >= len(call.Args) {
			return nil, false
		}
		dir := shapeRecv
		if sc.Send {
			dir = shapeSend
		}
		// Resolve the rank argument in the caller's terms, then compose the
		// helper's own offset on top.
		kind, offset, rankName := classifyRank(info, ranks, call.Args[sc.RankParam])
		if sc.Sign != 0 {
			offText := sc.OffConst
			if sc.OffParam >= 0 {
				if sc.OffParam >= len(call.Args) || mentionsRank(info, ranks, call.Args[sc.OffParam]) {
					kind = shapeOther
				} else {
					offText = types.ExprString(call.Args[sc.OffParam])
				}
			}
			switch {
			case kind == shapeOther:
			case kind != shapeSelf:
				// r±e composed with a further ±e' has no canonical text to
				// match against inline sites; skip the group conservatively.
				kind = shapeOther
			case sc.Sign > 0:
				kind, offset = shapePlus, offText
			default:
				kind, offset = shapeMinus, offText
			}
		}
		// Resolve the tag in the caller's terms.
		var tagKey any
		tagStr := sc.TagStr
		if sc.TagParam >= 0 {
			if sc.TagParam >= len(call.Args) {
				return nil, false
			}
			var ok bool
			tagKey, tagStr, ok = tagKeyOf(info, call.Args[sc.TagParam])
			if !ok {
				return nil, true // poisons the caller, like any computed tag
			}
		} else {
			tagKey = sc.TagKey
		}
		out = append(out, shapeSite{
			call: call, dir: dir, kind: kind, offset: offset,
			rankName: rankName, tagKey: tagKey, tagStr: tagStr,
		})
	}
	return out, false
}
