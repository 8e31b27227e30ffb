package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
)

// commtag checks message-tag hygiene across the whole module. The comm
// runtime matches messages by (source, tag): a tag constant that only ever
// appears on the send side is a message nobody will receive (the sender's
// buffer leaks and Pending() goes nonzero), and one that only appears on
// the receive side is a receive that blocks forever — both are the
// classic silent protocol-drift bugs of hand-written recursive-doubling
// exchanges.
//
// Tag arguments fall into three classes:
//
//   - Constant expressions (literals or named constants): collected
//     module-wide and cross-checked send-side vs receive-side.
//   - Bare identifiers and selector expressions (a forwarded tag
//     parameter, as the prefix scan helpers use): accepted silently —
//     matching is the caller's responsibility at the site that supplies
//     the constant.
//   - Anything else (tag arithmetic like base+round): flagged, because a
//     computed tag defeats static matching and is one off-by-one away
//     from a cross-phase collision.
var commTagAnalyzer = &Analyzer{
	Name:     "commtag",
	Doc:      "cross-check constant message tags between send and receive sides",
	Severity: SeverityWarning,
	Run:      runCommTag,
}

// tagArgIndex maps each comm operation that takes a tag to the tag's
// position in the argument list, and records which direction(s) the
// operation participates in.
type tagOp struct {
	index int
	send  bool
	recv  bool
}

var tagOps = map[string]tagOp{
	"Send":             {index: 1, send: true},
	"SendOwned":        {index: 1, send: true},
	"SendMatrix":       {index: 1, send: true},
	"Recv":             {index: 1, recv: true},
	"RecvMatrix":       {index: 1, recv: true},
	"SendRecv":         {index: 3, send: true, recv: true},
	"Exchange":         {index: 1, send: true, recv: true},
	"ExchangeMatrices": {index: 1, send: true, recv: true},
}

type tagUse struct {
	sendPos []token.Pos
	recvPos []token.Pos
}

func runCommTag(m *Module) []Finding {
	p := &pass{m: m, name: "commtag"}
	uses := make(map[int64]*tagUse)
	var order []int64

	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				f := calleeFunc(pkg.Info, call)
				if f == nil {
					return true
				}
				if funcPkgPath(f) != commPkgPath {
					// A summarized helper that forwards a tag parameter to a
					// comm op counts as a use of the caller's constant: the
					// helper's own comm call only sees the variable, so the
					// send/recv side of the constant lives here.
					recordForwardedTags(p, m, pkg.Info, call, f, uses, &order)
					return true
				}
				op, ok := tagOps[f.Name()]
				if !ok || op.index >= len(call.Args) {
					return true
				}
				arg := call.Args[op.index]
				tv := pkg.Info.Types[arg]
				if tv.Value != nil && tv.Value.Kind() == constant.Int {
					v, ok := constant.Int64Val(tv.Value)
					if !ok {
						return true
					}
					u := uses[v]
					if u == nil {
						u = &tagUse{}
						uses[v] = u
						order = append(order, v)
					}
					if op.send {
						u.sendPos = append(u.sendPos, call.Pos())
					}
					if op.recv {
						u.recvPos = append(u.recvPos, call.Pos())
					}
					return true
				}
				switch unparen(arg).(type) {
				case *ast.Ident, *ast.SelectorExpr:
					// A forwarded tag variable; accepted.
				default:
					p.reportf(arg.Pos(),
						"non-constant tag expression %s in comm.%s defeats static send/receive matching; use a named constant per message kind",
						types.ExprString(arg), f.Name())
				}
				return true
			})
		}
	}

	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	recordTagFindings(p, uses, order)
	return p.findings
}

// recordForwardedTags resolves the tag constants a caller feeds into a
// summarized comm-bearing helper. Each summarized point-to-point site whose
// tag is a forwarded parameter is charged to the caller's argument at that
// position, under the same three-way classification as an inline tag:
// constants join the module-wide cross-check, bare identifiers/selectors are
// accepted, and computed expressions are flagged.
func recordForwardedTags(p *pass, m *Module, info *types.Info, call *ast.CallExpr, f *types.Func, uses map[int64]*tagUse, order *[]int64) {
	sum := m.calleeSummary(f)
	if sum == nil || sum.CommOpaque || len(sum.Comm) == 0 {
		return
	}
	for _, sc := range sum.Comm {
		if sc.TagParam < 0 || sc.TagParam >= len(call.Args) {
			continue
		}
		arg := call.Args[sc.TagParam]
		tv := info.Types[arg]
		if tv.Value != nil && tv.Value.Kind() == constant.Int {
			v, ok := constant.Int64Val(tv.Value)
			if !ok {
				continue
			}
			u := uses[v]
			if u == nil {
				u = &tagUse{}
				uses[v] = u
				*order = append(*order, v)
			}
			if sc.Send {
				u.sendPos = append(u.sendPos, call.Pos())
			} else {
				u.recvPos = append(u.recvPos, call.Pos())
			}
			continue
		}
		switch unparen(arg).(type) {
		case *ast.Ident, *ast.SelectorExpr:
			// A forwarded tag variable; accepted.
		default:
			p.reportf(arg.Pos(),
				"non-constant tag expression %s forwarded to comm via %s defeats static send/receive matching; use a named constant per message kind",
				types.ExprString(arg), f.Name())
		}
	}
}

func recordTagFindings(p *pass, uses map[int64]*tagUse, order []int64) {
	for _, v := range order {
		u := uses[v]
		switch {
		case len(u.sendPos) > 0 && len(u.recvPos) == 0:
			p.reportf(u.sendPos[0],
				"tag %d is sent but never received anywhere in the module (the message is never consumed and Pending() will report a leak)", v)
		case len(u.recvPos) > 0 && len(u.sendPos) == 0:
			p.reportf(u.recvPos[0],
				"tag %d is received but never sent anywhere in the module (the receive blocks forever)", v)
		}
	}
}
