package analysis

import (
	"go/ast"
	"go/types"
)

// Interprocedural layer, part 1: the call graph.
//
// The dataflow analyzers of PR 4 are intraprocedural: a checkout, payload or
// error that flows through a helper function falls off their radar at the
// call boundary. Lifting them to whole-program precision needs two things —
// an order in which to visit functions so that callee facts exist before
// caller sites are judged (this file), and the per-function facts themselves
// (summary.go).
//
// The graph is per package. Go's import graph is a DAG, so recursion can
// only occur between functions of one package; building one graph per
// package and condensing it into strongly connected components gives a
// reverse-topological order (callees before callers) in which summaries can
// be computed bottom-up, with a fixed-point loop confined to the recursive
// SCCs. Cross-package calls resolve against the summaries of already-
// processed dependency packages, which load.go guarantees come earlier in
// Module.Pkgs.
//
// Resolution is type-based and deliberately bounded:
//
//   - static calls and method calls resolve through types.Info.Uses to the
//     declared *types.Func;
//   - a bare reference to a declared function (a function value handed to a
//     scan schedule or a World.Run body) adds an edge too — the function
//     may be called wherever the value flows, and for SCC ordering an
//     over-approximate edge only widens a component;
//   - calls through interface methods and unnamed function-typed values do
//     not resolve and produce no edge. Analyzers treat an unresolved callee
//     exactly as before the interprocedural layer existed (conservatively),
//     so a missing edge can hide a refinement but never manufacture a wrong
//     fact.
//
// Everything is deterministic: nodes appear in (file, declaration) source
// order, edges in first-occurrence source order, and Tarjan's algorithm
// emits SCCs in reverse topological order of the condensation as a
// by-product of its stack discipline.

// FuncNode is one declared function or method of a package.
type FuncNode struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Callees lists intra-package successors, deduplicated, in the source
	// order of their first mention inside Decl.Body (nested function
	// literals included: a literal runs in some caller eventually, and for
	// ordering purposes its calls belong to the enclosing declaration).
	Callees []*FuncNode

	index, lowlink int
	onStack        bool
	// SCC is the index of the node's component in CallGraph.SCCs.
	SCC int
}

// CallGraph is the intra-package call graph of one package.
type CallGraph struct {
	Nodes []*FuncNode
	ByObj map[*types.Func]*FuncNode
	// SCCs holds the condensation in reverse topological order: every edge
	// of the condensation points from a later component to an earlier one,
	// so visiting SCCs[0], SCCs[1], ... sees callees before callers.
	SCCs [][]*FuncNode
}

// buildCallGraph constructs the call graph of one package.
func buildCallGraph(pkg *Package) *CallGraph {
	g := &CallGraph{ByObj: make(map[*types.Func]*FuncNode)}
	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			f, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			n := &FuncNode{Obj: f, Decl: fd, Pkg: pkg, SCC: -1}
			g.Nodes = append(g.Nodes, n)
			g.ByObj[f] = n
		}
	}
	for _, n := range g.Nodes {
		seen := make(map[*FuncNode]bool)
		// Every named-function mention — call position or value position —
		// reaches an *ast.Ident whose Uses entry is the *types.Func; one
		// ident walk covers plain calls, method calls and function values.
		ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
			id, ok := x.(*ast.Ident)
			if !ok {
				return true
			}
			f, ok := pkg.Info.Uses[id].(*types.Func)
			if !ok {
				return true
			}
			if c, ok := g.ByObj[f]; ok && !seen[c] {
				seen[c] = true
				n.Callees = append(n.Callees, c)
			}
			return true
		})
	}
	g.condense()
	return g
}

// condense runs Tarjan's strongly-connected-components algorithm. The
// recursion depth is bounded by the longest intra-package call chain, which
// for this module is far below any stack limit.
func (g *CallGraph) condense() {
	idx := 0
	var stack []*FuncNode
	var connect func(v *FuncNode)
	connect = func(v *FuncNode) {
		idx++
		v.index, v.lowlink = idx, idx
		stack = append(stack, v)
		v.onStack = true
		for _, w := range v.Callees {
			if w.index == 0 {
				connect(w)
				if w.lowlink < v.lowlink {
					v.lowlink = w.lowlink
				}
			} else if w.onStack && w.index < v.lowlink {
				v.lowlink = w.index
			}
		}
		if v.lowlink == v.index {
			var scc []*FuncNode
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				w.onStack = false
				w.SCC = len(g.SCCs)
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			g.SCCs = append(g.SCCs, scc)
		}
	}
	for _, v := range g.Nodes {
		if v.index == 0 {
			connect(v)
		}
	}
}

// isRecursive reports whether an SCC contains a cycle (more than one member,
// or a self-loop).
func isRecursive(scc []*FuncNode) bool {
	if len(scc) > 1 {
		return true
	}
	for _, c := range scc[0].Callees {
		if c == scc[0] {
			return true
		}
	}
	return false
}
