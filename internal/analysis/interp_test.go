package analysis

import (
	"go/types"
	"path/filepath"
	"testing"
)

func loadNamedFixture(t *testing.T, name string) *Module {
	t.Helper()
	host := hostModule(t)
	fix, err := host.LoadFixture(filepath.Join("testdata", "src", name), "fix/"+name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return fix
}

func fixturePkg(t *testing.T, m *Module, path string) *Package {
	t.Helper()
	for _, p := range m.Pkgs {
		if p.Path == path {
			return p
		}
	}
	t.Fatalf("package %s not in fixture module", path)
	return nil
}

func funcNamed(t *testing.T, pkg *Package, name string) *types.Func {
	t.Helper()
	obj := pkg.Pkg.Scope().Lookup(name)
	f, ok := obj.(*types.Func)
	if !ok {
		t.Fatalf("function %s not found in %s", name, pkg.Path)
	}
	return f
}

// TestCallGraphStructure checks the resolved edges and the condensation
// order on the callgraph fixture: callees come before callers, recursion
// forms the right SCCs, and function-value references count as edges.
func TestCallGraphStructure(t *testing.T) {
	fix := loadNamedFixture(t, "callgraph")
	pkg := fixturePkg(t, fix, "fix/callgraph")
	g := buildCallGraph(pkg)

	node := func(name string) *FuncNode {
		n := g.ByObj[funcNamed(t, pkg, name)]
		if n == nil {
			t.Fatalf("no call-graph node for %s", name)
		}
		return n
	}
	hasEdge := func(from, to string) bool {
		for _, c := range node(from).Callees {
			if c == node(to) {
				return true
			}
		}
		return false
	}
	for _, e := range [][2]string{{"top", "middle"}, {"middle", "leaf"}, {"viaValue", "leaf"},
		{"selfLoop", "selfLoop"}, {"pingA", "pingB"}, {"pingB", "pingA"}} {
		if !hasEdge(e[0], e[1]) {
			t.Errorf("missing call edge %s -> %s", e[0], e[1])
		}
	}

	sccIndex := make(map[*FuncNode]int)
	for i, scc := range g.SCCs {
		for _, n := range scc {
			sccIndex[n] = i
		}
	}
	// Reverse-topological: every callee's SCC is emitted no later than its
	// caller's.
	for _, n := range g.Nodes {
		for _, c := range n.Callees {
			if sccIndex[c] > sccIndex[n] {
				t.Errorf("SCC order violated: %s (scc %d) calls %s (scc %d)",
					n.Obj.Name(), sccIndex[n], c.Obj.Name(), sccIndex[c])
			}
		}
	}
	if i, j := sccIndex[node("pingA")], sccIndex[node("pingB")]; i != j {
		t.Errorf("pingA and pingB in different SCCs (%d, %d)", i, j)
	}
	for _, name := range []string{"selfLoop", "pingA"} {
		if !isRecursive(g.SCCs[sccIndex[node(name)]]) {
			t.Errorf("SCC of %s not marked recursive", name)
		}
	}
	if isRecursive(g.SCCs[sccIndex[node("leaf")]]) {
		t.Errorf("SCC of leaf wrongly marked recursive")
	}
}

// TestSummaryCheckoutOf checks the checkout facet end to end: leaf returns
// a checkout of its workspace parameter, and the chain propagates it
// through two call layers.
func TestSummaryCheckoutOf(t *testing.T) {
	fix := loadNamedFixture(t, "callgraph")
	pkg := fixturePkg(t, fix, "fix/callgraph")
	for _, name := range []string{"leaf", "middle", "top"} {
		sum := fix.calleeSummary(funcNamed(t, pkg, name))
		if sum == nil {
			t.Fatalf("no summary for %s", name)
		}
		if len(sum.CheckoutOf) != 1 || sum.CheckoutOf[0] != 0 {
			t.Errorf("%s CheckoutOf = %v, want [0] (checkout of ws)", name, sum.CheckoutOf)
		}
	}
}

// TestSummaryCache checks that the first query summarizes the whole
// package once and repeated queries are served from the per-package cache.
func TestSummaryCache(t *testing.T) {
	fix := loadNamedFixture(t, "callgraph")
	pkg := fixturePkg(t, fix, "fix/callgraph")
	leaf := funcNamed(t, pkg, "leaf")

	first := fix.calleeSummary(leaf)
	if first == nil {
		t.Fatal("no summary for leaf")
	}
	sums, ok := fix.loader.sums[pkg]
	if !ok {
		t.Fatal("first query did not cache the package's summaries")
	}
	if sums[funcNamed(t, pkg, "top")] == nil {
		t.Error("first query did not summarize the rest of the package")
	}
	if again := fix.calleeSummary(leaf); again != first {
		t.Error("second query recomputed the summary instead of reusing the cached one")
	}
}

// TestInterproceduralDelta proves each summary-consuming analyzer differs
// from its intraprocedural self on the fixture functions that motivate the
// upgrade: every case closes false negatives (more findings with
// summaries).
func TestInterproceduralDelta(t *testing.T) {
	cases := []struct {
		name  string
		delta int // findings with summaries minus findings without
	}{
		{"wsescape", 1},
		{"poolrelease", 2},
		{"errdiscard", 1},
		{"goleak", 1},    // helperLeak: the Spawns facet lands the obligation at the call site
		{"lockorder", 2}, // deOrder/edOrder: the cycle only closes through Locks facets
		{"ctxflow", 1},   // interpLeak: FuncSinks proves drop ignores the cancel
	}
	byName := make(map[string]*Analyzer)
	for _, a := range Analyzers() {
		byName[a.Name] = a
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			a := byName[c.name]
			if a == nil {
				t.Fatalf("no analyzer named %s", c.name)
			}
			fix := loadNamedFixture(t, c.name)
			with := len(a.Run(fix))
			fix.NoInterp = true
			without := len(a.Run(fix))
			fix.NoInterp = false
			if with-without != c.delta {
				t.Errorf("%s: %d findings with summaries, %d without, delta %+d; want %+d",
					c.name, with, without, with-without, c.delta)
			}
		})
	}
}
