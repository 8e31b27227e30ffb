package analysis

import (
	"go/ast"
	"strings"
)

// hotalloc flags calls to the mat package's allocating constructors
// (mat.New, mat.NewFromSlice, mat.NewWorkspace, ...) inside solve-phase
// functions of the core solver package. The workspace-arena rework makes the
// solve phase allocation-free: Factor allocates once, Solve and SolveTo
// check storage out of per-rank arenas, and BenchmarkARDSolve pins
// 0 allocs/op. A fresh mat.New* in a function on the solve path is how that
// property quietly rots — each right-hand side would pay the allocator and
// the garbage collector again.
//
// Scope: functions (and their nested function literals) whose name contains
// "solve", case-insensitively, in blocktri/internal/core. Factor-phase code
// allocates freely by design and is not scanned. Deliberate allocations —
// the shared Solve that returns a caller-owned result — carry
// //lint:ignore hotalloc <reason> directives.
var hotAllocAnalyzer = &Analyzer{
	Name:     "hotalloc",
	Doc:      "flag mat.New* allocations inside solve-phase functions of the core package",
	Severity: SeverityWarning,
	Version:  1,
	Run:      runHotAlloc,
}

// corePkgPath is the one production package whose solve paths are required
// to be allocation-free.
const corePkgPath = "blocktri/internal/core"

// hotallocInScope admits the core package and analyzer fixtures (which load
// under a synthetic "fix/..." path).
func hotallocInScope(path string) bool {
	return path == corePkgPath || strings.HasPrefix(path, "fix/")
}

func runHotAlloc(m *Module) []Finding {
	p := &pass{m: m, name: "hotalloc"}
	for _, pkg := range m.Pkgs {
		if !hotallocInScope(pkg.Path) {
			continue
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				fd, ok := n.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !isSolvePhaseName(fd.Name.Name) {
					return true
				}
				// The whole body is solve-phase, including nested function
				// literals (the rank bodies handed to World.Run execute once
				// per solve).
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					f := calleeFunc(pkg.Info, call)
					if f == nil || funcPkgPath(f) != "blocktri/internal/mat" {
						return true
					}
					if !strings.HasPrefix(f.Name(), "New") {
						return true
					}
					p.reportf(call.Pos(),
						"mat.%s allocates inside solve-phase function %s: check storage out of a mat.Workspace instead, or add //lint:ignore hotalloc with the reason the allocation is intentional",
						f.Name(), fd.Name.Name)
					return true
				})
				// Already walked the body; don't descend twice. Nested named
				// FuncDecls cannot occur in Go, so skipping is safe.
				return false
			})
		}
	}
	return p.findings
}

// isSolvePhaseName reports whether a function name marks solve-phase code:
// it contains "solve" in any casing (Solve, SolveTo, solve, solveRank,
// ...).
func isSolvePhaseName(name string) bool {
	return strings.Contains(strings.ToLower(name), "solve")
}
