package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Performance-contract analyzers: perfescape, perfbce and perfinline.
//
// Each one checks an explicit annotation against the compiler's own
// evidence (compilerfacts.go) instead of re-deriving optimizer behavior
// from syntax:
//
//	//perf:hotpath   (func doc)        no heap escape in this function or
//	                                   its intra-package static callees
//	//perf:coldpath  (func doc)        stop hotpath propagation here
//	//perf:hotloop   (line above for)  no bounds check survives in the loop
//	//perf:inline    (func doc)        the compiler must inline this helper
//
// The contracts these encode are the ones docs/PERFORMANCE.md banks on:
// 0 allocs/op across the solve phase, bounds-check-free packed-GEMM and
// substitution loops, and panel helpers cheap enough to stay under the
// inliner budget. Today those properties are guarded only by alloc counts
// and the >15% bench gate; a regression shows up as a failed benchmark with
// no line to look at. These analyzers turn the same regressions into
// position-anchored findings at lint time.
//
// All three set NeedsBuild: the perf harness and the lint time budget keep
// them out of the toolchain-free measurements.

var perfEscapeAnalyzer = &Analyzer{
	Name:       "perfescape",
	Doc:        "flag heap escapes (compiler-verified) inside //perf:hotpath functions and their intra-package callees",
	Severity:   SeverityError,
	NeedsBuild: true,
	Run:        runPerfEscape,
}

var perfBCEAnalyzer = &Analyzer{
	Name:       "perfbce",
	Doc:        "flag bounds checks surviving (per -d=ssa/check_bce) in //perf:hotloop-annotated loops",
	Severity:   SeverityWarning,
	NeedsBuild: true,
	Run:        runPerfBCE,
}

var perfInlineAnalyzer = &Analyzer{
	Name:       "perfinline",
	Doc:        "flag //perf:inline helpers the compiler declines to inline, with cost vs budget",
	Severity:   SeverityWarning,
	NeedsBuild: true,
	Run:        runPerfInline,
}

// packageFacts fetches the module's compiler facts on behalf of one
// analyzer pass, converting a provider failure into a single finding
// anchored at the annotation that needed the facts — a broken toolchain
// must never silently waive a perf contract. The pass stops after the
// first failure (facts are module-wide; repeating the error per
// annotation is noise).
func packageFacts(p *pass, m *Module, at token.Pos) (*CompilerFacts, bool) {
	cf, err := m.CompilerFacts()
	if err != nil {
		p.factsFailed = true
		p.reportf(at, "compiler facts unavailable: %v", err)
		return nil, false
	}
	return cf, true
}

// reportAt files a finding at a compiler-diagnostic position (which has no
// token.Pos in the analysis FileSet — the fact table indexes raw file
// coordinates).
func (p *pass) reportAt(d FactDiag, format string, args ...any) {
	p.findings = append(p.findings, Finding{
		Pos:      token.Position{Filename: d.File, Line: d.Line, Column: d.Col},
		Analyzer: p.name,
		Message:  fmt.Sprintf(format, args...),
	})
}

func runPerfEscape(m *Module) []Finding {
	p := &pass{m: m, name: "perfescape"}
	for _, pkg := range m.Pkgs {
		hot := hotPathFuncs(pkg)
		if len(hot) == 0 {
			continue
		}
		// Stable iteration order: findings must serialize identically across
		// runs, and map order is not.
		decls := make([]*ast.FuncDecl, 0, len(hot))
		for fd := range hot {
			decls = append(decls, fd)
		}
		sort.Slice(decls, func(i, j int) bool { return decls[i].Pos() < decls[j].Pos() })
		cf, ok := packageFacts(p, m, decls[0].Pos())
		if !ok {
			return p.findings
		}
		for _, fd := range decls {
			file, start, end := m.funcBodySpan(fd.Body)
			for _, d := range cf.EscapesIn(file, start, end) {
				if staticDataEscape(d.Message) {
					continue
				}
				via := ""
				if root := hot[fd]; root != "" {
					via = fmt.Sprintf(" (hot via //perf:hotpath on %s)", root)
				}
				p.reportAt(d, "%s in hot-path function %s%s: keep solve-phase storage in a mat.Workspace or preallocated buffer, or add //lint:ignore perfescape with the reason the allocation is amortized",
					d.Message, fd.Name.Name, via)
			}
		}
	}
	return p.findings
}

// staticDataEscape reports whether an escape diagnostic describes a quoted
// string literal — panic("...") message spills. Those are read-only static
// data the runtime interns, not per-call heap traffic, and every hot kernel
// keeps its bounds panics.
func staticDataEscape(msg string) bool {
	return strings.HasPrefix(msg, `"`) || strings.HasPrefix(msg, "`")
}

func runPerfBCE(m *Module) []Finding {
	p := &pass{m: m, name: "perfbce"}
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			annot := annotationLines(m.Fset, file, annotHotLoop)
			if len(annot) == 0 {
				continue
			}
			matched := make(map[int]bool)
			var cf *CompilerFacts
			ast.Inspect(file, func(n ast.Node) bool {
				var body *ast.BlockStmt
				switch st := n.(type) {
				case *ast.ForStmt:
					body = st.Body
				case *ast.RangeStmt:
					body = st.Body
				default:
					return true
				}
				pos := m.Fset.Position(n.Pos())
				if !annot[pos.Line-1] {
					return true
				}
				matched[pos.Line-1] = true
				if cf == nil {
					var ok bool
					if cf, ok = packageFacts(p, m, n.Pos()); !ok {
						return false
					}
				}
				endLine := m.Fset.Position(body.End()).Line
				diags := cf.BoundsIn(pos.Filename, pos.Line, endLine)
				if len(diags) == 0 {
					return true
				}
				// One aggregated finding per loop, anchored at the
				// //perf:hotloop annotation itself, so a single
				// //lint:ignore perfbce on the line above the annotation
				// covers the whole loop (suppression matches the finding
				// line and the line above it).
				var lines []string
				for _, d := range diags {
					lines = append(lines, fmt.Sprintf("%d:%d", d.Line, d.Col))
				}
				p.reportAt(FactDiag{File: pos.Filename, Line: pos.Line - 1, Col: 1},
					"%d bounds check(s) survive in //perf:hotloop (at %s): hoist a len check or reslice so the compiler can prove the accesses in range, or add //lint:ignore perfbce with the reason",
					len(diags), strings.Join(lines, ", "))
				return true
			})
			if p.factsFailed {
				return p.findings
			}
			// An annotation with no loop under it guards nothing; flag it so
			// refactors cannot quietly strand the contract.
			var stray []int
			for line := range annot {
				if !matched[line] {
					stray = append(stray, line)
				}
			}
			sort.Ints(stray)
			for _, line := range stray {
				p.reportAt(FactDiag{File: m.Fset.Position(file.Pos()).Filename, Line: line, Col: 1},
					"//perf:hotloop is not directly above a for statement: move it onto the line before the loop or delete it")
			}
		}
	}
	return p.findings
}

func runPerfInline(m *Module) []Finding {
	p := &pass{m: m, name: "perfinline"}
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !hasAnnotation(fd.Doc, annotInline) {
					continue
				}
				cf, ok := packageFacts(p, m, fd.Pos())
				if !ok {
					return p.findings
				}
				pos := m.Fset.Position(fd.Name.Pos())
				fact, found := cf.InlineAt(pos.Filename, pos.Line)
				switch {
				case !found:
					p.reportf(fd.Pos(), "//perf:inline on %s but the compiler recorded no inlining verdict for it: the function may be dead code or excluded from the build",
						fd.Name.Name)
				case !fact.CanInline && fact.Budget > 0:
					p.reportf(fd.Pos(), "//perf:inline on %s but the compiler declines: cost %d exceeds budget %d — trim the body below the inliner budget or drop the annotation",
						fd.Name.Name, fact.Cost, fact.Budget)
				case !fact.CanInline:
					p.reportf(fd.Pos(), "//perf:inline on %s but the compiler declines: %s",
						fd.Name.Name, fact.Reason)
				}
			}
		}
	}
	return p.findings
}

// annotationLines returns the set of line numbers in file whose comment
// starts with the given //perf: directive — exactly, or followed by a space
// and free-form trailing text (a rationale, or a fixture want comment).
func annotationLines(fset *token.FileSet, file *ast.File, annot string) map[int]bool {
	var out map[int]bool
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(c.Text)
			if text != annot && !strings.HasPrefix(text, annot+" ") {
				continue
			}
			if out == nil {
				out = make(map[int]bool)
			}
			out[fset.Position(c.Pos()).Line] = true
		}
	}
	return out
}
