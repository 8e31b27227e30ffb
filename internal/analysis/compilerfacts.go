package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Compiler-evidence fact provider.
//
// The performance-contract analyzers (perfescape, perfbce, perfinline) do
// not re-derive escape analysis, bounds-check elimination or inlining from
// syntax — they ask the real compiler. computeCompilerFacts invokes the Go
// toolchain once per module with
//
//	go build -gcflags='-m=2 -d=ssa/check_bce' ./...
//
// and parses the diagnostic stream into a position-indexed fact table:
// every heap-escape decision, every bounds check the SSA backend could not
// eliminate, and every inlining verdict with its cost against the inliner
// budget. Analyzers then intersect that table with the module's
// //perf:hotpath, //perf:hotloop and //perf:inline annotations.
//
// The invocation is warm-cache friendly: the go command replays compiler
// diagnostics from its build cache, so a re-run over an unchanged tree
// costs a cache probe per package, not a compile. The parsed table is
// memoized on the Module, so one lint process invokes the toolchain at
// most once.
//
// Facts are computed lazily — only when an enabled compiler-backed
// analyzer actually encounters a perf annotation in a package it scans —
// so runs that touch no hot-path package never pay for a build.

// factsGCFlags is the exact -gcflags payload whose diagnostics the parser
// understands.
const factsGCFlags = "-m=2 -d=ssa/check_bce"

// FactDiag is one positioned compiler diagnostic (an escape or a surviving
// bounds check). File is absolute, matching the module FileSet's positions.
type FactDiag struct {
	File    string
	Line    int
	Col     int
	Message string
}

// InlineFact is the compiler's inlining verdict for one function
// declaration, positioned at the function name.
type InlineFact struct {
	File      string
	Line      int
	CanInline bool
	Cost      int    // cost from "can inline f with cost N" or "cost N exceeds budget M"
	Budget    int    // inliner budget from "cost N exceeds budget M" (0 when not reported)
	Reason    string // the compiler's reason when CanInline is false
}

// CompilerFacts is the parsed diagnostic table of one toolchain invocation
// over one source tree.
type CompilerFacts struct {
	escapes map[string][]FactDiag   // file -> escape diags, sorted by line, col
	bounds  map[string][]FactDiag   // file -> surviving bounds checks
	inlines map[string][]InlineFact // file -> inlining verdicts
}

// EscapesIn returns the heap-escape diagnostics inside [startLine, endLine]
// of file.
func (cf *CompilerFacts) EscapesIn(file string, startLine, endLine int) []FactDiag {
	return diagsIn(cf.escapes[file], startLine, endLine)
}

// BoundsIn returns the surviving bounds-check diagnostics inside
// [startLine, endLine] of file.
func (cf *CompilerFacts) BoundsIn(file string, startLine, endLine int) []FactDiag {
	return diagsIn(cf.bounds[file], startLine, endLine)
}

// InlineAt returns the inlining verdict recorded for the function whose
// name sits on the given line of file.
func (cf *CompilerFacts) InlineAt(file string, line int) (InlineFact, bool) {
	for _, f := range cf.inlines[file] {
		if f.Line == line {
			return f, true
		}
	}
	return InlineFact{}, false
}

func diagsIn(diags []FactDiag, startLine, endLine int) []FactDiag {
	var out []FactDiag
	for _, d := range diags {
		if d.Line >= startLine && d.Line <= endLine {
			out = append(out, d)
		}
	}
	return out
}

var (
	// canInlineRe / cannotInlineRe split the -m inlining verdicts.
	// "can inline Mul with cost 62 as: func(...)..."
	// "cannot inline New: function too complex: cost 90 exceeds budget 80"
	canInlineRe    = regexp.MustCompile(`^can inline (\S+) with cost (\d+)`)
	cannotInlineRe = regexp.MustCompile(`^cannot inline (\S+?): (.*)$`)
	costBudgetRe   = regexp.MustCompile(`cost (\d+) exceeds budget (\d+)`)
	// diagLineRe anchors every parseable diagnostic: path:line:col: message.
	diagLineRe = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)
)

// parseCompilerDiagnostics folds one toolchain diagnostic stream into a
// fact table. resolve maps the file path as printed by the compiler
// (relative to the build directory) to the absolute path the analysis
// FileSet uses; it returns "" for files outside the analyzed tree (whose
// diagnostics are dropped).
func parseCompilerDiagnostics(output []byte, resolve func(string) string) *CompilerFacts {
	cf := &CompilerFacts{
		escapes: make(map[string][]FactDiag),
		bounds:  make(map[string][]FactDiag),
		inlines: make(map[string][]InlineFact),
	}
	type diagKey struct {
		file      string
		line, col int
		msg       string
	}
	seen := make(map[diagKey]bool)
	// A local moved to the heap gets two verdicts at one position ("buf
	// escapes to heap" with the flow detail, then "moved to heap: buf");
	// escPos collapses them into a single fact, preferring the moved form.
	type posKey struct {
		file      string
		line, col int
	}
	escPos := make(map[posKey]int)
	for _, raw := range strings.Split(string(output), "\n") {
		m := diagLineRe.FindStringSubmatch(raw)
		if m == nil {
			continue // "# package" headers, link noise
		}
		msg := m[4]
		// -m=2 explains each escape with indented "flow:"/"from ..." detail
		// lines under the same position; only the unindented verdict counts.
		if msg == "" || msg[0] == ' ' || msg[0] == '\t' {
			continue
		}
		file := resolve(m[1])
		if file == "" {
			continue
		}
		line, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		// The verbose escape verdict ends in ":" (detail lines follow) and is
		// then repeated bare; normalize so the pair dedupes to one fact.
		msg = strings.TrimSuffix(msg, ":")
		key := diagKey{file, line, col, msg}

		switch {
		case msg == "Found IsInBounds" || msg == "Found IsSliceInBounds":
			if !seen[key] {
				seen[key] = true
				cf.bounds[file] = append(cf.bounds[file], FactDiag{file, line, col, msg})
			}
		case strings.HasSuffix(msg, "escapes to heap") || strings.HasPrefix(msg, "moved to heap:"):
			if !seen[key] {
				seen[key] = true
				pk := posKey{file, line, col}
				if i, dup := escPos[pk]; dup {
					if strings.HasPrefix(msg, "moved to heap:") {
						cf.escapes[file][i].Message = msg
					}
				} else {
					escPos[pk] = len(cf.escapes[file])
					cf.escapes[file] = append(cf.escapes[file], FactDiag{file, line, col, msg})
				}
			}
		case strings.HasPrefix(msg, "can inline "):
			if im := canInlineRe.FindStringSubmatch(msg); im != nil && !seen[key] {
				seen[key] = true
				cost, _ := strconv.Atoi(im[2])
				cf.inlines[file] = append(cf.inlines[file], InlineFact{File: file, Line: line, CanInline: true, Cost: cost})
			}
		case strings.HasPrefix(msg, "cannot inline "):
			if im := cannotInlineRe.FindStringSubmatch(msg); im != nil && !seen[key] {
				seen[key] = true
				f := InlineFact{File: file, Line: line, Reason: im[2]}
				if cb := costBudgetRe.FindStringSubmatch(im[2]); cb != nil {
					f.Cost, _ = strconv.Atoi(cb[1])
					f.Budget, _ = strconv.Atoi(cb[2])
				}
				cf.inlines[file] = append(cf.inlines[file], InlineFact{File: file, Line: line, Cost: f.Cost, Budget: f.Budget, Reason: f.Reason})
			}
		}
	}
	for _, m := range []map[string][]FactDiag{cf.escapes, cf.bounds} {
		for _, diags := range m {
			sort.Slice(diags, func(i, j int) bool {
				if diags[i].Line != diags[j].Line {
					return diags[i].Line < diags[j].Line
				}
				return diags[i].Col < diags[j].Col
			})
		}
	}
	return cf
}

// ComputeCompilerFacts invokes the toolchain over the module rooted at root
// and parses the diagnostics — the one toolchain call of a lint run, which
// the perf harness times on its own as Lint/compilerfacts. Build failures
// surface the compiler's message: a tree that does not build has no
// meaningful perf contracts to check.
func ComputeCompilerFacts(root string) (*CompilerFacts, error) {
	cmd := exec.Command("go", "build", "-gcflags="+factsGCFlags, "./...")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("analysis: go build -gcflags=%q: %v\n%s", factsGCFlags, err, truncateOutput(out))
	}
	return parseCompilerDiagnostics(out, func(p string) string {
		if filepath.IsAbs(p) {
			return p
		}
		return filepath.Join(root, filepath.FromSlash(p))
	}), nil
}

// computeFixtureFacts compiles a single fixture package (testdata/src/...,
// which has no go.mod of its own) by synthesizing a throwaway module that
// replaces the host module path with hostRoot, and maps the diagnostics
// back onto the fixture's real files. The analyzer fixture tests are the
// only caller.
func computeFixtureFacts(hostRoot, fixtureDir string) (*CompilerFacts, error) {
	hostPath, err := modulePath(hostRoot)
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp("", "blocktri-facts-fixture-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	gomod := fmt.Sprintf("module fixfacts\n\ngo 1.22\n\nrequire %s v0.0.0\n\nreplace %s => %s\n",
		hostPath, hostPath, hostRoot)
	if err := os.WriteFile(filepath.Join(tmp, "go.mod"), []byte(gomod), 0o644); err != nil {
		return nil, err
	}
	names, err := goFilesIn(fixtureDir)
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(tmp, filepath.Base(name)), data, 0o644); err != nil {
			return nil, err
		}
	}
	cmd := exec.Command("go", "build", "-mod=mod", "-gcflags="+factsGCFlags, ".")
	cmd.Dir = tmp
	cmd.Env = append(os.Environ(), "GOFLAGS=", "GOPROXY=off")
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("analysis: building fixture %s: %v\n%s", fixtureDir, err, truncateOutput(out))
	}
	return parseCompilerDiagnostics(out, func(p string) string {
		// Diagnostics reference the temp copies (./fix.go); map back to the
		// fixture's own files by base name — the copy is flat by construction.
		return filepath.Join(fixtureDir, filepath.Base(filepath.FromSlash(p)))
	}), nil
}

func truncateOutput(out []byte) []byte {
	const max = 4096
	if len(out) > max {
		return append(out[:max:max], []byte("\n...")...)
	}
	return out
}

// CompilerFacts returns the module's compiler-evidence fact table, invoking
// the toolchain on first use and memoizing the outcome — including failure
// — for the life of the Module.
func (m *Module) CompilerFacts() (*CompilerFacts, error) {
	if m.factsDone {
		return m.facts, m.factsErr
	}
	m.factsDone = true
	if m.hostRoot != "" {
		m.facts, m.factsErr = computeFixtureFacts(m.hostRoot, m.Root)
	} else {
		m.facts, m.factsErr = ComputeCompilerFacts(m.Root)
	}
	return m.facts, m.factsErr
}

// --- perf annotations -------------------------------------------------------

const (
	annotHotPath  = "//perf:hotpath"
	annotColdPath = "//perf:coldpath"
	annotHotLoop  = "//perf:hotloop"
	annotInline   = "//perf:inline"
)

// hasAnnotation reports whether a function's doc comment carries the given
// //perf: directive on a line of its own.
func hasAnnotation(doc *ast.CommentGroup, annot string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == annot {
			return true
		}
	}
	return false
}

// funcBodySpan returns the file and inclusive line range of a declaration
// body in the module's FileSet.
func (m *Module) funcBodySpan(body *ast.BlockStmt) (file string, start, end int) {
	p := m.Fset.Position(body.Pos())
	q := m.Fset.Position(body.End())
	return p.Filename, p.Line, q.Line
}

// hotPathFuncs returns the //perf:hotpath-annotated functions of pkg plus
// their transitive intra-package static callees (the compiler's escape and
// bounds decisions for a helper are part of the hot path that calls it).
// Propagation stops at //perf:coldpath-annotated functions — the sanctioned
// opt-out for amortized or deliberately allocating branches (pool growth,
// goroutine fan-out) — and at package boundaries: cross-package hot entry
// points carry their own annotation.
//
// The result maps each hot declaration to the annotated root it was reached
// from ("" for directly annotated functions).
func hotPathFuncs(pkg *Package) map[*ast.FuncDecl]string {
	decls := make(map[string]*ast.FuncDecl) // by types.Func full name
	cold := make(map[*ast.FuncDecl]bool)
	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if f, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				decls[f.FullName()] = fd
			}
			if hasAnnotation(fd.Doc, annotColdPath) {
				cold[fd] = true
			}
		}
	}
	hot := make(map[*ast.FuncDecl]string)
	var queue []*ast.FuncDecl
	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasAnnotation(fd.Doc, annotHotPath) {
				continue
			}
			hot[fd] = ""
			queue = append(queue, fd)
		}
	}
	for len(queue) > 0 {
		fd := queue[0]
		queue = queue[1:]
		root := hot[fd]
		if root == "" {
			root = fd.Name.Name
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(pkg.Info, call)
			if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != pkg.Path {
				return true
			}
			cd := decls[callee.FullName()]
			if cd == nil || cold[cd] {
				return true
			}
			if _, done := hot[cd]; done {
				return true
			}
			hot[cd] = root
			queue = append(queue, cd)
			return true
		})
	}
	return hot
}
