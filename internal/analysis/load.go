package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package of the loaded module (or a fixture).
type Package struct {
	// Path is the import path ("blocktri/internal/mat", or a synthetic
	// path for test fixtures).
	Path string
	// Dir is the absolute directory the sources were read from.
	Dir   string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Module is a loaded and type-checked set of packages sharing one FileSet.
// Analyzers receive a Module and scan every package in Pkgs; imported
// packages that are not in Pkgs (the standard library, or the host module
// under a fixture run) contribute type information only.
type Module struct {
	// Root is the directory containing go.mod.
	Root string
	// Path is the module path declared in go.mod.
	Path string
	Fset *token.FileSet
	// Pkgs holds the loaded packages in dependency order (imported
	// packages first).
	Pkgs []*Package
	// NoInterp disables the interprocedural layer: calleeSummary returns
	// nil everywhere and every analyzer falls back to its intraprocedural
	// behavior. The summary-layer tests set it to measure what the layer
	// adds.
	NoInterp bool

	loader *loader

	// Compiler-evidence fact state (compilerfacts.go). hostRoot points a
	// fixture module at the host module root so fixture facts can be built
	// against the real packages. The computed table (or its error) is
	// memoized for the life of the Module.
	hostRoot  string
	facts     *CompilerFacts
	factsErr  error
	factsDone bool
}

// loader resolves imports: module-local paths against the packages loaded
// so far, everything else through the stdlib source importer (which
// type-checks GOROOT packages from source, so no compiled export data and
// no external dependency is needed).
type loader struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*Package
	// sums caches per-package function summaries (summary.go), keyed by the
	// loaded Package so fixture reloads of the same synthetic path never
	// serve summaries keyed on a previous type-check's objects.
	sums map[*Package]pkgSummaries
}

func newLoader(fset *token.FileSet) *loader {
	return &loader{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: make(map[string]*Package),
		sums: make(map[*Package]pkgSummaries),
	}
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p.Pkg, nil
	}
	return l.std.Import(path)
}

// FindModuleRoot walks up from dir to the nearest directory containing a
// go.mod file.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// modulePath extracts the module path from the go.mod at root.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			rest = strings.Trim(rest, `"`)
			if rest != "" {
				return rest, nil
			}
		}
	}
	return "", fmt.Errorf("analysis: no module path in %s/go.mod", root)
}

// skipDir reports whether a directory is excluded from the module walk:
// hidden and underscore directories, testdata trees (they are fixture
// inputs, not module code), and non-Go output trees.
func skipDir(name string) bool {
	if name == "" {
		return true
	}
	if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
		return true
	}
	switch name {
	case "testdata", "vendor", "results", "docs", "scripts":
		return true
	}
	return false
}

// buildCtx decides which files belong to the host build. Packages with
// per-architecture implementations (the AVX-512 GEMM kernel and its
// portable fallback both declare the same symbols behind build tags) must
// be filtered exactly as the go tool would, or type-checking sees the
// declarations twice.
var buildCtx = build.Default

// goFilesIn lists the non-test .go files in dir that match the host build
// constraints (filename GOOS/GOARCH suffixes and //go:build lines), sorted
// by name.
func goFilesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// An unreadable file is kept so the parse downstream reports the
		// real error instead of the package silently shrinking.
		if match, err := buildCtx.MatchFile(dir, name); err == nil && !match {
			continue
		}
		out = append(out, filepath.Join(dir, name))
	}
	sort.Strings(out)
	return out, nil
}

// asmFilesIn lists the assembly files in dir that match the host build
// constraints (filename GOOS/GOARCH suffixes and //go:build lines), sorted
// by name — the asmcheck inputs alongside goFilesIn's loader inputs.
func asmFilesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".s") {
			continue
		}
		if match, err := buildCtx.MatchFile(dir, name); err == nil && !match {
			continue
		}
		out = append(out, filepath.Join(dir, name))
	}
	sort.Strings(out)
	return out, nil
}

// LoadModule parses and type-checks every non-test package under root
// (skipping testdata and hidden directories) and returns them in
// dependency order.
func LoadModule(root string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	m := &Module{Root: root, Path: modPath, Fset: token.NewFileSet()}
	m.loader = newLoader(m.Fset)

	// Discover package directories.
	var dirs []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != root && skipDir(d.Name()) {
			return filepath.SkipDir
		}
		files, err := goFilesIn(path)
		if err != nil {
			return err
		}
		if len(files) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)

	// Parse every package and record its module-local imports, then
	// type-check in dependency order.
	type parsed struct {
		dir   string
		files []*ast.File
		deps  []string
	}
	byPath := make(map[string]*parsed)
	var paths []string
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		importPath := modPath
		if rel != "." {
			importPath = modPath + "/" + filepath.ToSlash(rel)
		}
		p := &parsed{dir: dir}
		names, err := goFilesIn(dir)
		if err != nil {
			return nil, err
		}
		pkgName := ""
		for _, name := range names {
			f, err := parser.ParseFile(m.Fset, name, nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			if pkgName == "" {
				pkgName = f.Name.Name
			} else if f.Name.Name != pkgName {
				return nil, fmt.Errorf("analysis: %s: mixed packages %s and %s", dir, pkgName, f.Name.Name)
			}
			p.files = append(p.files, f)
			for _, imp := range f.Imports {
				ip := strings.Trim(imp.Path.Value, `"`)
				if ip == modPath || strings.HasPrefix(ip, modPath+"/") {
					p.deps = append(p.deps, ip)
				}
			}
		}
		sort.Strings(p.deps)
		byPath[importPath] = p
		paths = append(paths, importPath)
	}

	// Topological sort by module-local imports (DFS, cycle detection),
	// type-checking each package once its dependencies are done.
	const (
		visiting = 1
		done     = 2
	)
	state := make(map[string]int)
	var visit func(path string) error
	visit = func(path string) error {
		switch state[path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("analysis: import cycle through %s", path)
		}
		state[path] = visiting
		p := byPath[path]
		if p == nil {
			return fmt.Errorf("analysis: package %s imported but not found in module", path)
		}
		for _, dep := range p.deps {
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[path] = done
		pkg, err := m.check(path, p.files)
		if err != nil {
			return fmt.Errorf("analysis: type-checking %s: %w", path, err)
		}
		pkg.Dir = p.dir
		m.loader.pkgs[path] = pkg
		m.Pkgs = append(m.Pkgs, pkg)
		return nil
	}
	for _, path := range paths {
		if err := visit(path); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// check type-checks one package's parsed files against the loader.
func (m *Module) check(importPath string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: m.loader}
	tpkg, err := conf.Check(importPath, m.Fset, files, info)
	if err != nil {
		return nil, err
	}
	return &Package{Path: importPath, Files: files, Pkg: tpkg, Info: info}, nil
}

// LoadFixture parses and type-checks the single package in dir as a
// standalone module with the synthetic import path fixturePath. The fixture
// may import packages of the host module m (that is the point: fixtures
// exercise analyzers against the real mat/comm APIs). The returned Module
// contains only the fixture package, so analyzers scan just the fixture.
func (m *Module) LoadFixture(dir, fixturePath string) (*Module, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	names, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in fixture %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(m.Fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, err := m.check(fixturePath, files)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking fixture %s: %w", dir, err)
	}
	pkg.Dir = dir
	hostRoot := m.hostRoot
	if hostRoot == "" {
		hostRoot = m.Root
	}
	return &Module{
		Root:     dir,
		Path:     fixturePath,
		Fset:     m.Fset,
		Pkgs:     []*Package{pkg},
		NoInterp: m.NoInterp,
		loader:   m.loader,
		hostRoot: hostRoot,
	}, nil
}
