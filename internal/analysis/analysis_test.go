package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The host module is loaded once per test binary: fixture packages import
// the real mat and comm packages, and the stdlib source importer's cache is
// shared through the module's loader.
var (
	hostOnce sync.Once
	hostMod  *Module
	hostErr  error
)

func hostModule(t *testing.T) *Module {
	t.Helper()
	hostOnce.Do(func() {
		root, err := FindModuleRoot(".")
		if err != nil {
			hostErr = err
			return
		}
		hostMod, hostErr = LoadModule(root)
	})
	if hostErr != nil {
		t.Fatalf("loading host module: %v", hostErr)
	}
	return hostMod
}

// want expectation comments in fixtures look like
//
//	mat.Mul(a, a, b) // want `destination a may alias`
//
// with one backtick-quoted regexp per expected finding on that line.
var wantRe = regexp.MustCompile("`([^`]*)`")

type expectation struct {
	re    *regexp.Regexp
	met   bool
	lit   string
	place string // file:line
}

// collectWants extracts the expectation comments of a fixture module: from
// every Go comment and from the fixture's assembly files (asmcheck findings
// anchor in .s sources). The marker may trail other comment text so an
// annotation line like "//perf:hotloop // want `...`" can carry its own
// expectation — perfbce anchors its findings on the annotation itself.
func collectWants(t *testing.T, m *Module) map[string][]*expectation {
	t.Helper()
	wants := make(map[string][]*expectation)
	add := func(place, text string) {
		idx := strings.Index(text, "// want ")
		if idx < 0 {
			return
		}
		rest := text[idx+len("// want "):]
		lits := wantRe.FindAllStringSubmatch(rest, -1)
		if len(lits) == 0 {
			t.Fatalf("%s: malformed want comment (no backtick-quoted regexp): %s", place, text)
		}
		for _, lit := range lits {
			re, err := regexp.Compile(lit[1])
			if err != nil {
				t.Fatalf("%s: bad want regexp %q: %v", place, lit[1], err)
			}
			wants[place] = append(wants[place], &expectation{re: re, lit: lit[1], place: place})
		}
	}
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					pos := m.Fset.Position(c.Pos())
					add(fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line), c.Text)
				}
			}
		}
		for _, sf := range asmFilesFor(pkg) {
			for i, line := range strings.Split(string(sf.Src), "\n") {
				add(fmt.Sprintf("%s:%d", filepath.Base(sf.Name), i+1), line)
			}
		}
	}
	return wants
}

func placeOf(pos token.Position) string {
	return fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
}

// amd64OnlyFixtures names the analyzers whose fixtures encode amd64-specific
// expectations: the asmcheck rules are amd64's, and the perf-contract wants
// pin the diagnostics of an amd64 compilation.
var amd64OnlyFixtures = map[string]bool{
	"asmcheck":   true,
	"perfescape": true,
	"perfbce":    true,
	"perfinline": true,
}

// extraFixtures names the fixture packages under testdata/src that are not
// named after an analyzer, each with the analyzer that checks it: commlock
// holds the comm-operation cases of lockorder's blocking-while-locked rule.
var extraFixtures = map[string]*Analyzer{
	"commlock": lockOrderAnalyzer,
}

// TestAnalyzersOnFixtures runs every analyzer over its fixture package under
// testdata/src/<name>, and each extra fixture under its analyzer, and
// requires an exact bijection between the surviving findings and the
// fixture's want comments: every want matched, no finding unaccounted for.
func TestAnalyzersOnFixtures(t *testing.T) {
	host := hostModule(t)
	fixtures := make(map[string]*Analyzer, len(extraFixtures))
	for _, a := range Analyzers() {
		fixtures[a.Name] = a
	}
	for name, a := range extraFixtures {
		fixtures[name] = a
	}
	names := make([]string, 0, len(fixtures))
	for name := range fixtures {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		name, a := name, fixtures[name]
		t.Run(name, func(t *testing.T) {
			// The performance-contract fixtures assert against amd64
			// compiler evidence (and asmcheck is amd64-only by design);
			// their wants are meaningless on other hosts.
			if amd64OnlyFixtures[a.Name] && runtime.GOARCH != "amd64" {
				t.Skipf("%s fixture pins amd64 compiler behavior; GOARCH=%s", a.Name, runtime.GOARCH)
			}
			dir := filepath.Join("testdata", "src", name)
			fix, err := host.LoadFixture(dir, "fix/"+name)
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			wants := collectWants(t, fix)
			if len(wants) == 0 {
				t.Fatalf("fixture %s has no want comments; a fixture that expects nothing tests nothing", dir)
			}

			all := a.Run(fix)
			findings := FilterSuppressed(all, CollectSuppressions(fix))
			SortFindings(findings)

			for _, f := range findings {
				if f.Analyzer != a.Name {
					t.Errorf("finding attributed to %q, want %q: %s", f.Analyzer, a.Name, f)
				}
				place := placeOf(f.Pos)
				matched := false
				for _, w := range wants[place] {
					if !w.met && w.re.MatchString(f.Message) {
						w.met = true
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("unexpected finding at %s: %s", place, f.Message)
				}
			}
			var places []string
			for place := range wants {
				places = append(places, place)
			}
			sort.Strings(places)
			for _, place := range places {
				for _, w := range wants[place] {
					if !w.met {
						t.Errorf("expected finding at %s matching %q, got none", place, w.lit)
					}
				}
			}
		})
	}
}

// TestPerfEscapeCoversHotallocBlindSpot pins the premise of the perfescape
// fixture: the interface-conversion allocation in Step and the
// address-taken escape in stage carry no syntactic allocation (no make,
// new, append or composite literal, the forms a syntactic scan such as
// the former hotalloc analyzer matched), yet the compiler-evidence
// analyzer reports both.
func TestPerfEscapeCoversHotallocBlindSpot(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("fixture pins amd64 compiler behavior; GOARCH=%s", runtime.GOARCH)
	}
	host := hostModule(t)
	fix, err := host.LoadFixture(filepath.Join("testdata", "src", "perfescape"), "fix/perfescape-blindspot")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	findings := FilterSuppressed(perfEscapeAnalyzer.Run(fix), CollectSuppressions(fix))
	for _, want := range []string{
		"x escapes to heap in hot-path function Step",
		"moved to heap: buf in hot-path function stage",
	} {
		var hit *Finding
		for i := range findings {
			if strings.Contains(findings[i].Message, want) {
				hit = &findings[i]
			}
		}
		if hit == nil {
			t.Errorf("perfescape missed %q; findings: %v", want, findings)
			continue
		}
		if form := syntacticAllocAt(fix, hit.Pos); form != "" {
			t.Errorf("%s: the reported line holds a syntactic allocation (%s); the fixture case must be one only escape analysis sees", placeOf(hit.Pos), form)
		}
	}
}

// syntacticAllocAt returns the first syntactic allocation form (a make, new
// or append call, or a composite literal) that starts on pos's line, or "".
func syntacticAllocAt(m *Module, pos token.Position) string {
	var form string
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			if m.Fset.Position(file.Pos()).Filename != pos.Filename {
				continue
			}
			ast.Inspect(file, func(n ast.Node) bool {
				if form != "" || n == nil || m.Fset.Position(n.Pos()).Line != pos.Line {
					return form == ""
				}
				switch n := n.(type) {
				case *ast.CallExpr:
					if id, ok := n.Fun.(*ast.Ident); ok && (id.Name == "make" || id.Name == "new" || id.Name == "append") {
						form = id.Name
					}
				case *ast.CompositeLit:
					form = "composite literal"
				}
				return form == ""
			})
		}
	}
	return form
}

func TestParseIgnore(t *testing.T) {
	cases := []struct {
		text  string
		names []string
		ok    bool
	}{
		{"//lint:ignore floateq the reason", []string{"floateq"}, true},
		{"//lint:ignore matalias,commtag shared buffer", []string{"matalias", "commtag"}, true},
		{"//lint:ignore\tfloateq tab separator", []string{"floateq"}, true},
		{"//lint:ignore", nil, false},              // no analyzer named
		{"//lint:ignoreXfloateq oops", nil, false}, // no separator
		{"// lint:ignore floateq spaced prefix", nil, false},
		{"// ordinary comment", nil, false},
	}
	for _, c := range cases {
		names, ok := parseIgnore(c.text)
		if ok != c.ok {
			t.Errorf("parseIgnore(%q) ok = %v, want %v", c.text, ok, c.ok)
			continue
		}
		if fmt.Sprint(names) != fmt.Sprint(c.names) {
			t.Errorf("parseIgnore(%q) = %v, want %v", c.text, names, c.names)
		}
	}
}

func TestSuppressedLines(t *testing.T) {
	d := &directive{pos: token.Position{Filename: "a.go", Line: 10}, name: "floateq"}
	s := &Suppressions{
		byFile: map[string]map[int]map[string]*directive{"a.go": {10: {"floateq": d}}},
		all:    []*directive{d},
	}
	pos := func(line int) token.Position { return token.Position{Filename: "a.go", Line: line} }
	if !s.Suppressed("floateq", pos(10)) {
		t.Error("same-line directive should suppress")
	}
	if !s.Suppressed("floateq", pos(11)) {
		t.Error("directive on the line above should suppress")
	}
	if s.Suppressed("floateq", pos(12)) {
		t.Error("directive two lines above must not suppress")
	}
	if s.Suppressed("matalias", pos(10)) {
		t.Error("directive must only silence the named analyzer")
	}
	if s.Suppressed("floateq", token.Position{Filename: "b.go", Line: 10}) {
		t.Error("directive must only apply to its own file")
	}
	if !d.used {
		t.Error("matching a finding must mark the directive used")
	}
}

// TestUnusedDirectives covers the three audit outcomes: a directive that
// matched a finding stays silent, a never-matched directive is stale, and a
// directive naming a non-analyzer is a typo.
func TestUnusedDirectives(t *testing.T) {
	mk := func(line int, name string) *directive {
		return &directive{pos: token.Position{Filename: "a.go", Line: line}, name: name}
	}
	used, stale, typo := mk(5, "floateq"), mk(9, "matalias"), mk(3, "floateqq")
	s := &Suppressions{
		byFile: map[string]map[int]map[string]*directive{"a.go": {
			3: {"floateqq": typo},
			5: {"floateq": used},
			9: {"matalias": stale},
		}},
		all: []*directive{used, stale, typo},
	}
	if !s.Suppressed("floateq", token.Position{Filename: "a.go", Line: 6}) {
		t.Fatal("directive on the line above should suppress")
	}
	known := map[string]bool{"floateq": true, "matalias": true}
	got := s.Unused(known)
	if len(got) != 2 {
		t.Fatalf("Unused returned %d findings, want 2: %v", len(got), got)
	}
	// Sorted by file then line: the typo at line 3 precedes the stale
	// directive at line 9.
	if got[0].Pos.Line != 3 || !strings.Contains(got[0].Message, `unknown analyzer "floateqq"`) {
		t.Errorf("first audit finding = %v, want unknown-analyzer at line 3", got[0])
	}
	if got[1].Pos.Line != 9 || !strings.Contains(got[1].Message, `matches no finding`) {
		t.Errorf("second audit finding = %v, want stale directive at line 9", got[1])
	}
	for _, f := range got {
		if f.Analyzer != SuppressName {
			t.Errorf("audit finding attributed to %q, want %q", f.Analyzer, SuppressName)
		}
	}
}

// TestSuppressFixture runs the directive audit end to end over the suppress
// fixture: a used directive stays silent, a stale one and a misspelled one
// are reported, and the misspelled one fails to silence its finding.
func TestSuppressFixture(t *testing.T) {
	host := hostModule(t)
	fix, err := host.LoadFixture(filepath.Join("testdata", "src", "suppress"), "fix/suppress")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	sup := CollectSuppressions(fix)
	known := make(map[string]bool)
	var surviving []Finding
	for _, a := range Analyzers() {
		known[a.Name] = true
		surviving = append(surviving, FilterSuppressed(a.Run(fix), sup)...)
	}
	// The typo directive silences nothing: the != comparison below it is
	// still reported.
	if len(surviving) != 1 || surviving[0].Analyzer != "floateq" {
		t.Fatalf("surviving findings = %v, want exactly the unsuppressed floateq finding", surviving)
	}
	audit := sup.Unused(known)
	if len(audit) != 3 {
		t.Fatalf("audit findings = %v, want the two stale directives and the misspelled one", audit)
	}
	if !strings.Contains(audit[0].Message, `"floateq" matches no finding`) {
		t.Errorf("first audit finding = %v, want the stale floateq directive", audit[0])
	}
	if !strings.Contains(audit[1].Message, `unknown analyzer "floateqq"`) {
		t.Errorf("second audit finding = %v, want the floateqq typo", audit[1])
	}
	// The goleak directive above it is used (it silences a real finding);
	// the lockorder directive guards nothing and is stale.
	if !strings.Contains(audit[2].Message, `"lockorder" matches no finding`) {
		t.Errorf("third audit finding = %v, want the stale lockorder directive", audit[2])
	}
}

// TestFixtureSuppression pins the end-to-end suppression path: the floateq
// fixture contains one deliberately suppressed finding, so the raw run must
// report exactly one more finding than the filtered run.
func TestFixtureSuppression(t *testing.T) {
	host := hostModule(t)
	fix, err := host.LoadFixture(filepath.Join("testdata", "src", "floateq"), "fix/floateq-sup")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	all := floatEqAnalyzer.Run(fix)
	kept := FilterSuppressed(all, CollectSuppressions(fix))
	if len(all) != len(kept)+1 {
		t.Errorf("raw findings %d, after suppression %d; want exactly one suppressed", len(all), len(kept))
	}
}
