package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"blocktri/internal/analysis"
)

// lintTimeBudget bounds one cold whole-repo lint (load + type-check + every
// toolchain-free analyzer with interprocedural summaries on). The dataflow
// analyzers solve a fixed point per function body and the summary layer
// one per package; if someone makes the transfer functions superlinear,
// this is the tripwire. The compiler-backed analyzers stay out of the
// timed run: the gcflags build behind them is a constant multi-second
// toolchain cost (measured on its own as Lint/compilerfacts in the perf
// harness) that would drown the superlinearity signal.
const lintTimeBudget = 6 * time.Second

// sarifLog is the slice of a SARIF 2.1.0 log the tests inspect.
type sarifLog struct {
	Version string `json:"version"`
	Runs    []struct {
		Tool struct {
			Driver struct {
				Name  string `json:"name"`
				Rules []struct {
					ID      string `json:"id"`
					HelpURI string `json:"helpUri"`
					Default struct {
						Level string `json:"level"`
					} `json:"defaultConfiguration"`
				} `json:"rules"`
			} `json:"driver"`
		} `json:"tool"`
		Results []struct {
			RuleID    string `json:"ruleId"`
			Level     string `json:"level"`
			Locations []struct {
				PhysicalLocation struct {
					ArtifactLocation struct {
						URI string `json:"uri"`
					} `json:"artifactLocation"`
				} `json:"physicalLocation"`
			} `json:"locations"`
		} `json:"results"`
	} `json:"runs"`
}

func parseSARIF(t *testing.T, data []byte) sarifLog {
	t.Helper()
	var log sarifLog
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatalf("output is not SARIF JSON: %v\n%s", err, data)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("unexpected SARIF shape: version=%q runs=%d", log.Version, len(log.Runs))
	}
	return log
}

// TestRepoIsLintClean is the driver-level regression gate, in the shape CI
// runs it: one invocation over the real module gates on the text stream and
// archives SARIF. Every analyzer must run and no unsuppressed finding (nor
// stale directive) may survive; if an analyzer change starts flagging
// shipped code, this fails with the exact findings in the error message.
func TestRepoIsLintClean(t *testing.T) {
	sarifPath := filepath.Join(t.TempDir(), "reports", "lint.sarif")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-format", "text,sarif", "-sarif-out", sarifPath, "./..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("blocktri-lint exited %d over the repo\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
	if out := strings.TrimSpace(stdout.String()); out != "" {
		t.Fatalf("expected no findings, got:\n%s", out)
	}
	data, err := os.ReadFile(sarifPath)
	if err != nil {
		t.Fatalf("SARIF file not written: %v", err)
	}
	log := parseSARIF(t, data)
	if got, want := len(log.Runs[0].Tool.Driver.Rules), len(analysis.Analyzers())+1; got != want {
		t.Errorf("SARIF names %d rules, want every analyzer plus suppress (%d)", got, want)
	}
	if n := len(log.Runs[0].Results); n != 0 {
		t.Errorf("expected zero SARIF results over a clean tree, got %d", n)
	}
}

// TestLintTimeBudget times a fresh whole-repo load and every
// toolchain-free analyzer — the run the perf harness records as
// Lint/interprocedural — against lintTimeBudget.
func TestLintTimeBudget(t *testing.T) {
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	m, err := analysis.LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range analysis.Analyzers() {
		if !a.NeedsBuild {
			a.Run(m)
		}
	}
	elapsed := time.Since(start)
	if !raceEnabled && elapsed > lintTimeBudget {
		t.Fatalf("whole-repo lint took %v, budget is %v", elapsed, lintTimeBudget)
	}
}

// BenchmarkLintRepo measures a full cold driver run: module load,
// type-check, the compiler-fact build and every analyzer. Run with
// -benchtime=3x or similar.
func BenchmarkLintRepo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"./..."}, &stdout, &stderr); code != 0 {
			b.Fatalf("blocktri-lint exited %d\n%s\n%s", code, stdout.String(), stderr.String())
		}
	}
}

// fixtureSrc is a one-package module with one floateq finding, one goleak
// finding and one lint:ignore directive for an analyzer that finds nothing
// there (stale on a full-suite run).
const fixtureSrc = `package p

// Near compares exactly.
func Near(a, b float64) bool { return a == b }

// Spin starts a goroutine nothing can stop.
func Spin() {
	//lint:ignore ctxflow nothing here stores or forwards a context
	go func() {
		for {
		}
	}()
}
`

// inFixtureModule writes the fixture module to a temporary directory and
// makes it the working directory for the rest of the test, so driver runs
// lint it instead of the repo.
func inFixtureModule(t *testing.T) {
	t.Helper()
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "p"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module lintfix\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "p", "p.go"), []byte(fixtureSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(root); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
}

// analyzersOf returns the analyzer tags of the text findings in out.
func analyzersOf(out string) []string {
	var tags []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if i := strings.Index(line, "["); i >= 0 {
			if j := strings.Index(line[i:], "]"); j > 0 {
				tags = append(tags, line[i+1:i+j])
			}
		}
	}
	return tags
}

// TestSARIFFormat checks that -format sarif emits a SARIF 2.1.0 log naming
// every analyzer that ran as a rule, with a docs anchor and a severity
// level, and one result per finding at its module-relative path.
func TestSARIFFormat(t *testing.T) {
	inFixtureModule(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-format", "sarif", "-analyzers", "floateq,goleak,lockorder,wsescape,ctxflow", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1 (the fixture has findings)\nstderr:\n%s", code, stderr.String())
	}
	log := parseSARIF(t, stdout.Bytes())
	d := log.Runs[0].Tool.Driver
	if d.Name != "blocktri-lint" {
		t.Fatalf("driver name %q", d.Name)
	}
	rules := make(map[string]struct{ helpURI, level string }, len(d.Rules))
	for _, r := range d.Rules {
		rules[r.ID] = struct{ helpURI, level string }{r.HelpURI, r.Default.Level}
	}
	for id, want := range map[string]string{"floateq": "warning", "goleak": "error", "lockorder": "error", "wsescape": "error", "ctxflow": "warning", "suppress": "warning"} {
		r, ok := rules[id]
		if !ok {
			t.Errorf("SARIF rules missing %q (got %v)", id, d.Rules)
			continue
		}
		if r.level != want {
			t.Errorf("rule %q level = %q, want %q", id, r.level, want)
		}
		wantURI := "docs/STATIC_ANALYSIS.md#" + id
		if id == "suppress" {
			wantURI = "docs/STATIC_ANALYSIS.md#suppression"
		}
		if r.helpURI != wantURI {
			t.Errorf("rule %q helpUri = %q, want %q", id, r.helpURI, wantURI)
		}
	}
	if len(rules) != 6 {
		t.Errorf("SARIF names %d rules, want the 5 selected analyzers plus suppress", len(rules))
	}
	results := log.Runs[0].Results
	if len(results) != 2 {
		t.Fatalf("SARIF results = %d, want the floateq and goleak findings", len(results))
	}
	for _, r := range results {
		if uri := r.Locations[0].PhysicalLocation.ArtifactLocation.URI; uri != "p/p.go" {
			t.Errorf("result %s at %q, want p/p.go", r.RuleID, uri)
		}
		if r.Level != rules[r.RuleID].level {
			t.Errorf("result %s level %q, want its rule's %q", r.RuleID, r.Level, rules[r.RuleID].level)
		}
	}
}

// TestMultiFormatWithSarifOut checks the single-invocation CI shape on
// findings: text on stdout for gating and SARIF written to a file (its
// directory created on demand) for archiving, both carrying the same
// findings.
func TestMultiFormatWithSarifOut(t *testing.T) {
	inFixtureModule(t)
	sarifPath := filepath.Join(t.TempDir(), "reports", "lint.sarif")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-format", "text,sarif", "-sarif-out", sarifPath, "-analyzers", "floateq,goleak", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (the fixture has findings)\nstderr:\n%s", code, stderr.String())
	}
	text := analyzersOf(stdout.String())
	sort.Strings(text)
	if strings.Join(text, ",") != "floateq,goleak" {
		t.Fatalf("text findings from %v, want the floateq and goleak ones:\n%s", text, stdout.String())
	}
	data, err := os.ReadFile(sarifPath)
	if err != nil {
		t.Fatalf("SARIF file not written: %v", err)
	}
	var sarif []string
	for _, r := range parseSARIF(t, data).Runs[0].Results {
		sarif = append(sarif, r.RuleID)
	}
	sort.Strings(sarif)
	if strings.Join(sarif, ",") != strings.Join(text, ",") {
		t.Fatalf("SARIF results from %v, text findings from %v; want the same findings in both", sarif, text)
	}
}

// TestAnalyzersFlagSubset checks that -analyzers runs exactly the named
// analyzers: the fixture's goleak finding is reported and its floateq
// finding is not.
func TestAnalyzersFlagSubset(t *testing.T) {
	inFixtureModule(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-analyzers", "goleak,lockorder,ctxflow", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if got := analyzersOf(stdout.String()); len(got) != 1 || got[0] != "goleak" {
		t.Fatalf("findings from %v, want exactly the goleak one:\n%s", got, stdout.String())
	}
}

// TestAnalyzersFlagUnknownName guards the validation path: a misspelled
// analyzer name is a usage error, not a silently empty run.
func TestAnalyzersFlagUnknownName(t *testing.T) {
	inFixtureModule(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-analyzers", "goleak,nope", "./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("expected exit 2 for unknown analyzer, got %d", code)
	}
	if !strings.Contains(stderr.String(), `unknown analyzer "nope" (use -list)`) {
		t.Fatalf("stderr missing diagnostic: %s", stderr.String())
	}
}

// TestAnalyzersFlagSkipsSuppressAudit pins the audit gating: the fixture's
// ctxflow directive matches nothing, so a full-suite run reports it stale,
// while a subset run must not audit directives for analyzers it skipped.
func TestAnalyzersFlagSkipsSuppressAudit(t *testing.T) {
	inFixtureModule(t)
	var stdout, stderr bytes.Buffer
	run([]string{"./..."}, &stdout, &stderr)
	if !strings.Contains(stdout.String(), `[suppress] lint:ignore directive for "ctxflow" matches no finding`) {
		t.Fatalf("full-suite run did not audit the stale directive:\n%s\nstderr:\n%s", stdout.String(), stderr.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-analyzers", "floateq", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if got := analyzersOf(stdout.String()); len(got) != 1 || got[0] != "floateq" {
		t.Fatalf("subset run reported %v, want only the floateq finding:\n%s", got, stdout.String())
	}
}

// TestBadFormatRejected guards the usage error path.
func TestBadFormatRejected(t *testing.T) {
	inFixtureModule(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-format", "xml", "./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("expected exit 2 for unknown format, got %d", code)
	}
	if !strings.Contains(stderr.String(), "unknown format") {
		t.Fatalf("stderr missing diagnostic: %s", stderr.String())
	}
}

// TestFormatFlagValidation guards the stream-conflict rules.
func TestFormatFlagValidation(t *testing.T) {
	inFixtureModule(t)
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"sarif-out without sarif", []string{"-format", "text", "-sarif-out", "x.sarif", "./..."}, "-sarif-out requires sarif"},
		{"multi-format sarif without sarif-out", []string{"-format", "text,sarif", "./..."}, "requires -sarif-out"},
		{"unknown in list", []string{"-format", "text,xml", "./..."}, "unknown format"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("expected exit 2, got %d\nstderr:\n%s", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("stderr missing %q:\n%s", tc.want, stderr.String())
			}
		})
	}
}
