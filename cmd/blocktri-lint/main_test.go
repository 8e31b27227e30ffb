package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// lintTimeBudget bounds one cold whole-repo run (load + type-check + all
// analyzers with interprocedural summaries on). The dataflow analyzers solve
// a fixed-point per function body and the summary layer one per package; if
// someone makes the transfer functions superlinear, this is the tripwire.
// The compiler fact table is seeded before the clock starts: the gcflags
// build behind it is a constant multi-second toolchain cost (measured on
// its own as Lint/compilerfacts in the perf harness) that would drown the
// superlinearity signal this budget exists to catch.
const lintTimeBudget = 6 * time.Second

// seedCompilerFacts caches the compiler fact table for the current tree so
// a following timed run replays it instead of invoking the toolchain. The
// perfescape-only subset is the cheapest run that demands facts.
func seedCompilerFacts(t *testing.T) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-analyzers", "perfescape", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("facts seed run exited %d\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
}

// intraTimeBudget bounds the same run with -interprocedural=false. The
// summary layer must stay pay-for-what-you-use: turning it off cannot be
// slower than the full run.
const intraTimeBudget = lintTimeBudget

// TestRepoIsLintClean is the driver-level regression gate: a full run of
// every analyzer over the real module source must produce zero unsuppressed
// diagnostics. If an analyzer change starts flagging shipped code, this
// fails with the exact findings in the error message.
func TestRepoIsLintClean(t *testing.T) {
	seedCompilerFacts(t)
	var stdout, stderr bytes.Buffer
	start := time.Now()
	code := run([]string{"./..."}, &stdout, &stderr)
	elapsed := time.Since(start)
	if code != 0 {
		t.Fatalf("blocktri-lint exited %d over the repo\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
	if out := strings.TrimSpace(stdout.String()); out != "" {
		t.Fatalf("expected no findings, got:\n%s", out)
	}
	if !raceEnabled && elapsed > lintTimeBudget {
		t.Fatalf("whole-repo lint took %v, budget is %v", elapsed, lintTimeBudget)
	}
}

// TestIntraproceduralRunStaysClean pins the off-switch: with
// -interprocedural=false every analyzer falls back to its intraprocedural
// self, and the repo must still lint clean within the same budget (the
// summary-closed false negatives live only in fixtures, and commshape's
// helper-paired sends are all intra-function in shipped code).
func TestIntraproceduralRunStaysClean(t *testing.T) {
	seedCompilerFacts(t)
	var stdout, stderr bytes.Buffer
	start := time.Now()
	code := run([]string{"-interprocedural=false", "./..."}, &stdout, &stderr)
	elapsed := time.Since(start)
	if code != 0 {
		t.Fatalf("blocktri-lint -interprocedural=false exited %d\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
	if !raceEnabled && elapsed > intraTimeBudget {
		t.Fatalf("intraprocedural lint took %v, budget is %v", elapsed, intraTimeBudget)
	}
}

// BenchmarkLintRepo measures a full cold run: module load, type-check and
// all analyzers with summaries on, with the persistent cache disabled so
// every iteration pays full price. Run with -benchtime=3x or similar.
func BenchmarkLintRepo(b *testing.B) {
	benchmarkLint(b, []string{"-no-cache", "./..."})
}

// BenchmarkLintRepoIntraprocedural is the same run with the summary layer
// off: the spread between the two is the measured cost of the
// interprocedural layer.
func BenchmarkLintRepoIntraprocedural(b *testing.B) {
	benchmarkLint(b, []string{"-no-cache", "-interprocedural=false", "./..."})
}

// BenchmarkLintRepoWarm measures a fully cache-warm run: the first
// iteration seeds the persistent cache, then every iteration replays from
// it (scan + entry reads, no type-checking).
func BenchmarkLintRepoWarm(b *testing.B) {
	dir := b.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-cache-dir", dir, "./..."}, &stdout, &stderr); code != 0 {
		b.Fatalf("seed run exited %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	b.ResetTimer()
	benchmarkLint(b, []string{"-cache-dir", dir, "./..."})
}

func benchmarkLint(b *testing.B, args []string) {
	for i := 0; i < b.N; i++ {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			b.Fatalf("blocktri-lint exited %d\n%s\n%s", code, stdout.String(), stderr.String())
		}
	}
}

// TestJSONFormat checks that -format json emits the report object: an empty
// findings array over a clean tree plus the interprocedural block with
// plausible counters.
func TestJSONFormat(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-format", "json", "./..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, stderr.String())
	}
	var report struct {
		Findings        []map[string]any `json:"findings"`
		Interprocedural struct {
			Enabled   bool `json:"enabled"`
			Summaries struct {
				Functions int `json:"functions"`
				CallEdges int `json:"call_edges"`
				SCCs      int `json:"sccs"`
				Packages  int `json:"packages"`
			} `json:"summaries"`
		} `json:"interprocedural"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &report); err != nil {
		t.Fatalf("output is not the JSON report object: %v\n%s", err, stdout.String())
	}
	if report.Findings == nil || len(report.Findings) != 0 {
		t.Fatalf("expected empty findings array, got %v", report.Findings)
	}
	ip := report.Interprocedural
	if !ip.Enabled {
		t.Fatal("interprocedural.enabled = false on a default run")
	}
	// The summaries block is structural (functions, edges, SCCs, packages) —
	// a pure function of the tree, so cold and cache-warm runs agree on it.
	if ip.Summaries.Functions == 0 || ip.Summaries.CallEdges == 0 || ip.Summaries.SCCs == 0 || ip.Summaries.Packages == 0 {
		t.Fatalf("summary counters did not move: %+v", ip.Summaries)
	}
}

// TestJSONDeterministic is the byte-identical gate from the acceptance
// criteria: two full -format json runs over the same tree must produce
// exactly the same bytes, findings and cache counters included.
func TestJSONDeterministic(t *testing.T) {
	runOnce := func() []byte {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-format", "json", "./..."}, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d\nstderr:\n%s", code, stderr.String())
		}
		return stdout.Bytes()
	}
	a, b := runOnce(), runOnce()
	if !bytes.Equal(a, b) {
		t.Fatalf("two json runs differ:\nfirst:\n%s\nsecond:\n%s", a, b)
	}
}

// TestJSONIntraproceduralFlag checks the off-switch is reflected in the
// report metadata.
func TestJSONIntraproceduralFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-interprocedural=false", "-format", "json", "./..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, stderr.String())
	}
	var report struct {
		Interprocedural struct {
			Enabled bool `json:"enabled"`
		} `json:"interprocedural"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &report); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if report.Interprocedural.Enabled {
		t.Fatal("interprocedural.enabled = true despite -interprocedural=false")
	}
}

// TestSARIFFormat checks that -format sarif emits a SARIF 2.1.0 log naming
// every analyzer that ran as a rule, even when there are no results.
func TestSARIFFormat(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-format", "sarif", "./..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, stderr.String())
	}
	var log struct {
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
			Results []any `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &log); err != nil {
		t.Fatalf("output is not SARIF JSON: %v\n%s", err, stdout.String())
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("unexpected SARIF shape: version=%q runs=%d", log.Version, len(log.Runs))
	}
	d := log.Runs[0].Tool.Driver
	if d.Name != "blocktri-lint" {
		t.Fatalf("driver name %q", d.Name)
	}
	rules := make(map[string]struct{ helpURI, level string }, len(d.Rules))
	for _, r := range d.Rules {
		rules[r.ID] = struct{ helpURI, level string }{r.HelpURI, r.Default.Level}
	}
	for _, want := range []string{"wsescape", "poolrelease", "errdiscard", "commshape", "blockshape", "matalias", "commtag", "goleak", "lockorder", "ctxflow", "suppress"} {
		if _, ok := rules[want]; !ok {
			t.Errorf("SARIF rules missing %q (got %v)", want, d.Rules)
		}
	}
	// Every rule must carry a docs anchor and a severity level.
	for id, r := range rules {
		wantURI := "docs/STATIC_ANALYSIS.md#" + id
		if id == "suppress" {
			wantURI = "docs/STATIC_ANALYSIS.md#suppression"
		}
		if r.helpURI != wantURI {
			t.Errorf("rule %q helpUri = %q, want %q", id, r.helpURI, wantURI)
		}
		if r.level != "error" && r.level != "warning" {
			t.Errorf("rule %q defaultConfiguration.level = %q", id, r.level)
		}
	}
	// Spot-check the tiers: correctness analyzers are errors, style-tier
	// checks warnings.
	for id, want := range map[string]string{"wsescape": "error", "blockshape": "error", "goleak": "error", "lockorder": "error", "ctxflow": "warning", "floateq": "warning", "suppress": "warning"} {
		if r := rules[id]; r.level != want {
			t.Errorf("rule %q level = %q, want %q", id, r.level, want)
		}
	}
	if len(log.Runs[0].Results) != 0 {
		t.Fatalf("expected zero SARIF results over a clean tree, got %d", len(log.Runs[0].Results))
	}
}

// TestAnalyzersFlagSubset runs only the concurrency trio via -analyzers and
// expects a clean exit: the repo's goleak/ctxflow findings are suppressed in
// place, and the selector must wire the names through.
func TestAnalyzersFlagSubset(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-analyzers", "goleak,lockorder,ctxflow", "./..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if out := strings.TrimSpace(stdout.String()); out != "" {
		t.Fatalf("expected no findings, got:\n%s", out)
	}
}

// TestAnalyzersFlagUnknownName guards the validation path: a misspelled
// analyzer name is a usage error, not a silently empty run.
func TestAnalyzersFlagUnknownName(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-analyzers", "goleak,nope", "./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("expected exit 2 for unknown analyzer, got %d", code)
	}
	if !strings.Contains(stderr.String(), `unknown analyzer "nope" (use -list)`) {
		t.Fatalf("stderr missing diagnostic: %s", stderr.String())
	}
}

// TestAnalyzersFlagSkipsSuppressAudit pins the audit gating on the new
// selector: the repo carries lint:ignore directives for analyzers outside
// this subset (e.g. the goleak directive in internal/serve), which would be
// reported stale if the audit ran against a partial suite.
func TestAnalyzersFlagSkipsSuppressAudit(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-analyzers", "floateq", "./..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if out := strings.TrimSpace(stdout.String()); out != "" {
		t.Fatalf("subset run must not audit directives, got:\n%s", out)
	}
}

// TestBadFormatRejected guards the usage error path.
func TestBadFormatRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-format", "xml", "./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("expected exit 2 for unknown format, got %d", code)
	}
	if !strings.Contains(stderr.String(), "unknown format") {
		t.Fatalf("stderr missing diagnostic: %s", stderr.String())
	}
}
