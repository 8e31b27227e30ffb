// Command blocktri-lint runs the module's domain static-analysis suite
// (internal/analysis). The syntactic analyzers — matalias, commtag,
// floateq, panicpolicy — are joined by flow-sensitive ones built on the
// dataflow engine: wsescape (arena-lifetime), poolrelease (pooled-buffer
// leaks) and errdiscard (dropped error results), plus the
// concurrency-safety trio: goleak (goroutines with no termination tie),
// lockorder (lock-order cycles and blocking, comm operations included,
// while locked) and ctxflow (context forwarding and cancel obligations),
// plus the performance-contract layer: perfescape, perfbce and perfinline
// check //perf: annotations against the compiler's own escape/BCE/inlining
// evidence (one go build -gcflags='-m=2 -d=ssa/check_bce' per run), and
// asmcheck verifies the hand-written AVX-512 kernels against their Go
// declarations without any build. The flow-sensitive analyzers consult
// interprocedural function summaries computed bottom-up over a per-package
// call graph. Lint:ignore directives are themselves audited (the "suppress"
// pseudo-analyzer) when the full suite runs.
//
// Every run is cold and stateless: it loads and type-checks the whole
// module, runs the selected analyzers, and writes nothing but its report.
//
// Findings are reported as
//
//	file:line: [analyzer] message
//
// (or as SARIF 2.1.0 via -format, which accepts a comma-separated list;
// -sarif-out redirects the SARIF stream to a file so one invocation can
// gate on text and archive SARIF). The tool exits nonzero if any finding
// survives suppression ("//lint:ignore <analyzer> reason" on or above the
// offending line).
//
// Usage:
//
//	blocktri-lint ./...             # lint the whole module (the default)
//	blocktri-lint -analyzers goleak,lockorder,ctxflow ./...
//	blocktri-lint -format text,sarif -sarif-out reports/lint.sarif ./...
//	blocktri-lint -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"blocktri/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("blocktri-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	subset := fs.String("analyzers", "", "comma-separated subset of analyzers to run, e.g. -analyzers goleak,lockorder,ctxflow (default: all)")
	list := fs.Bool("list", false, "list analyzers and exit")
	format := fs.String("format", "text", "comma-separated output formats: text, sarif")
	sarifOut := fs.String("sarif-out", "", "write the SARIF report to this file instead of stdout (required when sarif is combined with another format)")
	verbose := fs.Bool("v", false, "also report how many findings were suppressed")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := analysis.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s [%s] %s\n", a.Name, a.Severity, a.Doc)
		}
		fmt.Fprintf(stdout, "%-12s [%s] %s\n", analysis.SuppressName, analysis.SeverityWarning,
			"audit lint:ignore directives for typos and staleness")
		return 0
	}

	formats, err := parseFormats(*format)
	if err != nil {
		fmt.Fprintf(stderr, "blocktri-lint: %v\n", err)
		return 2
	}
	if *sarifOut != "" && !formats["sarif"] {
		fmt.Fprintln(stderr, "blocktri-lint: -sarif-out requires sarif among the -format values")
		return 2
	}
	if formats["sarif"] && len(formats) > 1 && *sarifOut == "" {
		fmt.Fprintln(stderr, "blocktri-lint: combining sarif with another format requires -sarif-out (stdout can carry only one stream)")
		return 2
	}

	// The loader always analyzes the whole module containing the working
	// directory; "./..." is accepted for familiarity, anything narrower is
	// not supported.
	for _, arg := range fs.Args() {
		if arg != "./..." && arg != "." {
			fmt.Fprintf(stderr, "blocktri-lint: only module-wide runs are supported; got %q (use ./...)\n", arg)
			return 2
		}
	}

	ran, err := selectAnalyzers(analyzers, *subset)
	if err != nil {
		fmt.Fprintf(stderr, "blocktri-lint: %v\n", err)
		return 2
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "blocktri-lint: %v\n", err)
		return 2
	}
	root, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintf(stderr, "blocktri-lint: %v\n", err)
		return 2
	}
	m, err := analysis.LoadModule(root)
	if err != nil {
		fmt.Fprintf(stderr, "blocktri-lint: %v\n", err)
		return 2
	}

	sup := analysis.CollectSuppressions(m)
	var raw []analysis.Finding
	for _, a := range ran {
		raw = append(raw, a.Run(m)...)
	}
	findings := analysis.FilterSuppressed(raw, sup)
	suppressed := len(raw) - len(findings)
	// The directive audit is only sound when every analyzer ran: a directive
	// for an analyzer left out of the run is not stale, just untested.
	if len(ran) == len(analyzers) {
		known := make(map[string]bool, len(ran))
		for _, a := range ran {
			known[a.Name] = true
		}
		findings = append(findings, sup.Unused(known)...)
	}
	analysis.SortFindings(findings)

	if formats["sarif"] {
		if err := writeSARIF(*sarifOut, stdout, ran, findings, cwd); err != nil {
			fmt.Fprintf(stderr, "blocktri-lint: %v\n", err)
			return 2
		}
	}
	if formats["text"] {
		for _, f := range findings {
			fmt.Fprintln(stdout, renderFinding(cwd, f))
		}
	}

	if *verbose && suppressed > 0 {
		fmt.Fprintf(stderr, "blocktri-lint: %d finding(s) suppressed by lint:ignore directives\n", suppressed)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "blocktri-lint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// parseFormats validates and dedups the -format list.
func parseFormats(s string) (map[string]bool, error) {
	out := make(map[string]bool)
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		switch f {
		case "text", "sarif":
			out[f] = true
		default:
			return nil, fmt.Errorf("unknown format %q (use text or sarif)", f)
		}
	}
	return out, nil
}

// selectAnalyzers resolves the -analyzers list against the suite, keeping
// suite order; an empty list selects every analyzer.
func selectAnalyzers(all []*analysis.Analyzer, subset string) ([]*analysis.Analyzer, error) {
	if subset == "" {
		return all, nil
	}
	known := make(map[string]bool, len(all))
	for _, a := range all {
		known[a.Name] = true
	}
	selected := make(map[string]bool)
	for _, name := range strings.Split(subset, ",") {
		name = strings.TrimSpace(name)
		if !known[name] {
			return nil, fmt.Errorf("unknown analyzer %q (use -list)", name)
		}
		selected[name] = true
	}
	var out []*analysis.Analyzer
	for _, a := range all {
		if selected[a.Name] {
			out = append(out, a)
		}
	}
	return out, nil
}

// writeSARIF renders the report to path, or to stdout when path is empty.
func writeSARIF(path string, stdout io.Writer, ran []*analysis.Analyzer, findings []analysis.Finding, base string) error {
	if path == "" {
		return analysis.WriteSARIF(stdout, ran, findings, base)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = analysis.WriteSARIF(f, ran, findings, base)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// renderFinding is the canonical text line, with the path shortened
// relative to base when possible.
func renderFinding(base string, f analysis.Finding) string {
	name := f.Pos.Filename
	if rel, err := filepath.Rel(base, name); err == nil && !strings.HasPrefix(rel, "..") {
		name = rel
	}
	return fmt.Sprintf("%s:%d: [%s] %s", name, f.Pos.Line, f.Analyzer, f.Message)
}
