// Command blocktri-lint runs the module's domain static-analysis suite
// (internal/analysis). The syntactic analyzers — matalias, commlock,
// commtag, floateq, panicpolicy, hotalloc — are joined by flow-sensitive
// ones built on the dataflow engine: wsescape (arena-lifetime), poolrelease
// (pooled-buffer leaks), errdiscard (dropped error results), commshape
// (SPMD send/recv pairing) and blockshape (symbolic block-dimension
// conformance of mat call sites), plus the concurrency-safety trio: goleak
// (goroutines with no termination tie), lockorder (lock-order cycles and
// blocking while locked) and ctxflow (context forwarding and cancel
// obligations), plus the performance-contract layer: perfescape, perfbce
// and perfinline check //perf: annotations against the compiler's own
// escape/BCE/inlining evidence (one go build -gcflags='-m=2
// -d=ssa/check_bce' per module, cached), and asmcheck verifies the
// hand-written AVX-512 kernels against their Go declarations without any
// build. The flow-sensitive analyzers consult interprocedural
// function summaries computed bottom-up over a per-package call graph;
// -interprocedural=false turns the layer off. Lint:ignore directives are
// themselves audited (the "suppress" pseudo-analyzer) when the full suite
// runs.
//
// Runs are incremental by default: per-package findings, directives and
// function summaries persist in a content-addressed cache
// (<module>/.blocktri-lint-cache, see -cache-dir / -no-cache), and only
// packages whose cache key changed — their own files, a dependency, the
// toolchain or the analyzer configuration — are re-parsed, re-type-checked
// and re-analyzed. A fully warm run replays findings byte-identically
// without type-checking anything. -watch keeps the process alive, polls the
// tree for changes, re-lints incrementally and prints only the delta.
//
// Findings are reported as
//
//	file:line: [analyzer] message
//
// (or as JSON / SARIF 2.1.0 via -format, which accepts a comma-separated
// list; -sarif-out redirects the SARIF stream to a file so one invocation
// can gate on text and archive SARIF). The tool exits nonzero if any
// finding survives suppression ("//lint:ignore <analyzer> reason" on or
// above the offending line).
//
// Usage:
//
//	blocktri-lint ./...             # lint the whole module (the default)
//	blocktri-lint -floateq=false ./...
//	blocktri-lint -analyzers goleak,lockorder,ctxflow ./...
//	blocktri-lint -interprocedural=false ./...
//	blocktri-lint -format json -stats ./...
//	blocktri-lint -format text,sarif -sarif-out reports/lint.sarif ./...
//	blocktri-lint -no-cache ./...   # force a cold run, persist nothing
//	blocktri-lint -watch ./...
//	blocktri-lint -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"blocktri/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// watchHooks lets tests drive the -watch loop deterministically: stop ends
// the loop (as an interrupt would), and iterated reports each completed poll
// cycle. Both are nil outside tests.
type watchHooks struct {
	stop     chan struct{}
	iterated chan struct{}
}

var testWatch *watchHooks

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("blocktri-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)

	analyzers := analysis.Analyzers()
	enabled := make(map[string]*bool, len(analyzers))
	for _, a := range analyzers {
		enabled[a.Name] = fs.Bool(a.Name, true, "enable the "+a.Name+" analyzer ("+a.Doc+")")
	}
	subset := fs.String("analyzers", "", "comma-separated subset of analyzers to run, e.g. -analyzers goleak,lockorder,ctxflow (overrides the per-analyzer flags)")
	list := fs.Bool("list", false, "list analyzers and exit")
	format := fs.String("format", "text", "comma-separated output formats: text, json, sarif")
	sarifOut := fs.String("sarif-out", "", "write the SARIF report to this file instead of stdout (required when sarif is combined with another format)")
	verbose := fs.Bool("v", false, "also report how many findings were suppressed")
	interp := fs.Bool("interprocedural", true, "consult function summaries (call graph + interprocedural facts); -interprocedural=false reverts every analyzer to its intraprocedural behavior")
	stats := fs.Bool("stats", false, "print per-analyzer timing, persistent-cache and summary statistics to stderr after the run")
	checkSup := fs.Bool("suppress", true, "audit lint:ignore directives for typos and staleness (full-suite runs only)")
	cacheDir := fs.String("cache-dir", "", "persistent cache directory (default <module>/.blocktri-lint-cache)")
	noCache := fs.Bool("no-cache", false, "disable the persistent cache: analyze everything, persist nothing")
	watch := fs.Bool("watch", false, "keep running: poll the module for changes, re-lint incrementally, print finding deltas (compiler-backed analyzers are skipped; see -watch-full)")
	watchFull := fs.Bool("watch-full", false, "with -watch, also run the compiler-backed analyzers (perfescape, perfbce, perfinline); each changed-tree poll may then invoke the Go toolchain")
	watchInterval := fs.Duration("watch-interval", 500*time.Millisecond, "polling interval for -watch")
	if err := fs.Parse(args); err != nil {
		return 2
	}

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
	if *watch && (formats["json"] || formats["sarif"]) {
		fmt.Fprintln(stderr, "blocktri-lint: -watch supports only -format text")
		return 2
	}
	if *watchFull && !*watch {
		fmt.Fprintln(stderr, "blocktri-lint: -watch-full only modifies -watch")
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

	if *subset != "" {
		selected := make(map[string]bool)
		for _, name := range strings.Split(*subset, ",") {
			name = strings.TrimSpace(name)
			if _, ok := enabled[name]; !ok {
				fmt.Fprintf(stderr, "blocktri-lint: unknown analyzer %q (use -list)\n", name)
				return 2
			}
			selected[name] = true
		}
		for name, on := range enabled {
			*on = selected[name]
		}
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

	var ran []*analysis.Analyzer
	known := make(map[string]bool, len(analyzers))
	allRan := true
	for _, a := range analyzers {
		if !*enabled[a.Name] {
			allRan = false
			continue
		}
		// Watch mode polls at sub-second intervals; analyzers that invoke
		// the toolchain (NeedsBuild) would turn every changed-tree poll into
		// a go build. They stay out of the loop unless -watch-full opts in.
		if *watch && !*watchFull && a.NeedsBuild {
			allRan = false
			continue
		}
		ran = append(ran, a)
		known[a.Name] = true
	}

	opts := analysis.RunOptions{Analyzers: ran, NoInterp: !*interp}
	if !*noCache {
		opts.CacheDir = *cacheDir
		if opts.CacheDir == "" {
			opts.CacheDir = analysis.DefaultCacheDir(root)
		}
	}
	audit := *checkSup && allRan

	if *watch {
		return runWatch(root, cwd, opts, known, audit, *watchInterval, stdout, stderr)
	}

	findings, res, suppressed, err := lintOnce(root, opts, known, audit)
	if err != nil {
		fmt.Fprintf(stderr, "blocktri-lint: %v\n", err)
		return 2
	}

	if formats["json"] {
		report := analysis.JSONInterp{Enabled: !opts.NoInterp, Summaries: res.Summary}
		if err := analysis.WriteJSON(stdout, findings, cwd, report); err != nil {
			fmt.Fprintf(stderr, "blocktri-lint: %v\n", err)
			return 2
		}
	}
	if formats["sarif"] {
		w := stdout
		var f *os.File
		if *sarifOut != "" {
			if err := os.MkdirAll(filepath.Dir(*sarifOut), 0o755); err != nil {
				fmt.Fprintf(stderr, "blocktri-lint: %v\n", err)
				return 2
			}
			f, err = os.Create(*sarifOut)
			if err != nil {
				fmt.Fprintf(stderr, "blocktri-lint: %v\n", err)
				return 2
			}
			w = f
		}
		err := analysis.WriteSARIF(w, ran, findings, cwd)
		if f != nil {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
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
	if *stats {
		printStats(stderr, res)
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
		case "text", "json", "sarif":
			out[f] = true
		default:
			return nil, fmt.Errorf("unknown format %q (use text, json or sarif)", f)
		}
	}
	return out, nil
}

// lintOnce runs one incremental lint and applies suppression filtering and
// the directive audit. It returns the surviving findings (sorted), the run
// result, and how many findings suppression dropped.
func lintOnce(root string, opts analysis.RunOptions, known map[string]bool, audit bool) ([]analysis.Finding, *analysis.RunResult, int, error) {
	res, err := analysis.RunLint(root, opts)
	if err != nil {
		return nil, nil, 0, err
	}
	findings := analysis.FilterSuppressed(res.Raw, res.Sup)
	suppressed := len(res.Raw) - len(findings)
	// The directive audit is only sound when every analyzer ran: a directive
	// for a disabled analyzer is not stale, just untested this run.
	if audit {
		findings = append(findings, res.Sup.Unused(known)...)
	}
	analysis.SortFindings(findings)
	return findings, res, suppressed, nil
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

// printStats reports per-analyzer wall time, what the persistent cache did,
// and both the structural and runtime summary counters.
func printStats(stderr io.Writer, res *analysis.RunResult) {
	for _, t := range res.Timings {
		fmt.Fprintf(stderr, "blocktri-lint: %-12s %10.1fms\n", t.Name, float64(t.Duration.Microseconds())/1000)
	}
	c := res.Cache
	switch {
	case c.Degraded != "":
		fmt.Fprintf(stderr, "blocktri-lint: cache: degraded (%s); %d package(s) analyzed cold\n", c.Degraded, c.Packages)
	case !c.Enabled:
		fmt.Fprintf(stderr, "blocktri-lint: cache: disabled; %d package(s) analyzed cold\n", c.Packages)
	default:
		fmt.Fprintf(stderr, "blocktri-lint: cache: %s: %d package(s), %d hit(s), %d miss(es), %d evicted, %d write error(s)\n",
			c.Dir, c.Packages, c.Hits, c.Misses, c.Evicted, c.WriteErrors)
	}
	if c.FactsHits+c.FactsMisses > 0 {
		fmt.Fprintf(stderr, "blocktri-lint: compiler facts: %d cache hit(s), %d toolchain run(s)\n", c.FactsHits, c.FactsMisses)
	}
	s := res.Summary
	fmt.Fprintf(stderr, "blocktri-lint: summaries: %d function(s), %d call edge(s), %d SCC(s) (largest %d), %d fixpoint iteration(s) across %d package(s)\n",
		s.Functions, s.CallEdges, s.SCCs, s.LargestSCC, s.FixpointIterations, s.Packages)
	rt := res.Runtime
	hitRate := 0.0
	if rt.Requests > 0 {
		hitRate = 100 * float64(rt.InProcessHits+rt.PersistentHits) / float64(rt.Requests)
	}
	fmt.Fprintf(stderr, "blocktri-lint: summary lookups: %d request(s), %d in-process hit(s), %d persistent hit(s) (%.1f%% hit rate); %d package(s) computed, %d loaded from cache\n",
		rt.Requests, rt.InProcessHits, rt.PersistentHits, hitRate, rt.PackagesComputed, rt.PackagesLoaded)
}

// runWatch polls the module with analysis.WatchSignature and re-lints
// incrementally whenever the tree changes, printing only the finding delta.
// It runs until interrupted (or, in tests, until testWatch.stop closes) and
// always exits 0: watch mode is an interactive feedback loop, not a gate.
func runWatch(root, cwd string, opts analysis.RunOptions, known map[string]bool, audit bool, interval time.Duration, stdout, stderr io.Writer) int {
	lint := func() (map[string]bool, int, bool) {
		findings, _, _, err := lintOnce(root, opts, known, audit)
		if err != nil {
			fmt.Fprintf(stderr, "blocktri-lint: %v\n", err)
			return nil, 0, false
		}
		set := make(map[string]bool, len(findings))
		for _, f := range findings {
			set[renderFinding(cwd, f)] = true
		}
		return set, len(findings), true
	}

	// Initial full run: print every finding, then watch for deltas.
	prev, n, ok := lint()
	if ok {
		for _, f := range sortedKeys(prev) {
			fmt.Fprintln(stdout, f)
		}
		fmt.Fprintf(stderr, "blocktri-lint: watching %s (%d finding(s), poll %v)\n", root, n, interval)
	} else {
		prev = map[string]bool{}
		fmt.Fprintf(stderr, "blocktri-lint: watching %s (last lint failed, poll %v)\n", root, interval)
	}
	sig, err := analysis.WatchSignature(root)
	if err != nil {
		fmt.Fprintf(stderr, "blocktri-lint: %v\n", err)
		return 2
	}

	interrupt := make(chan os.Signal, 1)
	signal.Notify(interrupt, os.Interrupt)
	defer signal.Stop(interrupt)
	var stop <-chan struct{}
	if testWatch != nil {
		stop = testWatch.stop
	}

	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-interrupt:
			fmt.Fprintln(stderr, "blocktri-lint: watch stopped")
			return 0
		case <-stop:
			fmt.Fprintln(stderr, "blocktri-lint: watch stopped")
			return 0
		case <-ticker.C:
		}
		next, err := analysis.WatchSignature(root)
		if err != nil || next == sig {
			notifyIterated()
			continue
		}
		sig = next
		cur, n, ok := lint()
		if !ok {
			// Transient error (e.g. a half-saved file that does not parse):
			// keep prev so the eventual good run reports the right delta.
			notifyIterated()
			continue
		}
		added, removed := 0, 0
		for _, f := range sortedKeys(cur) {
			if !prev[f] {
				fmt.Fprintln(stdout, "+ "+f)
				added++
			}
		}
		for _, f := range sortedKeys(prev) {
			if !cur[f] {
				fmt.Fprintln(stdout, "- "+f)
				removed++
			}
		}
		fmt.Fprintf(stderr, "blocktri-lint: re-linted: %d finding(s) (+%d -%d)\n", n, added, removed)
		prev = cur
		notifyIterated()
	}
}

func notifyIterated() {
	if testWatch != nil && testWatch.iterated != nil {
		select {
		case testWatch.iterated <- struct{}{}:
		default:
		}
	}
}

// sortedKeys renders a finding set in lexical order; findings render as
// file:line:..., so the sort groups deltas by file.
func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
