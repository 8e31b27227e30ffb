// Perf-regression harness: a fixed set of micro-benchmarks over the paths
// this repo optimizes — the allocation-free ARD solve, the GEMM kernel,
// and a cold whole-repo blocktri-lint run — with committed JSON baselines
// and a compare mode for CI.
//
//	blocktri-bench -perf baseline   # (re)write BENCH_*.json in -perf-dir
//	blocktri-bench -perf compare    # re-measure, fail on >15% regression
//
// Each measurement is the best of three testing.Benchmark runs (the min
// damps scheduler and turbo noise, which is ±8% on the reference machine;
// the 15% gate then only trips on real regressions). Allocation counts are
// exact and gate at zero tolerance on the solver suites: the arenas either
// work or they don't. The lint suite gates time only — a whole-module
// type-check allocates by design.
package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"blocktri"
	"blocktri/internal/analysis"
	"blocktri/internal/mat"
	"blocktri/internal/workload"
)

const (
	perfSchema = "blocktri-bench/v1"
	// perfRegressionTol is the relative ns/op slowdown that fails compare
	// mode.
	perfRegressionTol = 0.15
)

// perfEntry is one benchmark's recorded result.
type perfEntry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	GFlops      float64 `json:"gflops,omitempty"`
	// BudgetNs, when nonzero, is an absolute ns/op ceiling gated in compare
	// mode on top of the relative regression tolerance, independent of
	// whatever the baseline machine measured.
	BudgetNs float64 `json:"budget_ns,omitempty"`
	// Tol, when nonzero, overrides perfRegressionTol for this entry. Tail
	// latency percentiles carry run-to-run noise a mean never sees, so the
	// serve p99 entry uses a wide relative tolerance and leans on BudgetNs
	// for the hard ceiling.
	Tol float64 `json:"tol,omitempty"`
}

// perfSuite is the on-disk format of a BENCH_*.json file.
type perfSuite struct {
	Schema  string      `json:"schema"`
	Suite   string      `json:"suite"`
	Entries []perfEntry `json:"entries"`
}

// bestOf3 runs f under testing.Benchmark three times and returns the run
// with the lowest ns/op.
func bestOf3(f func(b *testing.B)) testing.BenchmarkResult {
	best := testing.Benchmark(f)
	for i := 0; i < 2; i++ {
		r := testing.Benchmark(f)
		if r.NsPerOp() < best.NsPerOp() {
			best = r
		}
	}
	return best
}

// measureARDSolve benchmarks the factored ARD solve at the paper's headline
// configuration (N=512, M=16, P=8) for single, narrow (R=4, below one
// 8-column panel) and batched right-hand sides, and the factor phase itself
// at that configuration and at the service's fresh-matrix shape (N=128,
// M=8, P=2). GFLOP/s uses the solver's analytic count of the flops it
// performs.
func measureARDSolve() ([]perfEntry, error) {
	a := workload.Build(workload.Oscillatory, 512, 16, 1)
	ard := blocktri.NewARD(a, blocktri.Config{World: blocktri.NewWorld(8)})
	if err := ard.Factor(); err != nil {
		return nil, fmt.Errorf("ARD factor: %v", err)
	}
	var entries []perfEntry
	for _, r := range []int{1, 4, 64, 256} {
		rhs := a.RandomRHS(r, rand.New(rand.NewSource(2)))
		x := blocktri.NewDenseMatrix(rhs.Rows, rhs.Cols)
		if err := ard.SolveTo(x, rhs); err != nil { // warm the arenas
			return nil, fmt.Errorf("ARD solve R=%d: %v", r, err)
		}
		res := bestOf3(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := ard.SolveTo(x, rhs); err != nil {
					b.Fatal(err)
				}
			}
		})
		flops := float64(ard.Stats().Flops)
		entries = append(entries, perfEntry{
			Name:        fmt.Sprintf("ARDSolve/R=%d", r),
			NsPerOp:     float64(res.NsPerOp()),
			AllocsPerOp: res.AllocsPerOp(),
			GFlops:      flops / float64(res.NsPerOp()),
		})
	}
	for _, c := range []struct{ n, m, p int }{{512, 16, 8}, {128, 8, 2}} {
		fa := workload.Build(workload.Oscillatory, c.n, c.m, 1)
		world := blocktri.NewWorld(c.p)
		var flops int64
		var failed error
		res := bestOf3(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := blocktri.NewARD(fa, blocktri.Config{World: world})
				if err := s.Factor(); err != nil {
					failed = err
					b.FailNow()
				}
				flops = s.FactorStats().Flops
			}
		})
		if failed != nil {
			return nil, fmt.Errorf("ARD factor N=%d M=%d P=%d: %v", c.n, c.m, c.p, failed)
		}
		entries = append(entries, perfEntry{
			Name:        fmt.Sprintf("ARDFactor/N=%d,M=%d,P=%d", c.n, c.m, c.p),
			NsPerOp:     float64(res.NsPerOp()),
			AllocsPerOp: res.AllocsPerOp(),
			GFlops:      float64(flops) / float64(res.NsPerOp()),
		})
	}
	return entries, nil
}

// measureGEMM benchmarks Mul across the kernel dispatch tiers: square
// shapes (16 to 128), the skinny-panel shapes the panelized ARD solve
// phase issues — a 32x32 transfer half against a 32xR right-hand-side
// panel — and the unpacked narrow tier below one 8-column panel, where
// the product reads A and B in place (RD's per-solve elements take it):
// 16x32 against one and four columns. Then the packed width-1 tier every
// one-column ARD element step takes: MulAddPacked of a prepacked 16x32
// operand, [TL TR]'s shape at M=16, by one column.
func measureGEMM() ([]perfEntry, error) {
	var entries []perfEntry
	shapes := []struct {
		m, k, n int
		name    string
	}{
		{16, 16, 16, "GEMM/n=16"},
		{32, 32, 32, "GEMM/n=32"},
		{64, 64, 64, "GEMM/n=64"},
		{128, 128, 128, "GEMM/n=128"},
		{32, 32, 64, "GEMM/m=32,k=32,n=64"},
		{32, 32, 256, "GEMM/m=32,k=32,n=256"},
		{16, 32, 1, "GEMM/m=16,k=32,n=1"},
		{16, 32, 4, "GEMM/m=16,k=32,n=4"},
	}
	for _, sh := range shapes {
		a := mat.New(sh.m, sh.k)
		bm := mat.New(sh.k, sh.n)
		dst := mat.New(sh.m, sh.n)
		rng := rand.New(rand.NewSource(int64(sh.m + sh.k + sh.n)))
		for i := 0; i < sh.m; i++ {
			for j := 0; j < sh.k; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
		}
		for i := 0; i < sh.k; i++ {
			for j := 0; j < sh.n; j++ {
				bm.Set(i, j, rng.NormFloat64())
			}
		}
		mat.Mul(dst, a, bm) // warm the pack pool
		res := bestOf3(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mat.Mul(dst, a, bm)
			}
		})
		flops := 2 * float64(sh.m) * float64(sh.k) * float64(sh.n)
		entries = append(entries, perfEntry{
			Name:        sh.name,
			NsPerOp:     float64(res.NsPerOp()),
			AllocsPerOp: res.AllocsPerOp(),
			GFlops:      flops / float64(res.NsPerOp()),
		})
	}

	rng := rand.New(rand.NewSource(49))
	pa := mat.NewPackedA(1, mat.Random(16, 32, rng))
	col, dst := mat.Random(32, 1, rng), mat.New(16, 1)
	res := bestOf3(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mat.MulAddPacked(dst, pa, col, nil)
		}
	})
	entries = append(entries, perfEntry{
		Name:        "MulAddPacked/m=16,k=32,n=1",
		NsPerOp:     float64(res.NsPerOp()),
		AllocsPerOp: res.AllocsPerOp(),
		GFlops:      2 * 16 * 32 / float64(res.NsPerOp()),
	})
	return entries, nil
}

// measureLint benchmarks a cold whole-repo lint run — module load,
// type-check, suppression collection, and every toolchain-free analyzer
// with the interprocedural summary layer on — as Lint/interprocedural. One
// iteration is around a second, so each bestOf3 round runs the suite once.
// The compiler-backed analyzers are excluded there: they would fold a
// multi-second `go build` into every iteration and drown the signal; that
// toolchain call is measured on its own as Lint/compilerfacts.
func measureLint() ([]perfEntry, error) {
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		return nil, fmt.Errorf("lint: %v", err)
	}
	var coldAnalyzers []*analysis.Analyzer
	for _, a := range analysis.Analyzers() {
		if !a.NeedsBuild {
			coldAnalyzers = append(coldAnalyzers, a)
		}
	}
	var failed error
	res := bestOf3(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := analysis.LoadModule(root)
			if err != nil {
				failed = err
				b.FailNow()
			}
			sup := analysis.CollectSuppressions(m)
			for _, a := range coldAnalyzers {
				if kept := analysis.FilterSuppressed(a.Run(m), sup); len(kept) > 0 {
					failed = fmt.Errorf("repo not lint-clean: %s", kept[0])
					b.FailNow()
				}
			}
		}
	})
	if failed != nil {
		return nil, fmt.Errorf("lint Lint/interprocedural: %v", failed)
	}
	entries := []perfEntry{{
		Name:        "Lint/interprocedural",
		NsPerOp:     float64(res.NsPerOp()),
		AllocsPerOp: res.AllocsPerOp(),
	}}

	// One compiler-facts computation takes seconds, so each bestOf3 round
	// is a single toolchain invocation over the module. It is dominated by
	// the Go toolchain, so it carries its own absolute budget and a wide
	// relative tolerance instead of the default 15% gate.
	res = bestOf3(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := analysis.ComputeCompilerFacts(root); err != nil {
				failed = err
				b.FailNow()
			}
		}
	})
	if failed != nil {
		return nil, fmt.Errorf("lint Lint/compilerfacts: %v", failed)
	}
	return append(entries, perfEntry{
		Name:        "Lint/compilerfacts",
		NsPerOp:     float64(res.NsPerOp()),
		AllocsPerOp: res.AllocsPerOp(),
		BudgetNs:    lintFactsBudgetNs,
		Tol:         2.0,
	}), nil
}

// lintFactsBudgetNs is the absolute ceiling for one compiler-facts
// computation: 60s. The measurement is almost entirely `go build` with the
// noisy escape/inline diagnostics on (seconds, most of it replayed from the
// go build cache), so the budget is a runaway guard, not a perf target.
const lintFactsBudgetNs = 60e9

// perfSuites lists the measured suites and their baseline files. gateAllocs
// applies the zero-tolerance allocs/op gate; the solver suites use it to
// pin the arena discipline, while the lint suite is time-gated only.
var perfSuites = []struct {
	suite      string
	file       string
	measure    func() ([]perfEntry, error)
	gateAllocs bool
}{
	{"ard_solve", "BENCH_ard_solve.json", measureARDSolve, true},
	{"gemm", "BENCH_gemm.json", measureGEMM, true},
	{"lint", "BENCH_lint.json", measureLint, false},
	{"serve", "BENCH_serve.json", measureServe, false},
}

// runPerf executes the harness in the given mode ("baseline" or "compare")
// and returns a process exit code. suites, when non-empty, is a
// comma-separated subset of suite names to run; unknown names are an error
// so a typo cannot silently skip a gate.
func runPerf(mode, dir, suites string) int {
	switch mode {
	case "baseline", "compare":
	default:
		fmt.Fprintf(os.Stderr, "blocktri-bench: unknown -perf mode %q (want baseline or compare)\n", mode)
		return 2
	}

	selected := perfSuites
	if suites != "" {
		known := make(map[string]bool, len(perfSuites))
		for _, s := range perfSuites {
			known[s.suite] = true
		}
		want := make(map[string]bool)
		for _, name := range strings.Split(suites, ",") {
			name = strings.TrimSpace(name)
			if !known[name] {
				fmt.Fprintf(os.Stderr, "blocktri-bench: unknown -perf-suite %q\n", name)
				return 2
			}
			want[name] = true
		}
		selected = nil
		for _, s := range perfSuites {
			if want[s.suite] {
				selected = append(selected, s)
			}
		}
	}

	failed := false
	for _, s := range selected {
		entries, err := s.measure()
		if err != nil {
			fmt.Fprintf(os.Stderr, "blocktri-bench: perf %s: %v\n", s.suite, err)
			return 1
		}
		path := filepath.Join(dir, s.file)
		if mode == "baseline" {
			out := perfSuite{Schema: perfSchema, Suite: s.suite, Entries: entries}
			data, err := json.MarshalIndent(out, "", "  ")
			if err != nil {
				fmt.Fprintf(os.Stderr, "blocktri-bench: perf %s: %v\n", s.suite, err)
				return 1
			}
			if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "blocktri-bench: perf %s: %v\n", s.suite, err)
				return 1
			}
			fmt.Printf("wrote %s (%d entries)\n", path, len(entries))
			for _, e := range entries {
				fmt.Printf("  %-16s %12.0f ns/op %6d allocs/op %8.3f GFLOP/s\n",
					e.Name, e.NsPerOp, e.AllocsPerOp, e.GFlops)
			}
			continue
		}
		base, err := loadPerfSuite(path, s.suite)
		if err != nil {
			fmt.Fprintf(os.Stderr, "blocktri-bench: perf %s: %v (run -perf baseline first)\n", s.suite, err)
			return 1
		}
		if bad := comparePerf(base, entries, s.gateAllocs); len(bad) > 0 {
			// One retry before declaring a regression: a loaded CI machine
			// can push a short benchmark past the gate on scheduling noise
			// alone. Entries are gated independently across the two rounds —
			// only an entry that regresses in BOTH fails, so one entry
			// flapping on noise in either round cannot fail the suite while
			// a real regression, which fails every round, still does.
			fmt.Printf("  %s: gate failed (%s), re-measuring once\n",
				s.suite, strings.Join(bad, ", "))
			entries, err = s.measure()
			if err != nil {
				fmt.Fprintf(os.Stderr, "blocktri-bench: perf %s: %v\n", s.suite, err)
				return 1
			}
			bad2 := comparePerf(base, entries, s.gateAllocs)
			firstRound := make(map[string]bool, len(bad))
			for _, name := range bad {
				firstRound[name] = true
			}
			for _, name := range bad2 {
				if firstRound[name] {
					failed = true
				}
			}
		}
	}
	if failed {
		fmt.Fprintln(os.Stderr, "blocktri-bench: perf compare FAILED")
		return 1
	}
	if mode == "compare" {
		fmt.Println("perf compare OK")
	}
	return 0
}

// loadPerfSuite reads and validates a baseline file.
func loadPerfSuite(path, suite string) (perfSuite, error) {
	var s perfSuite
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %v", path, err)
	}
	if s.Schema != perfSchema {
		return s, fmt.Errorf("%s: schema %q, want %q", path, s.Schema, perfSchema)
	}
	if s.Suite != suite {
		return s, fmt.Errorf("%s: suite %q, want %q", path, s.Suite, suite)
	}
	return s, nil
}

// comparePerf gates current entries against the baseline: ns/op may not
// regress by more than the entry's tolerance (perfRegressionTol unless the
// baseline entry overrides it), and — when gateAllocs is set — allocs/op
// may not increase at all. It returns the names of the entries that failed;
// entries missing from the baseline are reported informationally.
func comparePerf(base perfSuite, cur []perfEntry, gateAllocs bool) []string {
	byName := make(map[string]perfEntry, len(base.Entries))
	for _, e := range base.Entries {
		byName[e.Name] = e
	}
	var bad []string
	for _, e := range cur {
		b, found := byName[e.Name]
		if !found {
			fmt.Printf("  %-16s %12.0f ns/op (no baseline)\n", e.Name, e.NsPerOp)
			continue
		}
		ratio := e.NsPerOp / b.NsPerOp
		// The tolerance lives in the committed baseline entry so the gate's
		// width is reviewed like any other numeric change.
		tol := perfRegressionTol
		if b.Tol > 0 {
			tol = b.Tol
		}
		status := "ok"
		if ratio > 1+tol {
			status = fmt.Sprintf("REGRESSION (+%.0f%% > %.0f%%)", 100*(ratio-1), 100*tol)
		}
		if gateAllocs && e.AllocsPerOp > b.AllocsPerOp {
			status = fmt.Sprintf("ALLOC REGRESSION (%d > %d)", e.AllocsPerOp, b.AllocsPerOp)
		}
		// The absolute ceiling is in the committed baseline, so a noisy
		// re-baseline cannot quietly relax it.
		if b.BudgetNs > 0 && e.NsPerOp > b.BudgetNs {
			status = fmt.Sprintf("BUDGET EXCEEDED (%.1fms > %.0fms)", e.NsPerOp/1e6, b.BudgetNs/1e6)
		}
		if status != "ok" {
			bad = append(bad, e.Name)
		}
		fmt.Printf("  %-16s %12.0f ns/op (base %12.0f, %+5.1f%%) %6d allocs  %s\n",
			e.Name, e.NsPerOp, b.NsPerOp, 100*(ratio-1), e.AllocsPerOp, status)
	}
	return bad
}
