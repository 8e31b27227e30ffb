package analysis

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// Persistent-cache tests: incremental invalidation on a synthetic fixture
// module (edit one file, only its reverse closure re-analyzes, findings stay
// byte-identical), corruption robustness (any damaged entry is a silent cold
// rebuild), schema bumps, eviction, and the persistent summary path against
// the real repository.

// fixtureModuleFiles is a four-package module with a linear dependency chain
// a <- b <- c plus an independent package d. Packages a and d each carry one
// exact float comparison, so floateq produces a deterministic finding set
// spanning both a chain member and an independent package.
var fixtureModuleFiles = map[string]string{
	"go.mod": "module fixturemod\n\ngo 1.22\n",
	"a/a.go": `package a

// Eq compares exactly on purpose: floateq must flag it.
func Eq(p, q float64) bool { return p == q }

// Leaf is the bottom of the dependency chain.
func Leaf(x int) int { return 2 * x }
`,
	"b/b.go": `package b

import "fixturemod/a"

// Mid forwards through the chain.
func Mid(x int) int { return a.Leaf(x) + 1 }
`,
	"c/c.go": `package c

import "fixturemod/b"

// Top is the top of the chain.
func Top(x int) int { return b.Mid(x) }
`,
	"d/d.go": `package d

// Near compares exactly too; independent of the a<-b<-c chain.
func Near(p, q float64) bool { return p == q }
`,
}

func writeFixtureModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func fixtureRunOptions(cacheDir string) RunOptions {
	return RunOptions{Analyzers: Analyzers(), CacheDir: cacheDir}
}

func mustRunLint(t *testing.T, root string, opts RunOptions) *RunResult {
	t.Helper()
	res, err := RunLint(root, opts)
	if err != nil {
		t.Fatalf("RunLint: %v", err)
	}
	return res
}

// TestCacheIncrementalInvalidation is the core incremental gate: a cold run
// misses everywhere, a warm run hits everywhere with identical findings, and
// editing one file re-analyzes exactly that package plus its reverse
// dependencies while the findings stay identical to an uncached cold run.
func TestCacheIncrementalInvalidation(t *testing.T) {
	root := writeFixtureModule(t, fixtureModuleFiles)
	opts := fixtureRunOptions(DefaultCacheDir(root))

	cold := mustRunLint(t, root, opts)
	if cold.Cache.Packages != 4 || cold.Cache.Misses != 4 || cold.Cache.Hits != 0 {
		t.Fatalf("cold run counters: %+v", cold.Cache)
	}
	if len(cold.Raw) != 2 {
		t.Fatalf("expected 2 floateq findings, got %d: %v", len(cold.Raw), cold.Raw)
	}

	warm := mustRunLint(t, root, opts)
	if warm.Cache.Hits != 4 || warm.Cache.Misses != 0 {
		t.Fatalf("warm run counters: %+v", warm.Cache)
	}
	if !reflect.DeepEqual(warm.Raw, cold.Raw) {
		t.Fatalf("warm findings differ from cold:\ncold: %v\nwarm: %v", cold.Raw, warm.Raw)
	}
	if warm.Summary != cold.Summary {
		t.Fatalf("warm summary stats differ: cold %+v warm %+v", cold.Summary, warm.Summary)
	}
	// A fully warm run materializes nothing: no package was parsed or
	// type-checked, so nothing was computed or loaded.
	if warm.Runtime.PackagesComputed != 0 || warm.Runtime.PackagesLoaded != 0 {
		t.Fatalf("warm run did summary work: %+v", warm.Runtime)
	}

	// Edit one file in package b: b and its reverse dependency c must
	// re-analyze; a and d must hit.
	bFile := filepath.Join(root, "b", "b.go")
	src, err := os.ReadFile(bFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bFile, append(src, []byte("\n// touched\n")...), 0o644); err != nil {
		t.Fatal(err)
	}
	inc := mustRunLint(t, root, opts)
	if inc.Cache.Hits != 2 || inc.Cache.Misses != 2 {
		t.Fatalf("incremental counters after editing b: %+v (want 2 hits, 2 misses)", inc.Cache)
	}

	// Reference: the same tree analyzed with no cache at all.
	ref := mustRunLint(t, root, fixtureRunOptions(""))
	if ref.Cache.Enabled {
		t.Fatalf("uncached reference run had a cache: %+v", ref.Cache)
	}
	if !reflect.DeepEqual(inc.Raw, ref.Raw) {
		t.Fatalf("incremental findings differ from uncached cold:\ncold: %v\nincremental: %v", ref.Raw, inc.Raw)
	}
	if inc.Summary != ref.Summary {
		t.Fatalf("incremental summary stats differ: cold %+v incremental %+v", ref.Summary, inc.Summary)
	}
}

// TestCacheCorruptionFallsBackCold damages every entry in several distinct
// ways; each damaged cache must behave exactly like an empty one: no error,
// full re-analysis, identical findings.
func TestCacheCorruptionFallsBackCold(t *testing.T) {
	corruptions := []struct {
		name    string
		mangle  func(t *testing.T, path string)
		evicted bool // whether the sweep may remove the damaged file
	}{
		{"truncated", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}, false},
		{"garbage", func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte("\x00\xffnot json at all{"), 0o644); err != nil {
				t.Fatal(err)
			}
		}, false},
		{"empty", func(t *testing.T, path string) {
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}, false},
		{"stale-key", func(t *testing.T, path string) {
			rewriteEntryJSON(t, path, func(e map[string]any) { e["key"] = "0000deadbeef" })
		}, false},
		{"old-schema", func(t *testing.T, path string) {
			rewriteEntryJSON(t, path, func(e map[string]any) { e["schema"] = cacheSchemaVersion - 1 })
		}, false},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			root := writeFixtureModule(t, fixtureModuleFiles)
			opts := fixtureRunOptions(DefaultCacheDir(root))
			cold := mustRunLint(t, root, opts)

			entries, err := filepath.Glob(filepath.Join(opts.CacheDir, "*.json"))
			if err != nil || len(entries) != 4 {
				t.Fatalf("expected 4 cache entries, got %d (err %v)", len(entries), err)
			}
			for _, path := range entries {
				tc.mangle(t, path)
			}

			res := mustRunLint(t, root, opts)
			if res.Cache.Hits != 0 || res.Cache.Misses != 4 {
				t.Fatalf("damaged cache (%s) was not a full miss: %+v", tc.name, res.Cache)
			}
			if !reflect.DeepEqual(res.Raw, cold.Raw) {
				t.Fatalf("findings after %s corruption differ:\ncold: %v\nrebuilt: %v", tc.name, cold.Raw, res.Raw)
			}

			// The rebuild must have repaired the cache in place.
			again := mustRunLint(t, root, opts)
			if again.Cache.Hits != 4 {
				t.Fatalf("cache not repaired after %s corruption: %+v", tc.name, again.Cache)
			}
		})
	}
}

// rewriteEntryJSON decodes an entry file as generic JSON, applies mutate,
// and writes it back — producing well-formed JSON that must still miss.
func rewriteEntryJSON(t *testing.T, path string, mutate func(map[string]any)) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var e map[string]any
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	mutate(e)
	out, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCacheSchemaBumpInvalidatesAndSweeps pins the upgrade story: entries
// written under a different schema version never hit, and the sweep removes
// them (they can never become valid again).
func TestCacheSchemaBumpInvalidatesAndSweeps(t *testing.T) {
	root := writeFixtureModule(t, fixtureModuleFiles)
	opts := fixtureRunOptions(DefaultCacheDir(root))
	mustRunLint(t, root, opts)

	// Rewrite every entry as if an older binary had written it. The files
	// keep their current-config filenames, so on the next run they are
	// current-config non-hits — missed, then overwritten in place.
	entries, _ := filepath.Glob(filepath.Join(opts.CacheDir, "*.json"))
	for _, path := range entries {
		rewriteEntryJSON(t, path, func(e map[string]any) { e["schema"] = cacheSchemaVersion + 1 })
	}
	res := mustRunLint(t, root, opts)
	if res.Cache.Hits != 0 || res.Cache.Misses != 4 {
		t.Fatalf("schema-bumped entries hit: %+v", res.Cache)
	}

	// An old-schema entry under ANOTHER configuration's filename is dead
	// weight forever; the sweep must remove it.
	stray := filepath.Join(opts.CacheDir, "ffffffffffff-0000000000000000.json")
	if err := os.WriteFile(stray, []byte(`{"schema":0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	res = mustRunLint(t, root, opts)
	if res.Cache.Evicted == 0 {
		t.Fatalf("old-schema stray not evicted: %+v", res.Cache)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatalf("old-schema stray still present after sweep")
	}
}

// TestCacheEvictsDeletedPackages checks that removing a package from the
// module sweeps its now-orphaned entry.
func TestCacheEvictsDeletedPackages(t *testing.T) {
	root := writeFixtureModule(t, fixtureModuleFiles)
	opts := fixtureRunOptions(DefaultCacheDir(root))
	mustRunLint(t, root, opts)

	if err := os.RemoveAll(filepath.Join(root, "d")); err != nil {
		t.Fatal(err)
	}
	res := mustRunLint(t, root, opts)
	if res.Cache.Packages != 3 {
		t.Fatalf("expected 3 packages after deleting d, got %+v", res.Cache)
	}
	if res.Cache.Evicted != 1 {
		t.Fatalf("expected d's entry evicted, got %+v", res.Cache)
	}
	if len(res.Raw) != 1 {
		t.Fatalf("expected 1 finding after deleting d, got %v", res.Raw)
	}
}

// factsFixtureFiles is a one-package module whose //perf:hotpath annotation
// forces the compiler-fact provider to run: the boxing in Hot is a real
// heap escape, so perfescape must report exactly one raw finding and the
// persistent cache must carry the fact table between runs.
var factsFixtureFiles = map[string]string{
	"go.mod": "module factsmod\n\ngo 1.22\n",
	"hot/hot.go": `package hot

var sink any

// Hot boxes its argument on every call.
//perf:hotpath
func Hot(x float64) {
	sink = x
}
`,
}

// TestCacheFactsLifecycle pins the facts entry's whole lifecycle: computed
// once cold, untouched (not even requested) on a warm run, surviving the
// sweep, invalidated by a tree edit, and re-requested — served from disk —
// when a package entry alone is lost.
func TestCacheFactsLifecycle(t *testing.T) {
	root := writeFixtureModule(t, factsFixtureFiles)
	opts := fixtureRunOptions(DefaultCacheDir(root))

	cold := mustRunLint(t, root, opts)
	if cold.Cache.FactsMisses != 1 || cold.Cache.FactsHits != 0 {
		t.Fatalf("cold run facts counters: %+v (want exactly one toolchain run)", cold.Cache)
	}
	var escapes int
	for _, f := range cold.Raw {
		if f.Analyzer == "perfescape" {
			escapes++
		}
	}
	if escapes != 1 {
		t.Fatalf("expected 1 perfescape finding, got %d: %v", escapes, cold.Raw)
	}
	c, err := openCache(opts.CacheDir, runConfigHash(opts))
	if err != nil {
		t.Fatal(err)
	}
	factsPath := filepath.Join(opts.CacheDir, c.factsFileName())
	if _, err := os.Stat(factsPath); err != nil {
		t.Fatalf("facts entry not persisted: %v", err)
	}

	// Warm run: every package hits, so no analyzer sees a materialized
	// package and the facts are never even requested — and the sweep must
	// leave the entry in place for the next dirty run.
	warm := mustRunLint(t, root, opts)
	if warm.Cache.FactsHits != 0 || warm.Cache.FactsMisses != 0 {
		t.Fatalf("warm run requested facts: %+v", warm.Cache)
	}
	if warm.Cache.Evicted != 0 {
		t.Fatalf("warm sweep evicted files: %+v", warm.Cache)
	}
	if _, err := os.Stat(factsPath); err != nil {
		t.Fatalf("facts entry swept on a warm run: %v", err)
	}

	// Losing just the package entry (facts intact, tree unchanged) must
	// re-analyze the package with facts served from disk: a hit, no
	// toolchain run.
	if err := os.Remove(filepath.Join(opts.CacheDir, c.entryFileName("factsmod/hot"))); err != nil {
		t.Fatal(err)
	}
	replay := mustRunLint(t, root, opts)
	if replay.Cache.FactsHits != 1 || replay.Cache.FactsMisses != 0 {
		t.Fatalf("entry-only loss did not replay facts from disk: %+v", replay.Cache)
	}
	if !reflect.DeepEqual(replay.Raw, cold.Raw) {
		t.Fatalf("findings changed across the facts replay:\ncold: %v\nreplay: %v", cold.Raw, replay.Raw)
	}

	// Editing the tree invalidates the table (diagnostics may change with
	// any dependency), so the toolchain runs again.
	hotFile := filepath.Join(root, "hot", "hot.go")
	src, err := os.ReadFile(hotFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(hotFile, append(src, []byte("\n// touched\n")...), 0o644); err != nil {
		t.Fatal(err)
	}
	edited := mustRunLint(t, root, opts)
	if edited.Cache.FactsMisses != 1 || edited.Cache.FactsHits != 0 {
		t.Fatalf("tree edit did not invalidate the facts entry: %+v", edited.Cache)
	}
}

// TestCacheFactsSharedAcrossAnalyzerSets pins that the facts table is not
// keyed on the enabled analyzer set: a perfescape-only run seeds it, and a
// following full-suite run over the same cache directory replays it from
// disk instead of invoking the toolchain again.
func TestCacheFactsSharedAcrossAnalyzerSets(t *testing.T) {
	root := writeFixtureModule(t, factsFixtureFiles)
	dir := DefaultCacheDir(root)
	var only []*Analyzer
	for _, a := range Analyzers() {
		if a.Name == "perfescape" {
			only = append(only, a)
		}
	}
	seed := mustRunLint(t, root, RunOptions{Analyzers: only, CacheDir: dir})
	if seed.Cache.FactsMisses != 1 || seed.Cache.FactsHits != 0 {
		t.Fatalf("perfescape-only run facts counters: %+v (want one toolchain run)", seed.Cache)
	}
	full := mustRunLint(t, root, fixtureRunOptions(dir))
	if full.Cache.FactsHits != 1 || full.Cache.FactsMisses != 0 {
		t.Fatalf("full-suite run after a perfescape-only run: %+v (want the facts replayed from disk)", full.Cache)
	}
}

// TestCacheFactsRelativeVersionEviction mirrors the package-entry upgrade
// story for the facts table: an entry recorded under a different toolchain
// version, GOARCH or schema never hits (the toolchain reruns), and a facts
// file written under an older schema's prefixed name is swept as dead
// weight.
func TestCacheFactsRelativeVersionEviction(t *testing.T) {
	mutations := []struct {
		name   string
		mutate func(e map[string]any)
	}{
		{"go-version", func(e map[string]any) { e["go_version"] = "go0.0.1" }},
		{"goarch", func(e map[string]any) { e["goarch"] = "never64" }},
		{"schema", func(e map[string]any) { e["schema"] = cacheSchemaVersion - 1 }},
		{"flags", func(e map[string]any) { e["flags"] = "-m=1" }},
		{"tree-hash", func(e map[string]any) { e["tree_hash"] = "0000deadbeef" }},
	}
	for _, tc := range mutations {
		t.Run(tc.name, func(t *testing.T) {
			root := writeFixtureModule(t, factsFixtureFiles)
			opts := fixtureRunOptions(DefaultCacheDir(root))
			mustRunLint(t, root, opts)

			c, err := openCache(opts.CacheDir, runConfigHash(opts))
			if err != nil {
				t.Fatal(err)
			}
			rewriteEntryJSON(t, filepath.Join(opts.CacheDir, c.factsFileName()), tc.mutate)
			// Force the hot package dirty so the facts are requested again;
			// the mutated entry must be rejected and recomputed.
			if err := os.Remove(filepath.Join(opts.CacheDir, c.entryFileName("factsmod/hot"))); err != nil {
				t.Fatal(err)
			}
			res := mustRunLint(t, root, opts)
			if res.Cache.FactsHits != 0 || res.Cache.FactsMisses != 1 {
				t.Fatalf("%s-mutated facts entry hit: %+v", tc.name, res.Cache)
			}
		})
	}

	// An older schema's configuration-prefixed facts file is never expected
	// by the sweep and must be evicted.
	root := writeFixtureModule(t, factsFixtureFiles)
	opts := fixtureRunOptions(DefaultCacheDir(root))
	mustRunLint(t, root, opts)
	stray := filepath.Join(opts.CacheDir, "ffffffffffff-facts.json")
	if err := os.WriteFile(stray, []byte(`{"schema":0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	res := mustRunLint(t, root, opts)
	if res.Cache.Evicted != 1 {
		t.Fatalf("stray facts file not evicted: %+v", res.Cache)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatal("stray facts file still present after sweep")
	}
}

// TestCacheUnusableDirDegrades points the cache at a path that cannot be a
// directory: the run must proceed cold and report the degradation instead of
// failing.
func TestCacheUnusableDirDegrades(t *testing.T) {
	root := writeFixtureModule(t, fixtureModuleFiles)
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	opts := fixtureRunOptions(filepath.Join(file, "cache"))

	res := mustRunLint(t, root, opts)
	if res.Cache.Enabled || res.Cache.Degraded == "" {
		t.Fatalf("expected a degraded cache, got %+v", res.Cache)
	}
	if len(res.Raw) != 2 {
		t.Fatalf("degraded run lost findings: %v", res.Raw)
	}
}

// TestCacheConfigsCoexist runs two analyzer configurations over the same
// cache directory and checks that neither evicts the other's entries.
func TestCacheConfigsCoexist(t *testing.T) {
	root := writeFixtureModule(t, fixtureModuleFiles)
	dir := DefaultCacheDir(root)
	full := fixtureRunOptions(dir)
	intra := fixtureRunOptions(dir)
	intra.NoInterp = true

	mustRunLint(t, root, full)
	res := mustRunLint(t, root, intra)
	if res.Cache.Misses != 4 || res.Cache.Evicted != 0 {
		t.Fatalf("intraprocedural config disturbed the full config's entries: %+v", res.Cache)
	}
	// Both configurations must now be warm.
	if res := mustRunLint(t, root, full); res.Cache.Hits != 4 {
		t.Fatalf("full config lost its entries: %+v", res.Cache)
	}
	if res := mustRunLint(t, root, intra); res.Cache.Hits != 4 {
		t.Fatalf("intraprocedural config lost its entries: %+v", res.Cache)
	}
}

// TestPersistentSummaryHits exercises the summary-rehydration path against
// the real repository: force one high-level package to miss and check that
// its clean dependencies' function summaries are loaded from disk (not
// recomputed), with findings and structural stats identical to the cold run.
func TestPersistentSummaryHits(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-repo lint in -short mode")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	opts := RunOptions{Analyzers: Analyzers(), CacheDir: t.TempDir()}
	cold := mustRunLint(t, root, opts)
	if cold.Cache.Misses == 0 {
		t.Fatalf("seed run was not cold: %+v", cold.Cache)
	}

	// Delete the entry of a package that sits high in the dependency DAG, so
	// re-analyzing it resolves callee summaries from clean cached deps.
	c, err := openCache(opts.CacheDir, runConfigHash(opts))
	if err != nil {
		t.Fatal(err)
	}
	const target = "blocktri/internal/harness"
	entry := filepath.Join(opts.CacheDir, c.entryFileName(target))
	if err := os.Remove(entry); err != nil {
		t.Fatalf("removing %s entry: %v", target, err)
	}

	warm := mustRunLint(t, root, opts)
	if warm.Cache.Misses != 1 || warm.Cache.Hits != cold.Cache.Packages-1 {
		t.Fatalf("expected exactly one miss after deleting %s entry: %+v", target, warm.Cache)
	}
	if warm.Runtime.PersistentHits == 0 || warm.Runtime.PackagesLoaded == 0 {
		t.Fatalf("no summaries were rehydrated from disk: %+v", warm.Runtime)
	}
	if !reflect.DeepEqual(warm.Raw, cold.Raw) {
		t.Fatalf("findings changed across the persistent-summary path")
	}
	if warm.Summary != cold.Summary {
		t.Fatalf("structural stats changed: cold %+v warm %+v", cold.Summary, warm.Summary)
	}
}

// TestSummaryEncodeDecodeRoundtrip checks the wire encoding facet by facet:
// every summary of a real package must decode back equal to the original.
func TestSummaryEncodeDecodeRoundtrip(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	m, err := newLazyModule(root)
	if err != nil {
		t.Fatal(err)
	}
	const target = "blocktri/internal/mat"
	pkg, err := m.ensurePackage(target)
	if err != nil {
		t.Fatal(err)
	}
	st := m.pkgSummaryStats(pkg)
	sums := m.loader.sums[pkg]
	if len(sums) == 0 {
		t.Fatalf("no summaries computed for %s", target)
	}

	e := &cacheEntry{Summary: st, Funcs: encodeSummaries(sums)}
	decoded, gotSt, ok := decodeSummaries(pkg, e)
	if !ok {
		t.Fatal("decodeSummaries rejected its own encoding")
	}
	if gotSt != st {
		t.Fatalf("stats did not roundtrip: %+v vs %+v", st, gotSt)
	}
	count := 0
	for f, orig := range sums {
		if orig == nil {
			continue
		}
		count++
		got := decoded[f]
		if got == nil {
			t.Fatalf("summary for %s lost in roundtrip", funcID(f))
		}
		if !summariesEqual(orig, got) {
			t.Fatalf("summary for %s changed in roundtrip:\norig: %+v\ngot:  %+v", funcID(f), orig, got)
		}
	}
	if count == 0 {
		t.Fatal("every summary was nil")
	}
}
