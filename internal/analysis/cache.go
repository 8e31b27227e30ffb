package analysis

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Persistent incremental analysis cache.
//
// One cache entry per package, one JSON file per entry, stored under the
// module's cache directory (default .blocktri-lint-cache/, see
// DefaultCacheDir). An entry is valid only when its schema version AND its
// content-hash key (scan.go: file contents, direct-dependency keys, go.mod,
// analyzer set + versions, driver configuration) both match the current
// scan; anything else — a missing file, truncated JSON, a garbage byte, an
// old schema, a stale key — is a silent miss that falls back to the cold
// path. The cache can therefore never surface stale findings or fail a run:
// the worst corruption can do is cost one rebuild.
//
// What an entry stores, per package:
//
//   - the raw (pre-suppression) findings of every enabled analyzer, so a
//     warm run replays output byte-identically without parsing a file;
//   - the lint:ignore directives, so suppression filtering and the
//     directive-staleness audit replay without ASTs;
//   - the function summaries (summary.go) and the structural stats /
//     call-graph condensation behind them, so incremental runs rehydrate a
//     clean dependency's interprocedural facts instead of recomputing them.
//
// Writes are atomic (temp file + rename), so concurrent runs — two CI jobs,
// a watch loop racing a manual run — can interleave freely: a reader sees
// either a complete entry or none.

// cacheSchemaVersion is baked into both the entry payload and the run
// configuration hash. Bump it whenever the entry format or the meaning of
// any cached field changes; old entries then miss and are swept.
//
// v4: package keys cover assembly files, the run configuration covers
// GOARCH, and the directory gains a module-wide compiler-fact entry
// (factsEntry) keyed on toolchain version + GOARCH + flags + tree hash.
//
// v5: the facts entry drops the configuration prefix from its filename, so
// runs with different analyzer sets share one table; v4's prefixed fact
// files are swept.
const cacheSchemaVersion = 5

// DefaultCacheDir returns the default persistent cache location for a
// module root: <root>/.blocktri-lint-cache.
func DefaultCacheDir(root string) string {
	return filepath.Join(root, ".blocktri-lint-cache")
}

// cache is an open handle on a cache directory for one run configuration.
type cache struct {
	dir    string
	config string // configuration hash (hex); prefixes every entry filename
}

func openCache(dir, config string) (*cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &cache{dir: dir, config: config}, nil
}

// entryFileName derives the stable filename of a package's entry:
// <config-prefix>-<package-hash>.json. The config prefix groups one run
// configuration's entries so different configurations (say, interprocedural
// on and off) coexist without evicting each other.
func (c *cache) entryFileName(pkgPath string) string {
	sum := sha256.Sum256([]byte(pkgPath))
	return c.config[:12] + "-" + hex.EncodeToString(sum[:8]) + ".json"
}

// factsEntry is the on-disk record of one whole-module compiler-fact table
// (compilerfacts.go). Unlike package entries it is not content-chained per
// package: compiler diagnostics for a package can change when anything in
// its import closure changes, so the entry is keyed on a digest of the
// entire tree plus everything about the toolchain that shapes the
// diagnostics — go version, GOARCH and the exact -gcflags payload. Any
// mismatch is a miss and the facts are recomputed by invoking the
// toolchain (cheap when go's own build cache is warm, one real build when
// not).
type factsEntry struct {
	Schema    int          `json:"schema"`
	GoVersion string       `json:"go_version"`
	GOARCH    string       `json:"goarch"`
	Flags     string       `json:"flags"`
	TreeHash  string       `json:"tree_hash"`
	Escapes   []cachedDiag `json:"escapes,omitempty"`
	Bounds    []cachedDiag `json:"bounds,omitempty"`
	Inlines   []cachedInl  `json:"inlines,omitempty"`
}

// cachedDiag is one FactDiag with its file made root-relative.
type cachedDiag struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"msg"`
}

// cachedInl is one InlineFact with its file made root-relative.
type cachedInl struct {
	File      string `json:"file"`
	Line      int    `json:"line"`
	CanInline bool   `json:"can_inline"`
	Cost      int    `json:"cost,omitempty"`
	Budget    int    `json:"budget,omitempty"`
	Reason    string `json:"reason,omitempty"`
}

// factsFileName is the facts entry's name. It carries no configuration
// prefix: the table is keyed on its own terms (toolchain, GOARCH, flags,
// tree hash), none of which depend on the enabled analyzer set, so a run
// that needs only perfescape seeds the table a full-suite run replays.
func (c *cache) factsFileName() string {
	return "facts.json"
}

// loadFacts reads and validates the facts entry against the current
// toolchain and tree. Every failure mode is a plain miss.
func (c *cache) loadFacts(root, treeHash string) (*CompilerFacts, bool) {
	data, err := os.ReadFile(filepath.Join(c.dir, c.factsFileName()))
	if err != nil {
		return nil, false
	}
	var e factsEntry
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, false
	}
	if e.Schema != cacheSchemaVersion || e.GoVersion != runtime.Version() ||
		e.GOARCH != runtime.GOARCH || e.Flags != factsGCFlags || e.TreeHash != treeHash {
		return nil, false
	}
	cf := &CompilerFacts{
		GoVersion: e.GoVersion,
		GOARCH:    e.GOARCH,
		Flags:     e.Flags,
		escapes:   make(map[string][]FactDiag),
		bounds:    make(map[string][]FactDiag),
		inlines:   make(map[string][]InlineFact),
	}
	abs := func(file string) string {
		name := filepath.FromSlash(file)
		if !filepath.IsAbs(name) {
			name = filepath.Join(root, name)
		}
		return name
	}
	for _, d := range e.Escapes {
		f := abs(d.File)
		cf.escapes[f] = append(cf.escapes[f], FactDiag{File: f, Line: d.Line, Col: d.Col, Message: d.Message})
	}
	for _, d := range e.Bounds {
		f := abs(d.File)
		cf.bounds[f] = append(cf.bounds[f], FactDiag{File: f, Line: d.Line, Col: d.Col, Message: d.Message})
	}
	for _, d := range e.Inlines {
		f := abs(d.File)
		cf.inlines[f] = append(cf.inlines[f], InlineFact{File: f, Line: d.Line, CanInline: d.CanInline, Cost: d.Cost, Budget: d.Budget, Reason: d.Reason})
	}
	return cf, true
}

// storeFacts persists a fact table atomically (best-effort, like store).
func (c *cache) storeFacts(root, treeHash string, cf *CompilerFacts) error {
	e := factsEntry{
		Schema:    cacheSchemaVersion,
		GoVersion: cf.GoVersion,
		GOARCH:    cf.GOARCH,
		Flags:     cf.Flags,
		TreeHash:  treeHash,
	}
	rel := func(file string) string { return filepath.ToSlash(relToRoot(root, file)) }
	for _, diags := range sortedDiagFiles(cf.escapes) {
		for _, d := range diags {
			e.Escapes = append(e.Escapes, cachedDiag{File: rel(d.File), Line: d.Line, Col: d.Col, Message: d.Message})
		}
	}
	for _, diags := range sortedDiagFiles(cf.bounds) {
		for _, d := range diags {
			e.Bounds = append(e.Bounds, cachedDiag{File: rel(d.File), Line: d.Line, Col: d.Col, Message: d.Message})
		}
	}
	files := make([]string, 0, len(cf.inlines))
	for f := range cf.inlines {
		files = append(files, f)
	}
	sort.Strings(files)
	for _, f := range files {
		for _, d := range cf.inlines[f] {
			e.Inlines = append(e.Inlines, cachedInl{File: rel(d.File), Line: d.Line, CanInline: d.CanInline, Cost: d.Cost, Budget: d.Budget, Reason: d.Reason})
		}
	}
	data, err := json.Marshal(&e)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(c.dir, ".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	return os.Rename(name, filepath.Join(c.dir, c.factsFileName()))
}

// sortedDiagFiles returns a diag map's slices in file order, so entry bytes
// are deterministic.
func sortedDiagFiles(m map[string][]FactDiag) [][]FactDiag {
	files := make([]string, 0, len(m))
	for f := range m {
		files = append(files, f)
	}
	sort.Strings(files)
	out := make([][]FactDiag, 0, len(files))
	for _, f := range files {
		out = append(out, m[f])
	}
	return out
}

// cacheEntry is the on-disk record of one analyzed package.
type cacheEntry struct {
	Schema     int                 `json:"schema"`
	Key        string              `json:"key"`
	Path       string              `json:"path"`
	Findings   []cachedFinding     `json:"findings"`
	Directives []cachedDirective   `json:"directives"`
	Summary    SummaryStats        `json:"summary_stats"`
	CallGraph  [][]string          `json:"callgraph_sccs,omitempty"`
	Funcs      []cachedFuncSummary `json:"funcs,omitempty"`
}

// cachedFinding is one raw finding with its position made root-relative so
// the cache survives a module checkout moving on disk.
type cachedFinding struct {
	File     string `json:"file"`
	Offset   int    `json:"offset"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// cachedDirective is one lint:ignore analyzer name at one position.
type cachedDirective struct {
	File   string `json:"file"`
	Offset int    `json:"offset"`
	Line   int    `json:"line"`
	Col    int    `json:"col"`
	Name   string `json:"name"`
}

// cachedFuncSummary is the wire form of one FuncSummary, identified by the
// function's type-checker full name (stable across runs for a fixed file
// set, e.g. "blocktri/internal/mat.Mul" or "(*blocktri/internal/mat.Workspace).Get").
type cachedFuncSummary struct {
	ID         string        `json:"id"`
	NumParams  int           `json:"num_params"`
	NumResults int           `json:"num_results"`
	Releases   uint32        `json:"releases,omitempty"`
	Borrows    uint32        `json:"borrows,omitempty"`
	CheckoutOf []int         `json:"checkout_of,omitempty"`
	ErrLabel   []string      `json:"err_label,omitempty"`
	Comm       []sumCommSite `json:"comm,omitempty"`
	CommOpaque bool          `json:"comm_opaque,omitempty"`
	Dims       []cachedDims  `json:"dims,omitempty"`
	Spawns     []sumSpawn    `json:"spawns,omitempty"`
	Locks      []string      `json:"locks,omitempty"`
	FuncSinks  uint32        `json:"func_sinks,omitempty"`
}

type cachedDims struct {
	Rows cachedTerm `json:"rows"`
	Cols cachedTerm `json:"cols"`
}

// cachedTerm flattens a linTerm[sumVar] into a sorted coefficient list so
// the encoding is deterministic.
type cachedTerm struct {
	Known bool            `json:"known"`
	K     int64           `json:"k,omitempty"`
	Lin   []cachedLinCoef `json:"lin,omitempty"`
}

type cachedLinCoef struct {
	Kind  int   `json:"kind"`
	Param int   `json:"param"`
	Coef  int64 `json:"coef"`
}

// load reads and validates sp's entry. Every failure mode — absent file,
// unreadable bytes, malformed JSON, schema or key or path mismatch — is a
// plain miss.
func (c *cache) load(sp *scanPackage) (*cacheEntry, bool) {
	data, err := os.ReadFile(filepath.Join(c.dir, c.entryFileName(sp.Path)))
	if err != nil {
		return nil, false
	}
	var e cacheEntry
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, false
	}
	if e.Schema != cacheSchemaVersion || e.Key != sp.Key || e.Path != sp.Path {
		return nil, false
	}
	return &e, true
}

// store writes an entry atomically. Failures are reported to the caller for
// counting but never abort a run: the cache is strictly best-effort.
func (c *cache) store(e *cacheEntry) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(c.dir, ".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	return os.Rename(name, filepath.Join(c.dir, c.entryFileName(e.Path)))
}

// sweep evicts stale files after a run: entries of the current
// configuration whose filename is not in the expected set (packages that
// were deleted or renamed), entries of any configuration written under an
// older schema, and orphaned temp files. Expected files are kept unread,
// so the facts table is not parsed on runs that never request it. It
// returns the eviction count.
func (c *cache) sweep(expected map[string]bool) int {
	dirEntries, err := os.ReadDir(c.dir)
	if err != nil {
		return 0
	}
	prefix := c.config[:12] + "-"
	evicted := 0
	for _, de := range dirEntries {
		name := de.Name()
		if de.IsDir() {
			continue
		}
		switch {
		case strings.HasPrefix(name, ".tmp-"):
			// A crashed writer's leftover.
		case !strings.HasSuffix(name, ".json"), expected[name]:
			continue
		case strings.HasPrefix(name, prefix):
			// This configuration's entry for a package that is gone.
		default:
			// Another configuration's entry: keep it unless it was written
			// under an older schema (those can never hit again).
			data, err := os.ReadFile(filepath.Join(c.dir, name))
			if err != nil {
				continue
			}
			var e struct {
				Schema int `json:"schema"`
			}
			if json.Unmarshal(data, &e) == nil && e.Schema == cacheSchemaVersion {
				continue
			}
		}
		if os.Remove(filepath.Join(c.dir, name)) == nil {
			evicted++
		}
	}
	return evicted
}

// --- position / finding / directive encoding --------------------------------

func encodePos(root string, pos token.Position) (file string, offset, line, col int) {
	return filepath.ToSlash(relToRoot(root, pos.Filename)), pos.Offset, pos.Line, pos.Column
}

func decodePos(root, file string, offset, line, col int) token.Position {
	name := filepath.FromSlash(file)
	if !filepath.IsAbs(name) {
		name = filepath.Join(root, name)
	}
	return token.Position{Filename: name, Offset: offset, Line: line, Column: col}
}

func encodeFindings(root string, fs []Finding) []cachedFinding {
	out := make([]cachedFinding, 0, len(fs))
	for _, f := range fs {
		file, off, line, col := encodePos(root, f.Pos)
		out = append(out, cachedFinding{
			File: file, Offset: off, Line: line, Col: col,
			Analyzer: f.Analyzer, Message: f.Message,
		})
	}
	return out
}

func decodeFindings(root string, cfs []cachedFinding) []Finding {
	out := make([]Finding, 0, len(cfs))
	for _, cf := range cfs {
		out = append(out, Finding{
			Pos:      decodePos(root, cf.File, cf.Offset, cf.Line, cf.Col),
			Analyzer: cf.Analyzer,
			Message:  cf.Message,
		})
	}
	return out
}

func encodeDirectives(root string, s *Suppressions) []cachedDirective {
	out := make([]cachedDirective, 0, len(s.all))
	for _, d := range s.all {
		file, off, line, col := encodePos(root, d.pos)
		out = append(out, cachedDirective{File: file, Offset: off, Line: line, Col: col, Name: d.name})
	}
	return out
}

// --- summary encoding -------------------------------------------------------

// funcID names a function stably within its package for cache round-trips.
func funcID(f *types.Func) string { return f.FullName() }

// declaredFuncs indexes a materialized package's function declarations by
// funcID — the resolution table for decodeSummaries.
func declaredFuncs(pkg *Package) map[string]*types.Func {
	out := make(map[string]*types.Func)
	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if f, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				out[funcID(f)] = f
			}
		}
	}
	return out
}

func encodeTerm(t sumTerm) cachedTerm {
	out := cachedTerm{Known: t.Known, K: t.K}
	for v, c := range t.Lin {
		out.Lin = append(out.Lin, cachedLinCoef{Kind: int(v.Kind), Param: v.Param, Coef: c})
	}
	sort.Slice(out.Lin, func(i, j int) bool {
		a, b := out.Lin[i], out.Lin[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Param < b.Param
	})
	return out
}

func decodeTerm(ct cachedTerm) sumTerm {
	t := sumTerm{Known: ct.Known, K: ct.K}
	if len(ct.Lin) > 0 {
		t.Lin = make(map[sumVar]int64, len(ct.Lin))
		for _, lc := range ct.Lin {
			t.Lin[sumVar{Kind: sumVarKind(lc.Kind), Param: lc.Param}] = lc.Coef
		}
	}
	return t
}

// encodeSummaries serializes a package's summary map, sorted by funcID for
// deterministic entry bytes.
func encodeSummaries(sums pkgSummaries) []cachedFuncSummary {
	out := make([]cachedFuncSummary, 0, len(sums))
	for f, s := range sums {
		if s == nil {
			continue
		}
		cs := cachedFuncSummary{
			ID:         funcID(f),
			NumParams:  s.NumParams,
			NumResults: s.NumResults,
			Releases:   s.Releases,
			Borrows:    s.Borrows,
			CheckoutOf: s.CheckoutOf,
			ErrLabel:   s.ErrLabel,
			Comm:       s.Comm,
			CommOpaque: s.CommOpaque,
			Spawns:     s.Spawns,
			Locks:      s.Locks,
			FuncSinks:  s.FuncSinks,
		}
		for _, d := range s.Dims {
			cs.Dims = append(cs.Dims, cachedDims{Rows: encodeTerm(d.Rows), Cols: encodeTerm(d.Cols)})
		}
		out = append(out, cs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// decodeSummaries rehydrates an entry's summaries against the materialized
// package. Any inconsistency — an ID that no longer resolves, a facet slice
// whose length disagrees with the signature — invalidates the whole load
// and the caller recomputes from source.
func decodeSummaries(pkg *Package, e *cacheEntry) (pkgSummaries, SummaryStats, bool) {
	byID := declaredFuncs(pkg)
	sums := make(pkgSummaries, len(e.Funcs))
	for i := range e.Funcs {
		cs := &e.Funcs[i]
		f, ok := byID[cs.ID]
		if !ok {
			return nil, SummaryStats{}, false
		}
		sig := signatureOf(f)
		if sig == nil || sig.Params().Len() != cs.NumParams || sig.Results().Len() != cs.NumResults {
			return nil, SummaryStats{}, false
		}
		if len(cs.CheckoutOf) != cs.NumResults || len(cs.ErrLabel) != cs.NumResults || len(cs.Dims) != cs.NumResults {
			// emptySummary always sizes these to NumResults; a mismatch
			// means the entry was hand-edited or damaged.
			if !(cs.NumResults == 0 && len(cs.CheckoutOf) == 0 && len(cs.ErrLabel) == 0 && len(cs.Dims) == 0) {
				return nil, SummaryStats{}, false
			}
		}
		for _, sp := range cs.Spawns {
			if sp.Param < 0 || sp.Param >= cs.NumParams || (sp.Kind != "close" && sp.Kind != "wait") {
				return nil, SummaryStats{}, false
			}
		}
		if len(cs.Locks) > maxSummaryLocks {
			return nil, SummaryStats{}, false
		}
		s := &FuncSummary{
			Fn:         f,
			NumParams:  cs.NumParams,
			NumResults: cs.NumResults,
			Releases:   cs.Releases,
			Borrows:    cs.Borrows,
			CheckoutOf: cs.CheckoutOf,
			ErrLabel:   cs.ErrLabel,
			Comm:       cs.Comm,
			CommOpaque: cs.CommOpaque,
			Spawns:     cs.Spawns,
			Locks:      cs.Locks,
			FuncSinks:  cs.FuncSinks,
		}
		if s.CheckoutOf == nil {
			s.CheckoutOf = make([]int, 0)
		}
		if s.ErrLabel == nil {
			s.ErrLabel = make([]string, 0)
		}
		s.Dims = make([]sumDims, 0, len(cs.Dims))
		for _, d := range cs.Dims {
			s.Dims = append(s.Dims, sumDims{Rows: decodeTerm(d.Rows), Cols: decodeTerm(d.Cols)})
		}
		sums[f] = s
	}
	return sums, e.Summary, true
}
