package analysis

import (
	"go/token"
	"sort"
	"strings"
)

// Suppression directives.
//
// A comment of the form
//
//	//lint:ignore analyzer1,analyzer2 reason
//
// suppresses findings from the named analyzers on the directive's own line
// (end-of-line form) and on the line immediately below it (own-line form).
// The reason is free text; writing one is strongly encouraged because a
// suppression without a rationale is indistinguishable from a silenced bug.
//
// Directives are themselves checked: every run that exercises the full
// analyzer suite can ask for the directives that named an unknown analyzer
// or matched no finding (see Unused). Stale directives are worse than none —
// they read as "this line is known-bad" when the underlying finding is long
// gone — so the driver reports them under the pseudo-analyzer "suppress".

const ignorePrefix = "//lint:ignore"

// SuppressName is the pseudo-analyzer that owns findings about the
// directives themselves (unknown analyzer names, stale suppressions).
const SuppressName = "suppress"

// directive is one analyzer name from one lint:ignore comment, with a mark
// recording whether any finding was actually silenced by it.
type directive struct {
	pos  token.Position // position of the comment carrying the name
	name string         // the analyzer the directive names
	used bool           // set when Suppressed matches a finding against it
}

// Suppressions records, per file and line, which analyzers are silenced,
// and tracks which directives ever matched a finding.
type Suppressions struct {
	// byFile maps filename -> line -> analyzer name -> directive.
	byFile map[string]map[int]map[string]*directive
	// all holds every directive in collection order (deterministic: the
	// module's packages and files are sorted by the loader).
	all []*directive
}

// CollectSuppressions scans every comment in the module for lint:ignore
// directives.
func CollectSuppressions(m *Module) *Suppressions {
	s := &Suppressions{byFile: make(map[string]map[int]map[string]*directive)}
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					names, ok := parseIgnore(c.Text)
					if !ok {
						continue
					}
					pos := m.Fset.Position(c.Pos())
					for _, n := range names {
						s.add(pos, n)
					}
				}
			}
		}
	}
	return s
}

// add records one directive, ignoring a repeated name on the same line.
func (s *Suppressions) add(pos token.Position, name string) {
	lines := s.byFile[pos.Filename]
	if lines == nil {
		lines = make(map[int]map[string]*directive)
		s.byFile[pos.Filename] = lines
	}
	set := lines[pos.Line]
	if set == nil {
		set = make(map[string]*directive)
		lines[pos.Line] = set
	}
	if set[name] != nil {
		return // duplicate name on the same line
	}
	d := &directive{pos: pos, name: name}
	set[name] = d
	s.all = append(s.all, d)
}

// parseIgnore extracts the analyzer names from a lint:ignore comment.
func parseIgnore(text string) ([]string, bool) {
	rest, ok := strings.CutPrefix(text, ignorePrefix)
	if !ok {
		return nil, false
	}
	// Require a separator so "//lint:ignoreXXX" is not a directive.
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return nil, false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return nil, false
	}
	var names []string
	for _, n := range strings.Split(fields[0], ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names, len(names) > 0
}

// Suppressed reports whether a finding by the named analyzer at pos is
// covered by a directive on the same line or the line above, and marks the
// covering directive as used.
func (s *Suppressions) Suppressed(analyzer string, pos token.Position) bool {
	lines := s.byFile[pos.Filename]
	if lines == nil {
		return false
	}
	for _, l := range [2]int{pos.Line, pos.Line - 1} {
		if d := lines[l][analyzer]; d != nil {
			d.used = true
			return true
		}
	}
	return false
}

// FilterSuppressed drops findings covered by suppression directives and
// returns the kept findings.
func FilterSuppressed(fs []Finding, s *Suppressions) []Finding {
	out := fs[:0:0]
	for _, f := range fs {
		if !s.Suppressed(f.Analyzer, f.Pos) {
			out = append(out, f)
		}
	}
	return out
}

// Unused audits the directives after a lint run. known is the set of valid
// analyzer names; directives naming anything else are reported as typos, and
// directives that never matched a finding are reported as stale. The result
// is only meaningful when every analyzer in known actually ran, so the
// driver gates this on a full-suite invocation.
func (s *Suppressions) Unused(known map[string]bool) []Finding {
	var out []Finding
	for _, d := range s.all {
		switch {
		case !known[d.name]:
			out = append(out, Finding{
				Pos:      d.pos,
				Analyzer: SuppressName,
				Message:  "lint:ignore names unknown analyzer \"" + d.name + "\"",
			})
		case !d.used:
			out = append(out, Finding{
				Pos:      d.pos,
				Analyzer: SuppressName,
				Message:  "lint:ignore directive for \"" + d.name + "\" matches no finding; delete it",
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Message < b.Message
	})
	return out
}
