package analysis

import (
	"encoding/json"
	"io"
	"path/filepath"
	"strings"
)

// Machine-readable rendering of a lint run. The text form in
// Finding.String is for humans at a terminal; CI archives the same findings
// as SARIF 2.1.0 (for code-scanning UIs and long-term report storage). The
// renderer is deliberately tiny: findings in, bytes out, no options.

// SARIF 2.1.0, minimally: one run, one rule per analyzer, one result per
// finding.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string      `json:"id"`
	ShortDescription sarifText   `json:"shortDescription"`
	HelpURI          string      `json:"helpUri"`
	DefaultConfig    sarifConfig `json:"defaultConfiguration"`
}

type sarifConfig struct {
	Level string `json:"level"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// helpAnchor is the documentation link baked into each SARIF rule: the
// per-analyzer anchor inside the static-analysis guide.
func helpAnchor(name string) string {
	return "docs/STATIC_ANALYSIS.md#" + name
}

// WriteSARIF renders findings as a SARIF 2.1.0 log: one rule per analyzer
// in the suite (found or not, so the report names what ran) plus the
// "suppress" pseudo-rule for directive hygiene, one result per finding. Each
// rule carries a helpUri pointing at its section of the analyzer guide and a
// defaultConfiguration.level matching the analyzer's severity tier.
func WriteSARIF(w io.Writer, analyzers []*Analyzer, findings []Finding, root string) error {
	rules := make([]sarifRule, 0, len(analyzers)+1)
	levels := map[string]string{SuppressName: SeverityWarning}
	for _, a := range analyzers {
		rules = append(rules, sarifRule{
			ID:               a.Name,
			ShortDescription: sarifText{Text: a.Doc},
			HelpURI:          helpAnchor(a.Name),
			DefaultConfig:    sarifConfig{Level: a.Severity},
		})
		levels[a.Name] = a.Severity
	}
	rules = append(rules, sarifRule{
		ID:               SuppressName,
		ShortDescription: sarifText{Text: "lint:ignore directives must name a real analyzer and match a finding"},
		HelpURI:          helpAnchor("suppression"),
		DefaultConfig:    sarifConfig{Level: SeverityWarning},
	})
	results := make([]sarifResult, 0, len(findings))
	for _, f := range findings {
		level := levels[f.Analyzer]
		if level == "" {
			level = SeverityWarning
		}
		results = append(results, sarifResult{
			RuleID:  f.Analyzer,
			Level:   level,
			Message: sarifText{Text: f.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: filepath.ToSlash(relToRoot(root, f.Pos.Filename))},
					Region:           sarifRegion{StartLine: f.Pos.Line, StartColumn: f.Pos.Column},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "blocktri-lint", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// relToRoot shortens path to be relative to root when it lies inside it.
func relToRoot(root, path string) string {
	if root == "" {
		return path
	}
	if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}
