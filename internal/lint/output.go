package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"strings"
)

// This file renders a diagnostic list in machine-readable formats. All
// writers take the already-sorted output of Run and a
// root directory against which file paths are relativized (slash-
// separated), so reports are stable across checkouts and CI runners.

// relPath rewrites filename relative to root with forward slashes, or
// returns it unchanged when it is not under root.
func relPath(root, filename string) string {
	if root == "" {
		return filepath.ToSlash(filename)
	}
	rel, err := filepath.Rel(root, filename)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(filename)
	}
	return filepath.ToSlash(rel)
}

// jsonFinding is one diagnostic in the -json report.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

// WriteJSON writes the diagnostics as a JSON array (one object per
// finding, sorted by position — the input order).
func WriteJSON(w io.Writer, root string, diags []Diagnostic) error {
	findings := make([]jsonFinding, 0, len(diags))
	for _, d := range diags {
		findings = append(findings, jsonFinding{
			Analyzer: d.Analyzer,
			File:     relPath(root, d.Pos.Filename),
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(findings)
}

// SARIF 2.1.0 minimal subset: one run, one rule per analyzer, one result
// per diagnostic. Enough for GitHub code scanning and SARIF viewers.
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
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// WriteSARIF writes the diagnostics as a SARIF 2.1.0 log. analyzers
// supplies the rule metadata; diagnostics referencing analyzers not in
// the list still get a bare ruleId.
func WriteSARIF(w io.Writer, root string, analyzers []*Analyzer, diags []Diagnostic) error {
	rules := make([]sarifRule, 0, len(analyzers))
	for _, a := range analyzers {
		rules = append(rules, sarifRule{
			ID:               a.Name,
			ShortDescription: sarifMessage{Text: a.Doc},
		})
	}
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		results = append(results, sarifResult{
			RuleID:  d.Analyzer,
			Level:   "error",
			Message: sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{URI: relPath(root, d.Pos.Filename)},
					Region:           sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "mv2lint", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// WriteGitHub writes the diagnostics as GitHub Actions workflow commands,
// which the runner turns into inline PR annotations.
func WriteGitHub(w io.Writer, root string, diags []Diagnostic) {
	for _, d := range diags {
		fmt.Fprintf(w, "::error file=%s,line=%d,col=%d,title=mv2lint/%s::%s\n",
			relPath(root, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer,
			githubEscape(d.Message))
	}
}

// githubEscape encodes the characters the workflow-command grammar
// reserves in message data.
func githubEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}
