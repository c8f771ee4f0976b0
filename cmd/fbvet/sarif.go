package main

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"

	"fbcache/internal/analyzers"
)

// The SARIF 2.1.0 subset fbvet emits. Field names follow the spec
// (https://docs.oasis-open.org/sarif/sarif/v2.1.0/sarif-v2.1.0.html);
// omitempty is avoided on required properties so an empty run still
// serializes them explicitly.

const (
	sarifVersion = "2.1.0"
	sarifSchema  = "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"
)

type sarifLog struct {
	Version string     `json:"version"`
	Schema  string     `json:"$schema"`
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
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
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

// writeSARIF renders one run covering the whole invocation. Every analyzer
// in the suite appears as a rule even when it found nothing, so consumers
// can distinguish "checked and clean" from "not checked". Paths are made
// relative to root (the directory fbvet loaded packages from) and
// slash-separated, per the spec's preference for portable URIs.
func writeSARIF(w io.Writer, suite []*analyzers.Analyzer, diags []analyzers.Diagnostic, root string) error {
	rules := make([]sarifRule, len(suite))
	index := make(map[string]int, len(suite))
	for i, a := range suite {
		rules[i] = sarifRule{ID: a.Name, ShortDescription: sarifMessage{Text: a.Doc}}
		index[a.Name] = i
	}

	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		uri := d.Pos.Filename
		if rel, err := filepath.Rel(root, uri); err == nil {
			uri = rel
		}
		uri = filepath.ToSlash(uri)
		idx, ok := index[d.Analyzer]
		if !ok {
			// A diagnostic from outside the suite (should not happen);
			// -1 is the spec's "no rule metadata" sentinel.
			idx = -1
		}
		results = append(results, sarifResult{
			RuleID:    d.Analyzer,
			RuleIndex: idx,
			Level:     "warning",
			Message:   sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: uri},
					Region:           sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
				},
			}},
		})
	}
	sort.SliceStable(results, func(i, j int) bool {
		a, b := results[i], results[j]
		if a.RuleID != b.RuleID {
			return a.RuleID < b.RuleID
		}
		la, lb := a.Locations[0].PhysicalLocation, b.Locations[0].PhysicalLocation
		if la.ArtifactLocation.URI != lb.ArtifactLocation.URI {
			return la.ArtifactLocation.URI < lb.ArtifactLocation.URI
		}
		return la.Region.StartLine < lb.Region.StartLine
	})

	log := sarifLog{
		Version: sarifVersion,
		Schema:  sarifSchema,
		Runs:    []sarifRun{{Tool: sarifTool{Driver: sarifDriver{Name: "fbvet", Rules: rules}}, Results: results}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// validateSARIF structurally checks a SARIF document against the 2.1.0
// requirements fbvet relies on — an offline stand-in for full JSON-schema
// validation (the container has no network and no schema validator). It
// decodes generically so it exercises the emitted bytes, not the Go types.
func validateSARIF(data []byte) error {
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("not valid JSON: %w", err)
	}
	if v, _ := doc["version"].(string); v != sarifVersion {
		return fmt.Errorf("version = %q, want %q", doc["version"], sarifVersion)
	}
	runs, ok := doc["runs"].([]any)
	if !ok {
		return fmt.Errorf("runs is %T, want array", doc["runs"])
	}
	for ri, rv := range runs {
		run, ok := rv.(map[string]any)
		if !ok {
			return fmt.Errorf("runs[%d] is not an object", ri)
		}
		tool, _ := run["tool"].(map[string]any)
		driver, _ := tool["driver"].(map[string]any)
		name, _ := driver["name"].(string)
		if name == "" {
			return fmt.Errorf("runs[%d].tool.driver.name missing", ri)
		}
		nRules := -1
		if rules, ok := driver["rules"].([]any); ok {
			nRules = len(rules)
			for qi, qv := range rules {
				rule, ok := qv.(map[string]any)
				if !ok {
					return fmt.Errorf("runs[%d] rules[%d] is not an object", ri, qi)
				}
				if id, _ := rule["id"].(string); id == "" {
					return fmt.Errorf("runs[%d] rules[%d].id missing", ri, qi)
				}
			}
		}
		results, ok := run["results"].([]any)
		if !ok {
			return fmt.Errorf("runs[%d].results is %T, want array", ri, run["results"])
		}
		for xi, xv := range results {
			res, ok := xv.(map[string]any)
			if !ok {
				return fmt.Errorf("runs[%d].results[%d] is not an object", ri, xi)
			}
			if id, _ := res["ruleId"].(string); id == "" {
				return fmt.Errorf("runs[%d].results[%d].ruleId missing", ri, xi)
			}
			switch lvl, _ := res["level"].(string); lvl {
			case "none", "note", "warning", "error":
			default:
				return fmt.Errorf("runs[%d].results[%d].level = %q invalid", ri, xi, lvl)
			}
			msg, _ := res["message"].(map[string]any)
			if text, _ := msg["text"].(string); text == "" {
				return fmt.Errorf("runs[%d].results[%d].message.text missing", ri, xi)
			}
			if fidx, ok := res["ruleIndex"].(float64); ok && nRules >= 0 {
				if idx := int(fidx); idx < -1 || idx >= nRules {
					return fmt.Errorf("runs[%d].results[%d].ruleIndex %d outside %d rules", ri, xi, idx, nRules)
				}
			}
			locs, _ := res["locations"].([]any)
			for li, lv := range locs {
				loc, _ := lv.(map[string]any)
				phys, _ := loc["physicalLocation"].(map[string]any)
				art, _ := phys["artifactLocation"].(map[string]any)
				if uri, _ := art["uri"].(string); uri == "" {
					return fmt.Errorf("runs[%d].results[%d].locations[%d] missing artifactLocation.uri", ri, xi, li)
				}
				if region, ok := phys["region"].(map[string]any); ok {
					if line, ok := region["startLine"].(float64); ok && line < 1 {
						return fmt.Errorf("runs[%d].results[%d].locations[%d].region.startLine = %v, want >= 1", ri, xi, li, line)
					}
				}
			}
		}
	}
	return nil
}
