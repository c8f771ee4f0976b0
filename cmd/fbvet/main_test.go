package main

import (
	"bytes"
	"encoding/json"
	"go/token"
	"strings"
	"testing"

	"fbcache/internal/analyzers"
)

func sampleDiags() []analyzers.Diagnostic {
	return []analyzers.Diagnostic{
		{
			Pos:      token.Position{Filename: "internal/srm/srm.go", Line: 42, Column: 3},
			Analyzer: "guardedby",
			Message:  "write to field (SRM).active without holding mu (//fbvet:guardedby)",
		},
		{
			Pos:      token.Position{Filename: "internal/cluster/cluster.go", Line: 7, Column: 1},
			Analyzer: "lockorder",
			Message:  "potential deadlock: lock cycle",
		},
	}
}

// TestWriteSARIFValidates proves the emitter and the validator agree: the
// exact bytes fbvet would upload pass the structural 2.1.0 check.
func TestWriteSARIFValidates(t *testing.T) {
	var buf bytes.Buffer
	if err := writeSARIF(&buf, analyzers.All(), sampleDiags(), "."); err != nil {
		t.Fatalf("writeSARIF: %v", err)
	}
	if err := validateSARIF(buf.Bytes()); err != nil {
		t.Fatalf("emitted SARIF does not validate: %v", err)
	}
}

// TestWriteSARIFShape pins the parts of the log CI consumers depend on:
// version, driver name, one rule per suite analyzer, resolvable ruleIndex,
// and slash-separated relative URIs.
func TestWriteSARIFShape(t *testing.T) {
	var buf bytes.Buffer
	suite := analyzers.All()
	if err := writeSARIF(&buf, suite, sampleDiags(), "."); err != nil {
		t.Fatalf("writeSARIF: %v", err)
	}
	var log sarifLog
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("decoding emitted log: %v", err)
	}
	if log.Version != "2.1.0" || !strings.Contains(log.Schema, "sarif-schema-2.1.0") {
		t.Errorf("version/schema = %q / %q", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "fbvet" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	if len(run.Tool.Driver.Rules) != len(suite) {
		t.Errorf("got %d rules, want %d (one per analyzer)", len(run.Tool.Driver.Rules), len(suite))
	}
	if len(run.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(run.Results))
	}
	for _, res := range run.Results {
		if res.RuleIndex < 0 || res.RuleIndex >= len(run.Tool.Driver.Rules) {
			t.Errorf("result %q ruleIndex %d out of range", res.RuleID, res.RuleIndex)
			continue
		}
		if got := run.Tool.Driver.Rules[res.RuleIndex].ID; got != res.RuleID {
			t.Errorf("ruleIndex %d resolves to %q, want %q", res.RuleIndex, got, res.RuleID)
		}
		uri := res.Locations[0].PhysicalLocation.ArtifactLocation.URI
		if strings.Contains(uri, "\\") || strings.HasPrefix(uri, "/") {
			t.Errorf("URI %q should be relative and slash-separated", uri)
		}
	}
	// Results are sorted by rule then location, so runs are byte-for-byte
	// reproducible regardless of package iteration order.
	if run.Results[0].RuleID != "guardedby" || run.Results[1].RuleID != "lockorder" {
		t.Errorf("results not sorted by rule: %q, %q", run.Results[0].RuleID, run.Results[1].RuleID)
	}
}

// TestWriteSARIFEmpty checks a clean run still carries the full rule set
// and an explicit empty results array — "checked and found nothing".
func TestWriteSARIFEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := writeSARIF(&buf, analyzers.All(), nil, "."); err != nil {
		t.Fatalf("writeSARIF: %v", err)
	}
	if err := validateSARIF(buf.Bytes()); err != nil {
		t.Fatalf("empty run does not validate: %v", err)
	}
	if !strings.Contains(buf.String(), `"results": []`) {
		t.Errorf("empty results should serialize as [], got:\n%s", buf.String())
	}
}

// TestValidateSARIFRejects drives the validator through the malformed
// documents it exists to catch.
func TestValidateSARIFRejects(t *testing.T) {
	cases := []struct {
		name, doc, wantErr string
	}{
		{"not json", `{`, "not valid JSON"},
		{"wrong version", `{"version":"2.0.0","runs":[]}`, "version"},
		{"runs missing", `{"version":"2.1.0"}`, "runs"},
		{"driver name missing",
			`{"version":"2.1.0","runs":[{"tool":{"driver":{}},"results":[]}]}`,
			"driver.name"},
		{"ruleId missing",
			`{"version":"2.1.0","runs":[{"tool":{"driver":{"name":"x"}},"results":[{"level":"warning","message":{"text":"m"}}]}]}`,
			"ruleId"},
		{"bad level",
			`{"version":"2.1.0","runs":[{"tool":{"driver":{"name":"x"}},"results":[{"ruleId":"r","level":"fatal","message":{"text":"m"}}]}]}`,
			"level"},
		{"message text missing",
			`{"version":"2.1.0","runs":[{"tool":{"driver":{"name":"x"}},"results":[{"ruleId":"r","level":"warning","message":{}}]}]}`,
			"message.text"},
		{"ruleIndex out of range",
			`{"version":"2.1.0","runs":[{"tool":{"driver":{"name":"x","rules":[{"id":"r"}]}},"results":[{"ruleId":"r","ruleIndex":5,"level":"warning","message":{"text":"m"}}]}]}`,
			"ruleIndex"},
		{"location without uri",
			`{"version":"2.1.0","runs":[{"tool":{"driver":{"name":"x"}},"results":[{"ruleId":"r","level":"warning","message":{"text":"m"},"locations":[{"physicalLocation":{"region":{"startLine":1}}}]}]}]}`,
			"artifactLocation.uri"},
		{"startLine zero",
			`{"version":"2.1.0","runs":[{"tool":{"driver":{"name":"x"}},"results":[{"ruleId":"r","level":"warning","message":{"text":"m"},"locations":[{"physicalLocation":{"artifactLocation":{"uri":"a.go"},"region":{"startLine":0}}}]}]}]}`,
			"startLine"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateSARIF([]byte(tc.doc))
			if err == nil {
				t.Fatalf("validator accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
	ok := `{"version":"2.1.0","runs":[{"tool":{"driver":{"name":"x","rules":[{"id":"r","shortDescription":{"text":"d"}}]}},"results":[{"ruleId":"r","ruleIndex":0,"level":"warning","message":{"text":"m"},"locations":[{"physicalLocation":{"artifactLocation":{"uri":"a.go"},"region":{"startLine":3}}}]}]}]}`
	if err := validateSARIF([]byte(ok)); err != nil {
		t.Errorf("validator rejected a minimal valid log: %v", err)
	}
}
