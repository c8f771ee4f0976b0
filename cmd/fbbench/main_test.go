package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"fbcache/internal/bundle"
	"fbcache/internal/experiment"
)

func tinyConfig() experiment.Config {
	return experiment.Config{
		Seed:        1,
		Jobs:        200,
		NumFiles:    60,
		NumRequests: 40,
		CacheSize:   1 * bundle.GB,
	}
}

func TestRunDispatch(t *testing.T) {
	cfg := tinyConfig()
	for which, wantTables := range map[string]int{
		"table1": 1,
		"table2": 1,
		"fig6":   2,
		"fig9":   2,
		"bounds": 1,
		// The grid fault studies.
		"degraded":    1,
		"replication": 1,
	} {
		tables, err := run(cfg, which)
		if err != nil {
			t.Fatalf("%s: %v", which, err)
		}
		if len(tables) != wantTables {
			t.Errorf("%s: %d tables, want %d", which, len(tables), wantTables)
		}
		if len(tables) == 1 && tables[0].ID != which {
			t.Errorf("%s: table ID %q", which, tables[0].ID)
		}
	}
	if _, err := run(cfg, "nonsense"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestWriteCSV(t *testing.T) {
	dir := t.TempDir()
	tab := experiment.Table1()
	if err := writeCSV(dir, tab); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "table1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Error("empty csv")
	}
	// Nested dir is created on demand.
	if err := writeCSV(filepath.Join(dir, "a", "b"), tab); err != nil {
		t.Fatal(err)
	}
}

// TestResultsReproduce regenerates every table with fbbench's flag defaults
// and requires the CSVs and the rendered text to match results/ byte for
// byte. Any change to a §1.2 quality number — hit ratio, byte miss ratio,
// response time — fails here: a faster algorithm must pick the same bundles.
// Regenerate deliberately with `go run ./cmd/fbbench -out results >
// results/all.txt` plus `-experiment replication -out results`.
func TestResultsReproduce(t *testing.T) {
	if raceEnabled {
		t.Skip("regenerating every experiment is too slow under -race")
	}
	cfg, _, _ := parseFlags(nil)
	cfg.Progress = nil
	dir := t.TempDir()
	var text bytes.Buffer
	for _, which := range []string{"all", "replication"} {
		tables, err := run(cfg, which)
		if err != nil {
			t.Fatalf("%s: %v", which, err)
		}
		for _, tab := range tables {
			if err := writeCSV(dir, tab); err != nil {
				t.Fatal(err)
			}
			if which == "all" {
				if err := tab.Render(&text); err != nil {
					t.Fatal(err)
				}
				text.WriteString("\n")
			}
		}
	}
	results := filepath.Join("..", "..", "results")
	want, err := os.ReadFile(filepath.Join(results, "all.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(text.Bytes(), want) {
		t.Error("rendered tables differ from results/all.txt")
	}

	got, _ := filepath.Glob(filepath.Join(dir, "*.csv"))
	wantCSV, _ := filepath.Glob(filepath.Join(results, "*.csv"))
	names := map[string]bool{}
	for _, p := range wantCSV {
		names[filepath.Base(p)] = true
	}
	for _, p := range got {
		name := filepath.Base(p)
		if !names[name] {
			t.Errorf("%s is generated but not checked in under results/", name)
			continue
		}
		delete(names, name)
		a, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(results, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs from results/%s:\n--- got\n%s--- want\n%s", name, name, a, b)
		}
	}
	for name := range names {
		t.Errorf("results/%s is checked in but no longer generated", name)
	}
}
