package main

import (
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
