package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fbcache/internal/trace"
)

func TestRunGeneratesReadableTrace(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "tiny.trace.json")
	var stdout, stderr bytes.Buffer
	args := []string{"-jobs", "50", "-files", "10", "-requests", "8", "-seed", "7", "-o", out}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "10 files") {
		t.Errorf("summary line missing file count: %q", stderr.String())
	}

	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := trace.ReadJSON(f)
	if err != nil {
		t.Fatalf("generated trace does not parse: %v", err)
	}
	if w.Catalog.Len() != 10 || len(w.Jobs) != 50 {
		t.Errorf("trace has %d files, %d jobs; want 10, 50", w.Catalog.Len(), len(w.Jobs))
	}
}

// Same seed, same bytes: the generator must be deterministic.
func TestRunDeterministicAcrossRuns(t *testing.T) {
	gen := func() []byte {
		var stdout, stderr bytes.Buffer
		args := []string{"-jobs", "30", "-files", "8", "-requests", "6", "-seed", "42"}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("run = %d, stderr: %s", code, stderr.String())
		}
		return stdout.Bytes()
	}
	a, b := gen(), gen()
	if !bytes.Equal(a, b) {
		t.Fatal("two runs with the same seed produced different traces")
	}
}

func TestRunFlagErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad flag: run = %d, want 2", code)
	}
	stderr.Reset()
	if code := run([]string{"-popularity", "zpif"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown popularity: run = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), `unknown popularity "zpif"`) {
		t.Errorf("unknown popularity not reported: %q", stderr.String())
	}
	stderr.Reset()
	if code := run([]string{"-o", filepath.Join(t.TempDir(), "missing", "dir", "x")}, &stdout, &stderr); code != 1 {
		t.Errorf("uncreatable output: run = %d, want 1", code)
	}
}
