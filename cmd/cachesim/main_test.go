package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"fbcache/internal/bundle"
	"fbcache/internal/trace"
	"fbcache/internal/workload"
)

// TestMain re-enters main when the test binary is started as the command
// itself (CACHESIM_ARGS set), so tests can check real exit codes.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("CACHESIM_ARGS"); ok {
		os.Args = append([]string{"cachesim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// cachesim runs the command in a child process and returns its exit code
// and stderr.
func cachesim(t *testing.T, args string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "CACHESIM_ARGS="+args)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode(), stderr.String()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, stderr.String()
}

// -popularity is parsed case-insensitively, and an unknown law is a usage
// error rather than a silent fall-back to uniform.
func TestParsePopularity(t *testing.T) {
	const small = " -jobs 20 -files 20 -requests 10"
	if code, stderr := cachesim(t, "-popularity ZIPF"+small); code != 0 {
		t.Errorf("-popularity ZIPF: exit %d, stderr %q", code, stderr)
	}
	code, stderr := cachesim(t, "-popularity zpif"+small)
	if code != 2 || !strings.Contains(stderr, `unknown popularity "zpif"`) {
		t.Errorf("-popularity zpif: exit %d, stderr %q; want 2 and the unknown value named", code, stderr)
	}
}

func TestBuildPolicyAllNames(t *testing.T) {
	sizeOf := func(bundle.FileID) bundle.Size { return 1 }
	names := []string{"optfilebundle", "opt", "landlord", "lru", "lfu", "gdsf", "fifo", "mru", "random"}
	for _, n := range names {
		p, opt := buildPolicy(n, 100, sizeOf, 1)
		if p == nil {
			t.Fatalf("%s: nil policy", n)
		}
		if (n == "optfilebundle" || n == "opt") != (opt != nil) {
			t.Errorf("%s: concrete handle = %v", n, opt)
		}
		p.Admit(bundle.New(1, 2))
	}
}

func TestLoadWorkloadGenerateAndReplay(t *testing.T) {
	spec := workload.DefaultSpec()
	spec.Jobs = 50
	spec.NumFiles = 20
	spec.NumRequests = 10
	w, err := loadWorkload("", spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Jobs) != 50 {
		t.Fatalf("jobs = %d", len(w.Jobs))
	}

	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "t.json")
	f, err := os.Create(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteJSON(f, w); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := loadWorkload(jsonPath, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Jobs) != 50 {
		t.Errorf("replayed jobs = %d", len(got.Jobs))
	}

	gobPath := filepath.Join(dir, "t.gob")
	g, err := os.Create(gobPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteGob(g, w); err != nil {
		t.Fatal(err)
	}
	g.Close()
	got, err = loadWorkload(gobPath, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Jobs) != 50 {
		t.Errorf("gob replayed jobs = %d", len(got.Jobs))
	}

	if _, err := loadWorkload(filepath.Join(dir, "missing.json"), spec); err == nil {
		t.Error("missing trace accepted")
	}
}
