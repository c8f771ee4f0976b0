package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"fbcache/internal/bundle"
	"fbcache/internal/core"
	"fbcache/internal/obs"
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
		p := buildPolicy(n, 100, sizeOf, 1)
		if p == nil {
			t.Fatalf("%s: nil policy", n)
		}
		// The -queue relative-value scheduler needs the concrete type.
		if _, ok := p.(*core.OptFileBundle); (n == "optfilebundle" || n == "opt") != ok {
			t.Errorf("%s: *core.OptFileBundle = %v", n, ok)
		}
		p.Admit(bundle.New(1, 2))
	}
}

// TestInstallTracerReachesPolicyEmitSites checks that the tracer cachesim
// installs for -trace-out reaches a policy's own emit sites, not only its
// cache's load/evict stream: a full cache of two, then a miss that must
// evict.
func TestInstallTracerReachesPolicyEmitSites(t *testing.T) {
	sizeOf := func(bundle.FileID) bundle.Size { return 1 }
	for _, tc := range []struct {
		name string
		want []string // the kinds emitted, sorted
	}{
		{"optfilebundle", []string{obs.KindAdmit, obs.KindEvict, obs.KindLoad, obs.KindSelectRound}},
		{"landlord", []string{obs.KindAdmit, obs.KindCreditDecay, obs.KindEvict, obs.KindLoad}},
		{"lru", []string{obs.KindEvict, obs.KindLoad}},
	} {
		var buf bytes.Buffer
		sink := obs.NewJSONLSink(&buf)
		p := buildPolicy(tc.name, 2, sizeOf, 1)
		installTracer(p, sink)
		p.Admit(bundle.New(1, 2))
		if res := p.Admit(bundle.New(3)); res.Hit || res.FilesEvicted == 0 {
			t.Fatalf("%s: second admit %+v, want a miss that evicts", tc.name, res)
		}
		if err := sink.Err(); err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		dec := json.NewDecoder(&buf)
		for dec.More() {
			var rec struct{ Kind string }
			if err := dec.Decode(&rec); err != nil {
				t.Fatal(err)
			}
			seen[rec.Kind] = true
		}
		got := make([]string, 0, len(seen))
		for k := range seen {
			got = append(got, k)
		}
		sort.Strings(got)
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: emitted kinds %v, want %v", tc.name, got, tc.want)
		}
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
