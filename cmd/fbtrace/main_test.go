package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fbcache/internal/bundle"
	"fbcache/internal/obs/span"
	"fbcache/internal/trace"
	"fbcache/internal/workload"
)

const golden = "../../internal/simulate/testdata/golden_trace.jsonl"

// exec runs the command and captures both streams.
func exec(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestUsageAndHelp(t *testing.T) {
	if code, _, stderr := exec(t); code != 2 || !strings.Contains(stderr, "usage:") {
		t.Errorf("no args: code %d, stderr %q", code, stderr)
	}
	if code, _, stderr := exec(t, "frobnicate"); code != 2 || !strings.Contains(stderr, "unknown command") {
		t.Errorf("unknown command: code %d, stderr %q", code, stderr)
	}
	code, stdout, _ := exec(t, "help")
	if code != 0 || !strings.Contains(stdout, "workload") {
		t.Errorf("help: code %d; usage must list the workload command, got %q", code, stdout)
	}
	// Each subcommand rejects a missing positional argument.
	for _, sub := range []string{"summary", "validate", "critical-path", "diff", "spans", "workload"} {
		if code, _, _ := exec(t, sub); code != 2 {
			t.Errorf("%s with no file: code %d, want 2", sub, code)
		}
	}
}

// TestSpansSubcommand drives a real flight-recorder dump through the spans
// analysis: an always-anomalous recorder records one request, the JSONL dump
// is flushed, and the subcommand must reconstruct the latency table and tree.
func TestSpansSubcommand(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.jsonl")
	sink, closer, err := span.FileDump(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := span.New(span.Options{
		SlowThreshold: time.Nanosecond, // everything is anomalous
		Dump:          sink,
		DumpCloser:    closer,
	})
	root := rec.StartRequest(span.Context{}, span.OpStage)
	root.SetFiles(2)
	child := rec.StartChild(root.Context(), span.OpStageAdmit)
	child.SetBytes(4096)
	child.Finish(span.ErrNone)
	busy := rec.StartChild(root.Context(), span.OpStageWait)
	busy.Finish(span.ErrBusy)
	root.Finish(span.ErrBusy)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	code, stdout, stderr := exec(t, "spans", "-trees", path)
	if code != 0 {
		t.Fatalf("code %d, stderr %q, stdout:\n%s", code, stderr, stdout)
	}
	for _, want := range []string{
		"3 span(s) in 1 request(s)",
		"per-op latency (wall clock):",
		"stage.admit",
		"slowest 1 request(s):",
		"busy",
		"request trees:",
		"bytes=4096",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("spans output missing %q:\n%s", want, stdout)
		}
	}

	// A trace without span events reports zero and exits clean.
	code, stdout, _ = exec(t, "spans", golden)
	if code != 0 || !strings.Contains(stdout, "0 span(s)") {
		t.Errorf("spans on span-free trace: code %d, output:\n%s", code, stdout)
	}
}

func TestValidateGolden(t *testing.T) {
	code, stdout, _ := exec(t, "validate", "-capacity", "7", golden)
	if code != 0 {
		t.Fatalf("code %d, output:\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "no invariant violations") {
		t.Errorf("output:\n%s", stdout)
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	// Capacity 6 is one byte short of the golden run's peak residency.
	code, stdout, _ := exec(t, "validate", "-capacity", "6", golden)
	if code != 1 {
		t.Fatalf("code %d, want 1; output:\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "exceeds capacity") {
		t.Errorf("output:\n%s", stdout)
	}
}

func TestSummaryGolden(t *testing.T) {
	code, stdout, _ := exec(t, "summary", "-window", "2", golden)
	if code != 0 {
		t.Fatalf("code %d, output:\n%s", code, stdout)
	}
	for _, want := range []string{
		"policy optfilebundle",
		"byte miss ratio  0.6842",
		"residency before eviction",
		"hit-ratio curve",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("summary missing %q:\n%s", want, stdout)
		}
	}
}

func TestCriticalPathUntimedTrace(t *testing.T) {
	code, stdout, _ := exec(t, "critical-path", golden)
	if code != 0 {
		t.Fatalf("code %d, output:\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "no timing") {
		t.Errorf("ordinal-clock trace must report missing timing:\n%s", stdout)
	}
}

func TestDiffSameAndDiffering(t *testing.T) {
	code, stdout, _ := exec(t, "diff", golden, golden)
	if code != 0 || !strings.Contains(stdout, "identical") {
		t.Fatalf("self-diff: code %d, output:\n%s", code, stdout)
	}

	// Truncate the last two lines into a second file: diverges at the tail.
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	short := filepath.Join(t.TempDir(), "short.jsonl")
	if err := os.WriteFile(short, []byte(strings.Join(lines[:len(lines)-2], "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, _ = exec(t, "diff", golden, short)
	if code != 1 {
		t.Fatalf("diff against truncation: code %d, output:\n%s", code, stdout)
	}
	for _, want := range []string{"first divergence", "<trace ended>", "event counts:"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("diff output missing %q:\n%s", want, stdout)
		}
	}
}

func TestLenientSkipsGarbage(t *testing.T) {
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	dirty := filepath.Join(t.TempDir(), "dirty.jsonl")
	if err := os.WriteFile(dirty, append([]byte("this is not json\n"), data...), 0o644); err != nil {
		t.Fatal(err)
	}

	if code, _, stderr := exec(t, "validate", "-capacity", "7", dirty); code != 1 ||
		!strings.Contains(stderr, "line 1") {
		t.Errorf("strict mode must fail on garbage naming the line: code %d, stderr %q", code, stderr)
	}
	code, stdout, stderr := exec(t, "validate", "-lenient", "-capacity", "7", dirty)
	if code != 0 {
		t.Fatalf("lenient: code %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stderr, "skipped 1") || !strings.Contains(stdout, "no invariant violations") {
		t.Errorf("lenient output:\nstdout %s\nstderr %s", stdout, stderr)
	}
}

// writeWorkloadTrace writes a small generated workload to dir in both
// encodings and returns the JSON and gob paths.
func writeWorkloadTrace(t *testing.T, dir string) (jsonPath, gobPath string) {
	t.Helper()
	w, err := workload.Generate(workload.Spec{
		Seed:           3,
		CacheSize:      64 * bundle.MB,
		NumFiles:       6,
		MinFileSize:    bundle.MB,
		MaxFilePct:     0.2,
		NumRequests:    5,
		MaxBundleFiles: 3,
		MaxBundleFrac:  0.5,
		Popularity:     workload.Uniform,
		Jobs:           20,
	})
	if err != nil {
		t.Fatal(err)
	}
	jsonPath = filepath.Join(dir, "tiny.trace.json")
	gobPath = filepath.Join(dir, "tiny.trace.gob")
	for path, write := range map[string]func(io.Writer, *workload.Workload) error{
		jsonPath: trace.WriteJSON,
		gobPath:  trace.WriteGob,
	} {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := write(f, w); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return jsonPath, gobPath
}

func TestWorkloadDescribesTrace(t *testing.T) {
	jsonPath, gobPath := writeWorkloadTrace(t, t.TempDir())
	var outputs []string
	for _, path := range []string{jsonPath, gobPath} {
		code, stdout, stderr := exec(t, "workload", path)
		if code != 0 {
			t.Fatalf("%s: code %d, stderr %q", path, code, stderr)
		}
		for _, want := range []string{"trace: " + path, "files", "jobs", "file sharing"} {
			if !strings.Contains(stdout, want) {
				t.Errorf("%s: output missing %q:\n%s", path, want, stdout)
			}
		}
		outputs = append(outputs, strings.TrimPrefix(stdout, "trace: "+path))
	}
	if outputs[0] != outputs[1] {
		t.Errorf("JSON and gob encodings of one workload describe differently:\n%s\nvs\n%s", outputs[0], outputs[1])
	}
}

func TestWorkloadUsageAndErrors(t *testing.T) {
	if code, _, stderr := exec(t, "workload"); code != 2 || !strings.Contains(stderr, "usage: fbtrace workload") {
		t.Errorf("no args: code %d, stderr %q", code, stderr)
	}
	if code, _, _ := exec(t, "workload", "a.json", "b.json"); code != 2 {
		t.Errorf("two files: code %d, want 2", code)
	}
	if code, _, _ := exec(t, "workload", "-no-such-flag"); code != 2 {
		t.Errorf("bad flag: code %d, want 2", code)
	}
	if code, _, stderr := exec(t, "workload", "does-not-exist.trace.json"); code != 1 || !strings.Contains(stderr, "fbtrace:") {
		t.Errorf("missing file: code %d, stderr %q", code, stderr)
	}
	// An event trace is not a workload trace.
	if code, _, _ := exec(t, "workload", golden); code != 1 {
		t.Errorf("event trace read as a workload: code %d, want 1", code)
	}
}
