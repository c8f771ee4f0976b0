package simulate

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"fbcache/internal/bundle"
	"fbcache/internal/core"
	"fbcache/internal/obs"
	"fbcache/internal/workload"
)

// tinyWorkload is a fully hand-built 3-job run whose every cache decision is
// worked out in the comments below, so the JSONL trace it produces is an
// exact, reviewable artifact rather than a seed-dependent blob.
func tinyWorkload() *workload.Workload {
	cat := bundle.NewCatalog()
	f0 := cat.Add("f0", 4)
	f1 := cat.Add("f1", 3)
	f2 := cat.Add("f2", 2)
	return &workload.Workload{
		Spec:    workload.Spec{CacheSize: 7},
		Catalog: cat,
		Requests: []bundle.Bundle{
			bundle.New(f0, f1), // r0: 7 bytes — exactly fills the cache
			bundle.New(f1, f2), // r1: 5 bytes — forces an eviction round
		},
		Jobs: []int{0, 1, 0},
		// job 0 (r0): cold start, loads f0+f1 (7 bytes), cache full.
		// job 1 (r1): f1 resident, needs f2 (2 bytes) -> OptCacheSelect keeps
		//             r1's files and evicts f0.
		// job 2 (r0): f1 resident, reloads f0 -> evicts f2.
	}
}

// TestGoldenTrace runs the tiny workload under OptFileBundle with a JSONL
// sink installed at both levels (policy + simulator) and compares the trace
// byte-for-byte against the checked-in golden file. It pins three contracts
// at once: the event vocabulary (field names, lowercase kinds), the emit
// ordering (loads/evicts/select rounds inside an admission, then the
// admission, then the job record), and determinism (same workload, same
// bytes — events carry ordinals and sim time, never wall clock).
//
// Regenerate after an intentional format change with:
//
//	UPDATE_GOLDEN=1 go test ./internal/simulate -run TestGoldenTrace
func TestGoldenTrace(t *testing.T) {
	trace := func() []byte {
		w := tinyWorkload()
		opt := core.New(w.Spec.CacheSize, w.Catalog.SizeFunc(), core.Options{})
		var buf bytes.Buffer
		sink := obs.NewJSONLSink(&buf)
		opt.SetTracer(sink)
		if _, err := Run(w, opt, Options{Tracer: sink}); err != nil {
			t.Fatal(err)
		}
		if err := sink.Err(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	got := trace()
	if again := trace(); !bytes.Equal(got, again) {
		t.Fatal("two identical runs produced different traces")
	}

	golden := filepath.Join("testdata", "golden_trace.jsonl")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("trace differs from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}
