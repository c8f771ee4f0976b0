package srm

import (
	"strings"
	"testing"

	"fbcache/internal/bundle"
)

func TestRegistryExposesLiveState(t *testing.T) {
	s, _, src, _ := newStoreSRM(t, 100, 60, 30)
	reg := NewRegistry(s)

	rel, res, err := s.Stage(bundle.New(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit {
		t.Fatal("first stage should miss")
	}

	snap := reg.Snapshot()
	expect := map[string]float64{
		"fbcache_jobs_total":           1,
		"fbcache_jobs_active":          1,
		"fbcache_bytes_loaded_total":   60,
		"fbcache_cache_used_bytes":     60,
		"fbcache_cache_capacity_bytes": 100,
		"fbcache_pinned_bytes":         60,
		"fbcache_byte_miss_ratio":      1,
		"fbcache_hit_ratio":            0,
	}
	for name, want := range expect {
		m, ok := snap.Get(name)
		if !ok {
			t.Errorf("metric %s missing", name)
			continue
		}
		if m.Value != want {
			t.Errorf("%s = %g, want %g", name, m.Value, want)
		}
	}
	if _, ok := snap.Get(`fbcache_info{policy="optfilebundle"}`); !ok {
		t.Error("fbcache_info with policy label missing")
	}
	rel()

	// Resilience counters flow through: two store retries then success.
	src.fail.Store(2)
	rel, _, err = s.Stage(bundle.New(1))
	if err != nil {
		t.Fatal(err)
	}
	rel()
	if m, _ := reg.Snapshot().Get("fbcache_resilience_retries_total"); m.Value != 2 {
		t.Errorf("fbcache_resilience_retries_total = %g, want 2", m.Value)
	}
}

func TestRegistryPrometheusText(t *testing.T) {
	s, _ := newTestSRM(100, 10)
	rel, _, err := s.Stage(bundle.New(0))
	if err != nil {
		t.Fatal(err)
	}
	rel()

	var sb strings.Builder
	if err := NewRegistry(s).Snapshot().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"# TYPE fbcache_hit_ratio gauge",
		"# TYPE fbcache_byte_miss_ratio gauge",
		"# TYPE fbcache_bytes_loaded_total counter",
		"fbcache_bytes_loaded_total 10",
		"fbcache_resilience_retries_total 0",
		"fbcache_resilience_failovers_total 0",
		"fbcache_resilience_timeouts_total 0",
		`fbcache_info{policy="optfilebundle"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q:\n%s", want, text)
		}
	}
}

// Regression for the Resilience value-copy audit: Snapshot hands out a copy,
// and that copy must be isolated both ways — mutating it cannot leak into the
// live counters, and later live updates cannot retroactively change an
// already-taken snapshot.
func TestSnapshotResilienceIsolation(t *testing.T) {
	s, _, src, _ := newStoreSRM(t, 100, 10, 10)
	next := bundle.FileID(0)
	// transient stages a file not yet loaded, so the source is read, through
	// the given number of failures.
	transient := func(failures int64) {
		src.fail.Store(failures)
		rel, _, err := s.Stage(bundle.New(next))
		if err != nil {
			t.Fatal(err)
		}
		rel()
		next++
	}

	transient(2)
	snap := s.Stats()
	if snap.Resilience.Retries != 2 {
		t.Fatalf("retries = %d, want 2", snap.Resilience.Retries)
	}

	// Mutating the copy must not write through to the SRM.
	snap.Resilience.Retries = 999
	if got := s.Stats().Resilience.Retries; got != 2 {
		t.Errorf("snapshot mutation leaked into live counters: %d", got)
	}

	// Later activity must not change the earlier snapshot.
	before := s.Stats()
	transient(2)
	if before.Resilience.Retries != 2 {
		t.Errorf("earlier snapshot changed retroactively: %d", before.Resilience.Retries)
	}
	if got := s.Stats().Resilience.Retries; got != 4 {
		t.Errorf("live retries = %d, want 4", got)
	}
}

// The request-size histogram feeds both the Prometheus exposition and the
// quantile gauges; before any request the gauges must read 0, not NaN
// (NaN is unrepresentable in the /debug/vars JSON rendering).
func TestRegistryRequestBytesHistogram(t *testing.T) {
	s, _ := newTestSRM(100*bundle.MB, 4*bundle.MB, 12*bundle.MB)
	reg := NewRegistry(s)

	snap := reg.Snapshot()
	for _, name := range []string{"fbcache_request_bytes_p50", "fbcache_request_bytes_p90", "fbcache_request_bytes_p99"} {
		m, ok := snap.Get(name)
		if !ok {
			t.Fatalf("metric %s missing", name)
		}
		if m.Value != 0 {
			t.Errorf("%s = %g before any request, want 0", name, m.Value)
		}
	}
	if m, ok := snap.Get("fbcache_request_bytes"); !ok || m.Count != 0 {
		t.Fatalf("fbcache_request_bytes = %+v, want empty histogram", m)
	}

	rel, _, err := s.Stage(bundle.New(0, 1)) // 16 MB request
	if err != nil {
		t.Fatal(err)
	}
	rel()

	snap = reg.Snapshot()
	m, _ := snap.Get("fbcache_request_bytes")
	if m.Count != 1 || m.Sum != float64(16*bundle.MB) {
		t.Errorf("histogram count/sum = %d/%g, want 1/%d", m.Count, m.Sum, 16*bundle.MB)
	}
	p50, _ := snap.Get("fbcache_request_bytes_p50")
	// One observation in the (8 MB, 16 MB] bucket: the estimate stays
	// inside that bucket.
	if p50.Value <= float64(8*bundle.MB) || p50.Value > float64(16*bundle.MB) {
		t.Errorf("p50 = %g, want within (8MB, 16MB]", p50.Value)
	}

	var sb strings.Builder
	if err := snap.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE fbcache_request_bytes histogram",
		`fbcache_request_bytes_bucket{le="+Inf"} 1`,
		"fbcache_request_bytes_count 1",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}
