package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func exampleRegistry() *Registry {
	r := NewRegistry()
	r.CounterFunc("fb_jobs_total", "Jobs admitted.", func() float64 { return 12 })
	r.GaugeFunc("fb_used_bytes", "Bytes resident.", func() float64 { return 1.5e9 })
	h := r.NewHistogram("fb_wait_seconds", "Queue wait.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(30)
	r.GaugeFunc(`fb_info{policy="opt"}`, "Build info.", func() float64 { return 1 })
	return r
}

func TestWritePrometheus(t *testing.T) {
	var sb strings.Builder
	if err := exampleRegistry().Snapshot().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := `# HELP fb_info Build info.
# TYPE fb_info gauge
fb_info{policy="opt"} 1
# HELP fb_jobs_total Jobs admitted.
# TYPE fb_jobs_total counter
fb_jobs_total 12
# HELP fb_used_bytes Bytes resident.
# TYPE fb_used_bytes gauge
fb_used_bytes 1.5e+09
# HELP fb_wait_seconds Queue wait.
# TYPE fb_wait_seconds histogram
fb_wait_seconds_bucket{le="0.1"} 1
fb_wait_seconds_bucket{le="1"} 2
fb_wait_seconds_bucket{le="+Inf"} 3
fb_wait_seconds_sum 30.55
fb_wait_seconds_count 3
`
	if got != want {
		t.Fatalf("prometheus text mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestWithLabel(t *testing.T) {
	if got := withLabel("", "le", "5"); got != `{le="5"}` {
		t.Errorf("empty block: %q", got)
	}
	if got := withLabel(`{a="b"}`, "le", "+Inf"); got != `{a="b",le="+Inf"}` {
		t.Errorf("merge: %q", got)
	}
}

func TestPromHandler(t *testing.T) {
	srv := httptest.NewServer(PromHandler(exampleRegistry()))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	if !strings.Contains(string(body), "fb_jobs_total 12") {
		t.Errorf("body missing counter:\n%s", body)
	}
}

func TestDebugMuxRoutes(t *testing.T) {
	srv := httptest.NewServer(DebugMux(exampleRegistry()))
	defer srv.Close()
	for _, path := range []string{"/metrics", "/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatalf("%s: read: %v", path, err)
		}
		if cerr := resp.Body.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", path, resp.StatusCode)
		}
	}
}
