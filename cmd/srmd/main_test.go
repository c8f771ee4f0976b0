package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fbcache/internal/bundle"
	"fbcache/internal/core"
	"fbcache/internal/srm"
)

// testServer starts a real SRM server on a loopback port and returns its
// address; shutdown is handled by t.Cleanup.
func testServer(t *testing.T) string {
	t.Helper()
	cat := bundle.NewCatalog()
	pol := core.New(64*bundle.MB, cat.SizeFunc(), core.DefaultOptions())
	service := srm.New(pol, cat)
	server, err := srm.Serve(service, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = server.Shutdown(0) })
	return server.Addr()
}

func TestRunModeAndFlagErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"no mode", nil, 2},
		{"unknown flag", []string{"-no-such-flag"}, 2},
		{"client without command", []string{"-connect", "127.0.0.1:1"}, 1}, // dial fails first
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.want {
				t.Errorf("run(%v) = %d, want %d (stderr: %s)", tc.args, code, tc.want, stderr.String())
			}
		})
	}
}

func TestRunClientLifecycle(t *testing.T) {
	addr := testServer(t)

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-connect", addr, "-addfile", "evt-a:1048576"}, &stdout, &stderr); code != 0 {
		t.Fatalf("addfile: run = %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "added evt-a") {
		t.Errorf("addfile output: %q", stdout.String())
	}

	stdout.Reset()
	if code := run([]string{"-connect", addr, "-stage", "evt-a"}, &stdout, &stderr); code != 0 {
		t.Fatalf("stage: run = %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "staged token=") {
		t.Errorf("stage output: %q", stdout.String())
	}

	stdout.Reset()
	if code := run([]string{"-connect", addr, "-stats"}, &stdout, &stderr); code != 0 {
		t.Fatalf("stats: run = %d, stderr: %s", code, stderr.String())
	}
	for _, want := range []string{"policy", "jobs", "cache"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stats output missing %q:\n%s", want, stdout.String())
		}
	}
}

// syncBuffer is a bytes.Buffer safe for the server goroutine and the test
// to share.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRunServerGracefulShutdown smoke-tests the full server mode through
// run(): boot on a loopback port, serve a real client, then shut down
// gracefully via the test hook that stands in for SIGINT/SIGTERM.
func TestRunServerGracefulShutdown(t *testing.T) {
	testStop = make(chan struct{})
	defer func() { testStop = nil }()

	var out, errOut syncBuffer
	done := make(chan int, 1)
	// -slow 1ns keeps every request at full fidelity so /debug/flight and
	// the -flight-out dump are deterministic.
	flight := filepath.Join(t.TempDir(), "flight.jsonl")
	go func() {
		done <- run([]string{
			"-listen", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0",
			"-cache-gb", "0.1", "-drain", "2s",
			"-flight-out", flight, "-slow", "1ns",
		}, &out, &errOut)
	}()

	// The server prints its bound addresses once listening.
	var addr, debugURL string
	deadline := time.Now().Add(5 * time.Second)
	for addr == "" || debugURL == "" {
		if time.Now().After(deadline) {
			t.Fatalf("server never announced its addresses; output: %q %q", out.String(), errOut.String())
		}
		s := out.String()
		if addr == "" && strings.Contains(s, ") on ") {
			addr = strings.TrimSpace(s[strings.Index(s, ") on ")+len(") on "):])
			addr = strings.Fields(addr)[0]
		}
		if debugURL == "" && strings.Contains(s, ") at ") {
			debugURL = strings.TrimSpace(s[strings.Index(s, ") at ")+len(") at "):])
			debugURL = strings.Fields(debugURL)[0]
		}
		if addr == "" || debugURL == "" {
			time.Sleep(5 * time.Millisecond)
		}
	}

	// A real staging round trip against the running server.
	c, err := srm.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddFile("evt-x", 1024); err != nil {
		t.Fatal(err)
	}
	token, _, _, err := c.Stage("evt-x")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Release(token); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// The acceptance check: a /metrics scrape of the running server is valid
	// Prometheus text and carries hit-ratio, byte-traffic and resilience
	// counters reflecting the round trip above.
	scrape := scrapeMetrics(t, debugURL)
	for _, want := range []string{
		"# TYPE fbcache_hit_ratio gauge",
		"# TYPE fbcache_byte_miss_ratio gauge",
		"# TYPE fbcache_bytes_loaded_total counter",
		"fbcache_bytes_loaded_total 1024",
		"fbcache_jobs_total 1",
		"fbcache_resilience_retries_total 0",
		"fbcache_resilience_timeouts_total 0",
		`fbcache_info{policy="optfilebundle"} 1`,
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("/metrics missing %q:\n%s", want, scrape)
		}
	}
	// The span telemetry rides on the same scrape.
	for _, want := range []string{
		`fbcache_op_latency_seconds_count{op="stage"} 1`,
		`fbcache_op_errors_total{op="stage"} 0`,
		"fbcache_flight_requests_total 3",
		"fbcache_spans_inflight 0",
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("/metrics missing span telemetry %q:\n%s", want, scrape)
		}
	}

	// /debug/flight serves the kept requests as reconstructed span trees;
	// the stage request carries its admit leg and bundle attributes.
	flightBody := httpGet(t, debugURL+"debug/flight")
	for _, want := range []string{
		`"requests"`, `"op": "stage"`, `"op": "stage.admit"`,
		`"files": 1`, `"bytes": 1024`, `"anomalies": 3`,
	} {
		if !strings.Contains(flightBody, want) {
			t.Errorf("/debug/flight missing %q:\n%s", want, flightBody)
		}
	}
	// CI uploads the flight snapshot as an artifact when this is set.
	if dest := os.Getenv("SRMD_FLIGHT_OUT"); dest != "" {
		if err := os.WriteFile(dest, []byte(flightBody), 0o644); err != nil {
			t.Fatalf("writing flight artifact: %v", err)
		}
	}

	// pprof rides on the same mux.
	httpGet(t, debugURL+"debug/pprof/cmdline")
	// CI uploads the scrape as an artifact when this is set.
	if dest := os.Getenv("SRMD_METRICS_OUT"); dest != "" {
		if err := os.WriteFile(dest, []byte(scrape), 0o644); err != nil {
			t.Fatalf("writing metrics artifact: %v", err)
		}
	}

	// Trigger the shutdown path (stands in for SIGINT/SIGTERM) and wait for
	// a clean exit.
	close(testStop)
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("server exit code %d; stderr: %s", code, errOut.String())
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("server did not shut down; output: %q", out.String())
	}
	for _, want := range []string{"shutting down", "srmd: stopped"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("shutdown output missing %q:\n%s", want, out.String())
		}
	}

	// The listener must actually be gone.
	if _, err := srm.Dial(addr); err == nil {
		t.Error("server still accepting connections after shutdown")
	}

	// Shutdown flushed the flight recorder: the anomaly dump is on disk and
	// every line is a span record (fbtrace spans consumes this file).
	raw, err := os.ReadFile(flight)
	if err != nil {
		t.Fatalf("flight dump: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 3 {
		t.Fatalf("flight dump has %d line(s), want >= 3 (addfile, stage, release):\n%s", len(lines), raw)
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, `{"kind":"span",`) {
			t.Errorf("flight dump line is not a span record: %s", line)
		}
	}
}

// httpGet fetches a URL and returns the body, failing the test on any error
// or non-200 status.
func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(body)
}

// scrapeMetrics GETs <base>metrics and returns the body.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "metrics")
	if err != nil {
		t.Fatalf("scraping /metrics: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	return string(body)
}

func TestRunClientBadInputs(t *testing.T) {
	addr := testServer(t)

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-connect", addr, "-addfile", "missing-colon"}, &stdout, &stderr); code != 2 {
		t.Errorf("malformed addfile: run = %d, want 2", code)
	}
	stderr.Reset()
	if code := run([]string{"-connect", addr, "-addfile", "f:not-a-number"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad size: run = %d, want 2", code)
	}
	stderr.Reset()
	if code := run([]string{"-connect", addr, "-stage", "never-registered"}, &stdout, &stderr); code != 1 {
		t.Errorf("staging unknown file: run = %d, want 1", code)
	}
	stderr.Reset()
	if code := run([]string{"-connect", addr, "-release", "no-such-token"}, &stdout, &stderr); code != 1 {
		t.Errorf("releasing unknown token: run = %d, want 1", code)
	}
}
