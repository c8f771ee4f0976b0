package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"fbcache/internal/bundle"
	"fbcache/internal/core"
	"fbcache/internal/srm"
	"fbcache/internal/workload"
)

// End-to-end over a real TCP socket: spin up an in-process srmd-equivalent
// server, drive it with runBench, verify the numbers add up.
func TestRunBenchEndToEnd(t *testing.T) {
	cat := bundle.NewCatalog()
	pol := core.New(2*bundle.GB, cat.SizeFunc(), core.DefaultOptions())
	service := srm.New(pol, cat)
	server, err := srm.Serve(service, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = server.Shutdown(0) }()

	const clients, jobsPerClient = 3, 15
	w, err := workload.Generate(workload.Spec{
		Seed:           7,
		CacheSize:      2 * bundle.GB,
		NumFiles:       40,
		MinFileSize:    bundle.MB,
		MaxFilePct:     0.05,
		NumRequests:    25,
		MaxBundleFiles: 4,
		MaxBundleFrac:  0.25,
		Popularity:     workload.Zipf,
		ZipfS:          1,
		Jobs:           clients * jobsPerClient,
	})
	if err != nil {
		t.Fatal(err)
	}

	sum, err := runBench(server.Addr(), w, clients, jobsPerClient, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.ops != clients*jobsPerClient {
		t.Errorf("ops = %d, want %d", sum.ops, clients*jobsPerClient)
	}
	if sum.errors != 0 {
		t.Errorf("errors = %d", sum.errors)
	}
	if len(sum.latencies) != sum.ops {
		t.Errorf("latencies = %d", len(sum.latencies))
	}
	if sum.serverSnap.Jobs != int64(sum.ops) {
		t.Errorf("server saw %d jobs, client did %d", sum.serverSnap.Jobs, sum.ops)
	}
	if sum.serverSnap.ActiveJobs != 0 || sum.serverSnap.PinnedBytes != 0 {
		t.Errorf("leaked leases: %+v", sum.serverSnap)
	}
	if sum.serverSnap.HitRatio <= 0 {
		t.Errorf("no hits across a Zipf stream: %+v", sum.serverSnap)
	}
}

func TestRunBenchUnreachableServer(t *testing.T) {
	w, err := workload.Generate(workload.Spec{
		Seed: 1, CacheSize: bundle.GB, NumFiles: 4, MinFileSize: bundle.MB,
		MaxFilePct: 0.1, NumRequests: 2, MaxBundleFiles: 2, MaxBundleFrac: 0.5,
		Jobs: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runBench("127.0.0.1:1", w, 1, 1, 1, nil); err == nil {
		t.Error("unreachable server accepted")
	}
}

// A server that rejects every stage (each bundle exceeds its cache) must
// not stall the run: runBench finishes and counts every job as an error.
func TestRunBenchCountsRejectedStages(t *testing.T) {
	cat := bundle.NewCatalog()
	server, err := srm.Serve(srm.New(core.New(bundle.MB/2, cat.SizeFunc(), core.DefaultOptions()), cat), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = server.Shutdown(0) }()
	w, err := workload.Generate(workload.Spec{
		Seed: 1, CacheSize: bundle.GB, NumFiles: 4, MinFileSize: bundle.MB,
		MaxFilePct: 0.1, NumRequests: 2, MaxBundleFiles: 2, MaxBundleFrac: 0.5,
		Jobs: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum *benchSummary
	done := make(chan error, 1)
	go func() {
		var err error
		sum, err = runBench(server.Addr(), w, 2, 2, 2, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("runBench did not finish against a server that rejects every stage")
	}
	if sum.ops != 4 || sum.errors != 4 {
		t.Errorf("ops = %d, errors = %d; want 4 jobs, all rejected", sum.ops, sum.errors)
	}
}

// TestMain re-enters main when the test binary is started as the command
// itself (SRMBENCH_ARGS set), so tests can check real exit codes.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("SRMBENCH_ARGS"); ok {
		os.Args = append([]string{"srmbench"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// An unknown -popularity is a usage error, reported before any connection
// is attempted, not a silent fall-back to zipf.
func TestUnknownPopularityIsUsageError(t *testing.T) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "SRMBENCH_ARGS=-addr 127.0.0.1:1 -popularity zpif")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit = %v, want status 2; stderr %q", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), `unknown popularity "zpif"`) {
		t.Errorf("unknown value not named: %q", stderr.String())
	}
}
