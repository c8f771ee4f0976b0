package srm

import (
	"errors"
	"testing"
	"time"

	"fbcache/internal/bundle"
	"fbcache/internal/core"
)

func TestStageTimeoutReturnsErrBusy(t *testing.T) {
	// Capacity 100; bundle 0 (60 bytes) pins the cache so bundle 1 (60
	// bytes) can never coexist with it.
	s, _ := newTestSRM(100, 60, 60)
	s.WithStageTimeout(30 * time.Millisecond)
	rel, _, err := s.Stage(bundle.New(0))
	if err != nil {
		t.Fatal(err)
	}
	defer rel()

	start := time.Now()
	_, _, err = s.Stage(bundle.New(1))
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("err = %v, want ErrBusy", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("busy rejection took %v, deadline was 30ms", elapsed)
	}
	if st := s.Stats(); st.Resilience.Timeouts != 1 {
		t.Errorf("timeouts = %d, want 1 (%v)", st.Resilience.Timeouts, st.Resilience)
	}

	// After the pin releases, the same request succeeds within the deadline.
	rel()
	rel2, _, err := s.Stage(bundle.New(1))
	if err != nil {
		t.Fatalf("stage after release: %v", err)
	}
	rel2()
}

func TestStageTimeoutZeroMeansUnbounded(t *testing.T) {
	s, _ := newTestSRM(100, 60, 60)
	s.WithStageTimeout(20 * time.Millisecond).WithStageTimeout(0)
	rel1, _, err := s.Stage(bundle.New(0))
	if err != nil {
		t.Fatal(err)
	}
	staged := make(chan error, 1)
	go func() {
		rel2, _, err := s.Stage(bundle.New(1))
		if err == nil {
			rel2()
		}
		staged <- err
	}()
	// Well past the (cleared) deadline the second stage must still be
	// waiting, not failed.
	select {
	case err := <-staged:
		t.Fatalf("second stage returned early: %v", err)
	case <-time.After(60 * time.Millisecond):
	}
	rel1()
	select {
	case err := <-staged:
		if err != nil {
			t.Fatalf("second stage: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("second stage never unblocked")
	}
}

// Store operations get storeAttempts bounded tries, and every repeat is
// counted; the source here fails on demand.
func TestRetryStoreBounded(t *testing.T) {
	s, _, src, _ := newStoreSRM(t, 100, 10, 10, 10, 10)
	stage := func(f bundle.FileID) error {
		rel, _, err := s.Stage(bundle.New(f))
		if err == nil {
			rel()
		}
		return err
	}

	src.fail.Store(2)
	if err := stage(0); err != nil {
		t.Fatalf("stage after two transient failures: %v", err)
	}
	if got := src.opens.Load(); got != 3 {
		t.Errorf("opens = %d, want 3 (two retries then success)", got)
	}
	if got := s.Stats().Resilience.Retries; got != 2 {
		t.Errorf("retries counted = %d, want 2", got)
	}

	// A persistent failure surfaces after exactly storeAttempts tries.
	src.fail.Store(1 << 30)
	before := src.opens.Load()
	if err := stage(1); !errors.Is(err, errTransient) {
		t.Fatalf("err = %v", err)
	}
	if n := src.opens.Load() - before; n != storeAttempts {
		t.Errorf("persistent failure tried %d times, want %d", n, storeAttempts)
	}
	if got := s.Stats().Resilience.Retries; got != 4 {
		t.Errorf("retries counted = %d, want 4 (failed stages count theirs too)", got)
	}
}

func TestServerBusyResponseIsRetryable(t *testing.T) {
	srv, s := startServer(t, 100)
	s.WithStageTimeout(30 * time.Millisecond)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, name := range []string{"a", "b"} {
		if err := c.AddFile(name, 60); err != nil {
			t.Fatal(err)
		}
	}

	tokenA, _, _, err := c.Stage("a")
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, err = c.Stage("b")
	var re *RetryableError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RetryableError", err)
	}
	if re.RetryAfter <= 0 {
		t.Errorf("retry-after hint = %v, want > 0", re.RetryAfter)
	}

	// StageRetry succeeds once the pin is released by a concurrent worker.
	go func() {
		time.Sleep(20 * time.Millisecond)
		_ = c.Release(tokenA)
	}()
	tokenB, _, _, err := c.StageRetry(10, "b")
	if err != nil {
		t.Fatalf("StageRetry: %v", err)
	}
	if err := c.Release(tokenB); err != nil {
		t.Fatal(err)
	}
}

func TestStageRetryGivesUpAfterMaxAttempts(t *testing.T) {
	srv, s := startServer(t, 100)
	s.WithStageTimeout(10 * time.Millisecond)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, name := range []string{"a", "b"} {
		if err := c.AddFile(name, 60); err != nil {
			t.Fatal(err)
		}
	}

	if _, _, _, err := c.Stage("a"); err != nil {
		t.Fatal(err)
	}
	// "a" stays pinned: every retry must come back busy, and the bounded
	// loop must eventually stop with the retryable error.
	_, _, _, err = c.StageRetry(3, "b")
	var re *RetryableError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RetryableError after exhausting retries", err)
	}
}

func TestServerShutdownDrains(t *testing.T) {
	s, _ := newTestSRM(100, 10)
	srv, err := Serve(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddFile("a", 10); err != nil {
		t.Fatal(err)
	}
	token, _, _, err := c.Stage("a")
	if err != nil {
		t.Fatal(err)
	}

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown(2 * time.Second) }()

	// New connections must be refused while the old one still works.
	deadline := time.Now().Add(time.Second)
	for {
		if _, err := Dial(srv.Addr()); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting during drain")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The in-flight client finishes its business and disconnects.
	if err := c.Release(token); err != nil {
		t.Fatalf("release during drain: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	select {
	case <-shutdownDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return after the last client left")
	}
	if st := s.Stats(); st.PinnedBytes != 0 || st.ActiveJobs != 0 {
		t.Errorf("bundles still held after shutdown: %+v", st)
	}
	// Second Shutdown is a no-op.
	if err := srv.Shutdown(time.Millisecond); err != nil {
		t.Errorf("repeat shutdown: %v", err)
	}
}

func TestServerShutdownForceClosesStragglers(t *testing.T) {
	s, _ := newTestSRM(100, 10)
	srv, err := Serve(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.AddFile("a", 10); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.Stage("a"); err != nil {
		t.Fatal(err)
	}

	// The client never disconnects; the drain deadline must cut it loose
	// and its lease must be released by the handler teardown.
	start := time.Now()
	if err := srv.Shutdown(50 * time.Millisecond); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("shutdown took %v despite a 50ms drain deadline", elapsed)
	}
	waitUntil(t, func() bool {
		st := s.Stats()
		return st.PinnedBytes == 0 && st.ActiveJobs == 0
	})
}

// A handler serves one request at a time, so a stage that waits on its own
// connection's pins can never be satisfied by that connection. Past the
// drain deadline Shutdown must still wake it, and the teardown must release
// the connection's lease.
func TestShutdownWakesBlockedStager(t *testing.T) {
	cat := bundle.NewCatalog()
	cat.Add("a", 6)
	cat.Add("b", 6)
	s := New(core.New(10, cat.SizeFunc(), core.Options{}), cat)
	srv, err := Serve(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn := rawStage(t, srv, "a")
	if _, err := conn.Write(appendRequest(nil, &Request{Op: "stage", Files: []string{"b"}})); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool { return s.Stats().WaitingJobs == 1 })

	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(50 * time.Millisecond) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Shutdown still blocked 2s after a 50ms drain deadline")
	}
	if st := s.Stats(); st.PinnedBytes != 0 || st.ActiveJobs != 0 || st.WaitingJobs != 0 {
		t.Errorf("state after shutdown: %+v", st)
	}
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
