package srm

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"fbcache/internal/bundle"
	"fbcache/internal/core"
	"fbcache/internal/obs/span"
	"fbcache/internal/store"
)

func newTestSRM(capacity bundle.Size, fileSizes ...bundle.Size) (*SRM, *bundle.Catalog) {
	cat := bundle.NewCatalog()
	for _, s := range fileSizes {
		cat.AddAnonymous(s)
	}
	pol := core.New(capacity, cat.SizeFunc(), core.Options{})
	return New(pol, cat), cat
}

func TestStageAndRelease(t *testing.T) {
	s, _ := newTestSRM(100, 10, 20, 30)
	rel, res, err := s.Stage(bundle.New(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit || res.BytesLoaded != 30 {
		t.Errorf("res = %+v", res)
	}
	st := s.Stats()
	if st.ActiveJobs != 1 || st.PinnedBytes != 30 {
		t.Errorf("stats = %+v", st)
	}
	rel()
	rel() // idempotent
	st = s.Stats()
	if st.ActiveJobs != 0 || st.PinnedBytes != 0 {
		t.Errorf("after release: %+v", st)
	}
	// Second stage is a hit.
	rel2, res2, err := s.Stage(bundle.New(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer rel2()
	if !res2.Hit {
		t.Error("expected hit")
	}
}

func TestStageTooLarge(t *testing.T) {
	s, _ := newTestSRM(10, 20)
	_, res, err := s.Stage(bundle.New(0))
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v", err)
	}
	if !res.Unserviceable {
		t.Error("not flagged unserviceable")
	}
}

func TestStageBlocksUntilPinsRelease(t *testing.T) {
	// Capacity 100; two bundles of 60 can't be pinned together.
	s, _ := newTestSRM(100, 60, 60)
	rel1, _, err := s.Stage(bundle.New(0))
	if err != nil {
		t.Fatal(err)
	}
	staged2 := make(chan struct{})
	go func() {
		rel2, _, err := s.Stage(bundle.New(1))
		if err != nil {
			t.Errorf("second stage: %v", err)
			close(staged2)
			return
		}
		defer rel2()
		close(staged2)
	}()
	select {
	case <-staged2:
		t.Fatal("second stage did not block on pinned bytes")
	case <-time.After(50 * time.Millisecond):
	}
	rel1()
	select {
	case <-staged2:
	case <-time.After(2 * time.Second):
		t.Fatal("second stage never unblocked")
	}
}

func TestCloseWakesBlockedStagers(t *testing.T) {
	s, _ := newTestSRM(100, 60, 60)
	rel1, _, err := s.Stage(bundle.New(0))
	if err != nil {
		t.Fatal(err)
	}
	defer rel1()
	errc := make(chan error, 1)
	go func() {
		_, _, err := s.Stage(bundle.New(1))
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	s.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked stager never woke")
	}
}

func TestConcurrentStaging(t *testing.T) {
	// Many goroutines staging overlapping bundles; -race is the real check.
	cat := bundle.NewCatalog()
	for i := 0; i < 32; i++ {
		cat.AddAnonymous(5)
	}
	pol := core.New(200, cat.SizeFunc(), core.Options{})
	s := New(pol, cat)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				b := bundle.New(
					bundle.FileID((g*7+i)%32),
					bundle.FileID((g*3+2*i)%32),
					bundle.FileID((5*g+i)%32),
				)
				rel, _, err := s.Stage(b)
				if err != nil {
					t.Errorf("stage: %v", err)
					return
				}
				_ = s.Stats() // exercise Stats under concurrency
				rel()
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if st.ActiveJobs != 0 || st.PinnedBytes != 0 {
		t.Errorf("leaked pins: %+v", st)
	}
	if st.Jobs != 400 {
		t.Errorf("jobs = %d, want 400", st.Jobs)
	}
	if err := pol.Cache().CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestAddFile(t *testing.T) {
	s, cat := newTestSRM(100)
	id, err := s.AddFile("henp-energy", 42)
	if err != nil {
		t.Fatal(err)
	}
	if got := cat.Size(id); got != 42 {
		t.Errorf("size = %d", got)
	}
	if _, err := s.AddFile("bad", -1); err == nil {
		t.Error("negative size accepted")
	}
}

func TestNewPanicsOnNil(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(nil, nil)
}

func TestStageWithTTLAutoReleases(t *testing.T) {
	s, _ := newTestSRM(100, 60)
	rel, _, err := s.StageCtx(span.Context{}, bundle.New(0), 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if s.Stats().PinnedBytes == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.Stats().PinnedBytes; got != 0 {
		t.Fatalf("lease not reclaimed: pinned = %d", got)
	}
	rel() // post-expiry release is a no-op
	if st := s.Stats(); st.ActiveJobs != 0 {
		t.Errorf("active = %d after double release", st.ActiveJobs)
	}
}

func TestStageWithTTLEarlyReleaseCancelsTimer(t *testing.T) {
	s, _ := newTestSRM(100, 60)
	rel, _, err := s.StageCtx(span.Context{}, bundle.New(0), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	rel()
	if st := s.Stats(); st.PinnedBytes != 0 || st.ActiveJobs != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestWaitingJobsVisible(t *testing.T) {
	s, _ := newTestSRM(100, 60, 60)
	rel, _, err := s.Stage(bundle.New(0))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		rel2, _, err := s.Stage(bundle.New(1))
		if err == nil {
			rel2()
		}
		close(done)
	}()
	deadline := time.Now().Add(2 * time.Second)
	sawWaiting := false
	for time.Now().Before(deadline) {
		if s.Stats().WaitingJobs == 1 {
			sawWaiting = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !sawWaiting {
		t.Error("WaitingJobs never reported the blocked stager")
	}
	rel()
	<-done
	if st := s.Stats(); st.WaitingJobs != 0 {
		t.Errorf("WaitingJobs = %d after unblock", st.WaitingJobs)
	}
}

func TestWithStoreMirrorsResidency(t *testing.T) {
	// A tiny cache (2 unit files) over a real on-disk store: staged files
	// exist and verify; evicted files disappear from disk.
	cat := bundle.NewCatalog()
	for i := 0; i < 4; i++ {
		cat.AddAnonymous(1)
	}
	pol := core.New(2, cat.SizeFunc(), core.Options{})
	st, err := store.New(t.TempDir(), store.FetchFunc(func(f bundle.FileID) (io.ReadCloser, error) {
		return io.NopCloser(strings.NewReader(fmt.Sprintf("payload-%d", f))), nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	s := New(pol, cat).WithStore(st)

	rel, _, err := s.Stage(bundle.New(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []bundle.FileID{0, 1} {
		if !st.Contains(f) {
			t.Errorf("file %d not materialized", f)
		}
		if err := st.Verify(f); err != nil {
			t.Error(err)
		}
	}
	rc, err := s.OpenStaged(0)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(rc)
	rc.Close()
	if string(data) != "payload-0" {
		t.Errorf("content = %q", data)
	}
	rel()

	// Staging {2,3} evicts {0,1}; their bytes must vanish.
	rel2, _, err := s.Stage(bundle.New(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer rel2()
	if st.Contains(0) || st.Contains(1) {
		t.Errorf("evicted files still on disk")
	}
	if !st.Contains(2) || !st.Contains(3) {
		t.Errorf("staged files missing from disk")
	}
	if got := st.DiskUsage(); got <= 0 {
		t.Errorf("disk usage = %d", got)
	}
}

func TestOpenStagedWithoutStore(t *testing.T) {
	s, _ := newTestSRM(10, 1)
	if _, err := s.OpenStaged(0); err == nil {
		t.Error("OpenStaged without store succeeded")
	}
}
