package srm

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fbcache/internal/bundle"
	"fbcache/internal/core"
	"fbcache/internal/policy"
	"fbcache/internal/store"
)

var errTransient = errors.New("transient store failure")

// testSource serves each file at its catalog size and counts what it
// serves. It fails the next fail opens, and runs onOpen (when set) before
// serving, so a test can park a fetch.
type testSource struct {
	sizeOf bundle.SizeFunc
	fail   atomic.Int64
	opens  atomic.Int64
	served atomic.Int64
	onOpen func(bundle.FileID)
}

func (s *testSource) Open(f bundle.FileID) (io.ReadCloser, error) {
	s.opens.Add(1)
	if s.fail.Add(-1) >= 0 {
		return nil, errTransient
	}
	if s.onOpen != nil {
		s.onOpen(f)
	}
	size := s.sizeOf(f)
	s.served.Add(int64(size))
	return io.NopCloser(bytes.NewReader(bytes.Repeat([]byte{byte('a' + f%26)}, int(size)))), nil
}

// newStoreSRM builds an OptFileBundle SRM over a fresh directory store.
func newStoreSRM(t *testing.T, capacity bundle.Size, fileSizes ...bundle.Size) (*SRM, *store.Store, *testSource, policy.Policy) {
	t.Helper()
	cat := bundle.NewCatalog()
	for _, size := range fileSizes {
		cat.AddAnonymous(size)
	}
	src := &testSource{sizeOf: cat.SizeFunc()}
	st, err := store.New(t.TempDir(), src)
	if err != nil {
		t.Fatal(err)
	}
	pol := core.New(capacity, cat.SizeFunc(), core.Options{})
	return New(pol, cat).WithStore(st), st, src, pol
}

// A load that fails leaves the policy counting the file resident. The next
// stage of it is a hit, and must still put its bytes on disk.
func TestFailedLoadThenHitRestages(t *testing.T) {
	s, st, src, _ := newStoreSRM(t, 100, 10)
	src.fail.Store(3) // exactly the default storeAttempts
	if _, _, err := s.Stage(bundle.New(0)); !errors.Is(err, errTransient) {
		t.Fatalf("first stage: err = %v, want the store failure", err)
	}
	if snap := s.Stats(); snap.PinnedBytes != 0 || snap.ActiveJobs != 0 {
		t.Fatalf("failed stage kept its reservation: %+v", snap)
	}

	rel, res, err := s.Stage(bundle.New(0))
	if err != nil {
		t.Fatalf("second stage: %v", err)
	}
	defer rel()
	if !res.Hit {
		t.Fatalf("second stage missed (%+v); the failed load should stay resident in the policy", res)
	}
	if !st.Contains(0) {
		t.Fatal("hit served with no bytes on disk")
	}
	if err := st.Verify(0); err != nil {
		t.Error(err)
	}
}

// While one stage is parked inside its store fetch, a release of another
// lease and a Stats call must both complete: store I/O runs outside SRM.mu.
func TestStoreIOOutsideLock(t *testing.T) {
	s, _, src, _ := newStoreSRM(t, 100, 10, 10)
	parked, gate := make(chan struct{}), make(chan struct{})
	src.onOpen = func(f bundle.FileID) {
		if f == 1 {
			close(parked)
			<-gate
		}
	}
	relA, _, err := s.Stage(bundle.New(0))
	if err != nil {
		t.Fatal(err)
	}

	staged := make(chan error, 1)
	go func() {
		rel, _, err := s.Stage(bundle.New(1))
		if err == nil {
			rel()
		}
		staged <- err
	}()
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("stage never reached its fetch")
	}

	done := make(chan struct{})
	go func() {
		relA()
		_ = s.Stats()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Error("Release and Stats blocked behind another stage's store fetch")
	}
	close(gate)
	<-done
	if err := <-staged; err != nil {
		t.Errorf("parked stage: %v", err)
	}
}

// TestStoreModelConcurrent stages and releases random overlapping bundles
// from many goroutines over a small pool and a small cache, so evictions
// and reloads of the same file race each other's store I/O. The policy,
// driven one admission at a time under SRM.mu, is the sequential model:
// the store must agree with it for every held lease, and exactly once the
// goroutines quiesce. Run under -race and -tags fbinvariant (make soak
// repeats it with -count).
func TestStoreModelConcurrent(t *testing.T) {
	const (
		capacity    = 1000
		files       = 24
		requestPool = 48
		workers     = 8
		iters       = 1000
	)
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	sizes := make([]bundle.Size, files)
	rng := rand.New(rand.NewSource(seed))
	for i := range sizes {
		// 32..128 bytes: a bundle of up to six fits, the pool (≈2 KB) does
		// not, so most admissions evict several files.
		sizes[i] = bundle.Size(32 + rng.Intn(97))
	}
	// A fixed request pool, as in §5.1's workloads, keeps the policy's
	// history (and so each -tags fbinvariant selection check) bounded.
	requests := make([]bundle.Bundle, requestPool)
	for r := range requests {
		ids := make([]bundle.FileID, 1+rng.Intn(6))
		for k := range ids {
			ids[k] = bundle.FileID(rng.Intn(files))
		}
		requests[r] = bundle.FromSlice(ids)
	}
	s, st, src, pol := newStoreSRM(t, capacity, sizes...)
	defer s.Close()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				b := requests[rng.Intn(requestPool)]
				rel, _, err := s.Stage(b)
				if err != nil {
					t.Errorf("stage %v: %v", b, err)
					return
				}
				for _, f := range b {
					if err := st.Verify(f); err != nil {
						t.Errorf("leased file: %v", err)
					}
				}
				if p := s.Stats().PinnedBytes; p > capacity {
					t.Errorf("pinned %d > capacity %d", p, capacity)
				}
				rel()
			}
		}(rand.New(rand.NewSource(seed + int64(w) + 1)))
	}
	wg.Wait()

	snap := s.Stats()
	if snap.ActiveJobs != 0 || snap.PinnedBytes != 0 {
		t.Errorf("after quiesce: %d active, %d pinned", snap.ActiveJobs, snap.PinnedBytes)
	}
	if err := pol.Cache().CheckInvariants(); err != nil {
		t.Error(err)
	}
	resident := pol.Cache().Resident()
	for _, f := range resident {
		if err := st.Verify(f); err != nil {
			t.Errorf("resident file: %v", err)
		}
	}
	entries, err := os.ReadDir(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(resident) {
		t.Errorf("store holds %d entries, policy holds %d files", len(entries), len(resident))
	}
	if du, used := st.DiskUsage(), pol.Cache().Used(); du != used {
		t.Errorf("store holds %d bytes, policy %d", du, used)
	}
	if served := bundle.Size(src.served.Load()); served != snap.BytesLoaded {
		t.Errorf("source served %d bytes, policy loaded %d", served, snap.BytesLoaded)
	}
}
