package store

import (
	"sync"
	"testing"

	"fbcache/internal/bundle"
)

// TestConcurrentStageRemove drives overlapping Stage / Remove / Contains /
// Verify / DiskUsage traffic from many goroutines. The assertions are mild;
// the point is the interleavings under -race (per-entry staging locks vs
// the store-wide bookkeeping mutex).
func TestConcurrentStageRemove(t *testing.T) {
	s := newStore(t)

	const workers = 8
	const iters = 30
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				f := bundle.FileID((g + i) % 5)
				switch i % 4 {
				case 0:
					if _, _, err := s.Stage(f, 0); err != nil {
						t.Errorf("Stage(%d): %v", f, err)
						return
					}
				case 1:
					if s.Contains(f) {
						// Verify may race a Remove; losing the file between
						// the check and the hash is a legal interleaving.
						_ = s.Verify(f)
					}
				case 2:
					_ = s.Remove(f, 0)
				case 3:
					if du := s.DiskUsage(); du < 0 {
						t.Errorf("negative disk usage %d", du)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// Quiesced store must be internally consistent: restage everything and
	// check the accounting adds up.
	var want bundle.Size
	for f := bundle.FileID(0); f < 5; f++ {
		size, _, err := s.Stage(f, 0)
		if err != nil {
			t.Fatalf("final Stage(%d): %v", f, err)
		}
		want += size
	}
	if got := s.DiskUsage(); got != want {
		t.Errorf("disk usage %d after quiesce, want %d", got, want)
	}
}

// TestConcurrentStageBundleSameFiles stages the same bundle from many
// goroutines at once; every staging must succeed and the file must land
// exactly once.
func TestConcurrentStageBundleSameFiles(t *testing.T) {
	s := newStore(t)
	b := bundle.New(1, 2, 3)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, f := range b {
				if _, _, err := s.Stage(f, s.Intent(f)); err != nil {
					t.Errorf("Stage(%d): %v", f, err)
				}
			}
		}()
	}
	wg.Wait()

	for _, f := range b {
		if !s.Contains(f) {
			t.Errorf("file %d missing after concurrent staging", f)
		}
		if err := s.Verify(f); err != nil {
			t.Errorf("Verify(%d): %v", f, err)
		}
	}
}
