package srm

import (
	"fmt"
	"sync"
	"testing"

	"fbcache/internal/bundle"
	"fbcache/internal/core"
)

// TestConcurrentStageRelease hammers one SRM from many goroutines with
// overlapping bundles, interleaved Stats and catalog traffic. It exists to
// be run under -race: the assertions are mild, the interleavings are the
// test.
func TestConcurrentStageRelease(t *testing.T) {
	s, cat := newTestSRM(1000, 10, 10, 10, 10, 10, 10, 10, 10)
	defer s.Close()

	const workers = 8
	const iters = 40
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Overlapping two-file bundles so goroutines contend for
				// the same pins.
				a := bundle.FileID((g + i) % 8)
				b := bundle.FileID((g + i + 1) % 8)
				rel, _, err := s.Stage(bundle.New(a, b))
				if err != nil {
					t.Errorf("worker %d: %v", g, err)
					return
				}
				_ = s.Stats()
				rel()
			}
		}(g)
	}
	// Catalog mutators race against the stagers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := s.AddFile(fmt.Sprintf("extra-%d", i), 5); err != nil {
				t.Errorf("AddFile: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	st := s.Stats()
	if st.ActiveJobs != 0 || st.PinnedBytes != 0 {
		t.Errorf("leaked pins after all releases: %+v", st)
	}
	if _, ok := cat.Lookup("extra-0"); !ok {
		t.Error("concurrent AddFile lost a registration")
	}
}

// TestConcurrentStageNames exercises the name-resolution path (the one the
// TCP server uses) concurrently with direct FileID staging.
func TestConcurrentStageNames(t *testing.T) {
	cat := bundle.NewCatalog()
	for i := 0; i < 6; i++ {
		cat.Add(fmt.Sprintf("f%d", i), 10)
	}
	pol := core.New(1000, cat.SizeFunc(), core.Options{})
	s2 := New(pol, cat)
	defer s2.Close()

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				names := []string{fmt.Sprintf("f%d", g%6), fmt.Sprintf("f%d", (g+1)%6)}
				b, err := cat.Resolve(names)
				if err != nil {
					t.Errorf("Resolve: %v", err)
					return
				}
				rel, _, err := s2.Stage(b)
				if err != nil {
					t.Errorf("Stage: %v", err)
					return
				}
				rel()
			}
		}(g)
	}
	wg.Wait()
}
