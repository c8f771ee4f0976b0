package cluster

import (
	"sync"
	"testing"

	"fbcache/internal/bundle"
	"fbcache/internal/core"
	"fbcache/internal/policy"
	"fbcache/internal/policy/classic"
	"fbcache/internal/simulate"
	"fbcache/internal/workload"
)

func unit(bundle.FileID) bundle.Size { return 1 }

func optFactory() policy.Factory {
	return policy.OptFileBundleFactory(core.Options{})
}

func TestNewValidation(t *testing.T) {
	if _, err := New(100, 0, unit, optFactory(), nil); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := New(100, 2, nil, optFactory(), nil); err == nil {
		t.Error("nil sizeOf accepted")
	}
	if _, err := New(100, 2, unit, nil, nil); err == nil {
		t.Error("nil factory accepted")
	}
	s, err := New(100, 4, unit, optFactory(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.nodes) != 4 {
		t.Errorf("nodes = %d", len(s.nodes))
	}
	if s.Node(0).Cache().Capacity() != 25 {
		t.Errorf("per-node capacity = %d, want 25", s.Node(0).Cache().Capacity())
	}
	if s.Name() != "optfilebundle-sharded4" {
		t.Errorf("Name = %q", s.Name())
	}
}

func TestAdmitSplitsAcrossNodes(t *testing.T) {
	s, err := New(40, 2, unit, classic.LRUFactory(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Files 1,3 go to node 1; 2,4 to node 0 (modular hashing).
	res := s.Admit(bundle.New(1, 2, 3, 4))
	if res.Hit || res.BytesLoaded != 4 {
		t.Errorf("res = %+v", res)
	}
	if !s.Node(1).Cache().Supports(bundle.New(1, 3)) {
		t.Errorf("node 1 resident = %v", s.Node(1).Cache().Resident())
	}
	if !s.Node(0).Cache().Supports(bundle.New(2, 4)) {
		t.Errorf("node 0 resident = %v", s.Node(0).Cache().Resident())
	}
	// Full-bundle hit needs all shards resident.
	res = s.Admit(bundle.New(1, 2, 3, 4))
	if !res.Hit {
		t.Error("repeat not a hit")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if s.Used() != 4 {
		t.Errorf("Used = %d", s.Used())
	}
}

// TestConcurrentAdmit admits overlapping bundles from several goroutines.
// Admit serializes them on s.mu: the shard scratch and the node policies are
// single-goroutine state, so under -race an admission outside the lock is a
// reported data race.
func TestConcurrentAdmit(t *testing.T) {
	const files, nodes = 32, 4
	s, err := New(40, nodes, unit, optFactory(), nil)
	if err != nil {
		t.Fatal(err)
	}
	const workers, iters = 4, 200
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				b := bundle.New(bundle.FileID((g+i)%files), bundle.FileID((3*g+7*i)%files),
					bundle.FileID((g*i)%files))
				if res := s.Admit(b); res.Unserviceable {
					t.Errorf("worker %d: %v unserviceable on %d-file nodes", g, b, 40/nodes)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if used := s.Used(); used > 40 {
		t.Errorf("used %d > capacity 40", used)
	}
}

func TestShardHitRequiresAllShards(t *testing.T) {
	s, err := New(40, 2, unit, classic.LRUFactory(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Admit(bundle.New(1, 2))
	// Evict node 1's file behind the cluster's back.
	if err := s.Node(1).Cache().Evict(1); err != nil {
		t.Fatal(err)
	}
	res := s.Admit(bundle.New(1, 2))
	if res.Hit {
		t.Error("hit despite missing shard")
	}
	if res.BytesLoaded != 1 {
		t.Errorf("loaded %d, want only the missing shard", res.BytesLoaded)
	}
}

func TestShardUnserviceable(t *testing.T) {
	// Per-node capacity 2; a bundle sending 3 files to one node cannot be
	// staged even though the total cache (4) is big enough.
	s, err := New(4, 2, unit, classic.LRUFactory(), func(bundle.FileID) int { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	res := s.Admit(bundle.New(1, 2, 3))
	if !res.Unserviceable || res.Hit {
		t.Errorf("res = %+v", res)
	}
}

func TestImbalance(t *testing.T) {
	s, err := New(40, 2, unit, classic.LRUFactory(), func(f bundle.FileID) int { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Imbalance(); got != 1 {
		t.Errorf("empty cluster imbalance = %v", got)
	}
	s.Admit(bundle.New(1, 2, 3)) // everything on node 0
	if got := s.Imbalance(); got != 2 {
		t.Errorf("fully skewed imbalance = %v, want 2 (max/mean with 2 nodes)", got)
	}
}

func TestBadAssignPanics(t *testing.T) {
	s, err := New(10, 2, unit, classic.LRUFactory(), func(bundle.FileID) int { return 99 })
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	s.Admit(bundle.New(1))
}

func TestShardingCostVsMonolithic(t *testing.T) {
	// The §2 trade-off, quantified: hashing files to independent disks
	// fragments capacity, so the sharded cache's byte miss ratio is at
	// least the monolithic cache's (same total bytes, same policy).
	spec := workload.DefaultSpec()
	spec.Jobs = 2500
	spec.NumFiles = 120
	spec.NumRequests = 80
	spec.CacheSize = 2 * bundle.GB
	spec.MaxBundleFrac = 0.2
	spec.Popularity = workload.Zipf
	w, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	mono := optFactory()(spec.CacheSize, w.Catalog.SizeFunc())
	colMono, err := simulate.Run(w, mono, simulate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := New(spec.CacheSize, 4, w.Catalog.SizeFunc(), optFactory(), nil)
	if err != nil {
		t.Fatal(err)
	}
	colShard, err := Run(w, sharded, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("byte miss: monolithic=%.4f sharded4=%.4f imbalance=%.2f",
		colMono.ByteMissRatio(), colShard.ByteMissRatio(), sharded.Imbalance())
	if colShard.ByteMissRatio() < colMono.ByteMissRatio()*0.98 {
		t.Errorf("sharded %.4f mysteriously below monolithic %.4f",
			colShard.ByteMissRatio(), colMono.ByteMissRatio())
	}
	if err := sharded.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(nil, nil, 0); err == nil {
		t.Error("nil inputs accepted")
	}
}
