// Package cluster models the §2 deployment where "an SRM's host that
// consists of a cluster of machines may have its disk cache distributed
// over independent disks of the cluster nodes": files hash to nodes, each
// node runs its own replacement policy over its own disk, and a job's
// request-hit requires every file resident on its assigned node
// simultaneously.
//
// Sharding trades the monolithic cache's global replacement decisions for
// parallel disks; the ShardingStudy experiment quantifies the byte-miss
// cost of that fragmentation.
package cluster

import (
	"fmt"
	"sync"

	"fbcache/internal/bundle"
	"fbcache/internal/metrics"
	"fbcache/internal/policy"
	"fbcache/internal/workload"
)

// AssignFunc maps a file to a node index.
type AssignFunc func(bundle.FileID) int

// Sharded is a cluster-distributed cache: one policy instance per node.
// Admit is serialized by mu; the node policies themselves are the
// single-goroutine policies of internal/policy, so concurrent admissions
// must not interleave inside them either.
type Sharded struct {
	// Immutable after New.
	nodes  []policy.Policy
	assign AssignFunc
	sizeOf bundle.SizeFunc

	mu sync.Mutex
	// scratch reused across admissions to avoid per-call allocation.
	shards [][]bundle.FileID // guarded by mu
}

// New builds a sharded cache with `nodes` node-local policies created by
// mk, each with capacity/nodes of the total. assign nil defaults to modular
// hashing.
func New(totalCapacity bundle.Size, numNodes int, sizeOf bundle.SizeFunc, mk policy.Factory, assign AssignFunc) (*Sharded, error) {
	if numNodes <= 0 {
		return nil, fmt.Errorf("cluster: need at least one node, got %d", numNodes)
	}
	if sizeOf == nil || mk == nil {
		return nil, fmt.Errorf("cluster: nil SizeFunc or Factory")
	}
	if assign == nil {
		n := numNodes
		assign = func(f bundle.FileID) int { return int(f) % n }
	}
	perNode := totalCapacity / bundle.Size(numNodes)
	s := &Sharded{
		assign: assign,
		sizeOf: sizeOf,
		shards: make([][]bundle.FileID, numNodes),
	}
	for i := 0; i < numNodes; i++ {
		s.nodes = append(s.nodes, mk(perNode, sizeOf))
	}
	return s, nil
}

// Node exposes one node's policy (for inspection).
func (s *Sharded) Node(i int) policy.Policy { return s.nodes[i] }

// Name identifies the configuration.
func (s *Sharded) Name() string {
	return fmt.Sprintf("%s-sharded%d", s.nodes[0].Name(), len(s.nodes))
}

// Admit splits the bundle across nodes, admits each shard on its node, and
// merges the results: the job hits only if every shard hit.
func (s *Sharded) Admit(b bundle.Bundle) policy.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.shards {
		s.shards[i] = s.shards[i][:0]
	}
	for _, f := range b {
		n := s.assign(f)
		if n < 0 || n >= len(s.nodes) {
			panic(fmt.Sprintf("cluster: assign(%d) = %d outside %d nodes", f, n, len(s.nodes)))
		}
		s.shards[n] = append(s.shards[n], f)
	}

	merged := policy.Result{Hit: true}
	for n, files := range s.shards {
		if len(files) == 0 {
			continue
		}
		res := s.nodes[n].Admit(bundle.New(files...))
		merged.Hit = merged.Hit && res.Hit
		merged.BytesRequested += res.BytesRequested
		merged.BytesLoaded += res.BytesLoaded
		merged.FilesLoaded += res.FilesLoaded
		merged.FilesEvicted += res.FilesEvicted
		merged.Loaded = merged.Loaded.Union(res.Loaded)
		merged.Evicted = merged.Evicted.Union(res.Evicted)
		if res.Unserviceable {
			merged.Unserviceable = true
		}
	}
	if merged.Unserviceable {
		merged.Hit = false
	}
	return merged
}

// CheckInvariants verifies every node's cache.
func (s *Sharded) CheckInvariants() error {
	for i, n := range s.nodes {
		if err := n.Cache().CheckInvariants(); err != nil {
			return fmt.Errorf("cluster: node %d: %w", i, err)
		}
	}
	return nil
}

// Used reports total bytes resident across nodes.
func (s *Sharded) Used() bundle.Size {
	var total bundle.Size
	for _, n := range s.nodes {
		total += n.Cache().Used()
	}
	return total
}

// Imbalance reports max/mean node utilization — the load-balance cost of
// hashing files to disks (1.0 = perfectly even).
func (s *Sharded) Imbalance() float64 {
	if len(s.nodes) == 0 {
		return 0
	}
	var max, total bundle.Size
	for _, n := range s.nodes {
		u := n.Cache().Used()
		total += u
		if u > max {
			max = u
		}
	}
	if total == 0 {
		return 1
	}
	mean := float64(total) / float64(len(s.nodes))
	return float64(max) / mean
}

// Run drives a workload through the sharded cache and collects metrics
// (the cluster counterpart of simulate.Run).
func Run(w *workload.Workload, s *Sharded, warmup int) (*metrics.Collector, error) {
	if w == nil || s == nil {
		return nil, fmt.Errorf("cluster: nil workload or sharded cache")
	}
	col := &metrics.Collector{}
	for i, j := range w.Jobs {
		res := s.Admit(w.Requests[j])
		if i >= warmup {
			col.Record(res)
		}
	}
	return col, nil
}
