package fbcache

import (
	"fbcache/internal/cluster"
	"fbcache/internal/core"
	"fbcache/internal/policy"
	"fbcache/internal/prefetch"
)

// Cluster-distributed caches (§2: "disk cache distributed over independent
// disks of the cluster nodes").
type (
	// ShardedCache distributes the disk cache across node-local policies.
	ShardedCache = cluster.Sharded
	// PolicyFactory builds fresh policy instances (one per node / run).
	PolicyFactory = policy.Factory
)

// NewShardedCache builds a cluster cache: numNodes node-local policies of
// totalCapacity/numNodes each; files hash to nodes (assign nil = modular).
func NewShardedCache(totalCapacity Size, numNodes int, sizeOf SizeFunc, mk PolicyFactory, assign func(FileID) int) (*ShardedCache, error) {
	return cluster.New(totalCapacity, numNodes, sizeOf, mk, assign)
}

// OptFileBundlePolicyFactory returns a factory for default-configured
// OptFileBundle policies (cache-resident history), for sharded caches and
// experiment sweeps.
func OptFileBundlePolicyFactory() PolicyFactory {
	return policy.OptFileBundleFactory(core.DefaultOptions())
}

// Association prefetching (§1's "pre-fetching").
type (
	// PrefetchModel is the learned file co-occurrence model.
	PrefetchModel = prefetch.Model
	// Prefetcher wraps a policy with co-occurrence prefetching.
	Prefetcher = prefetch.Prefetcher
	// PrefetchOptions tunes fan-out and confidence threshold.
	PrefetchOptions = prefetch.Options
)

// WithAssociationPrefetch wraps any policy with co-occurrence prefetching
// into free cache space (speculation never evicts).
func WithAssociationPrefetch(inner Policy, sizeOf SizeFunc, opts PrefetchOptions) *Prefetcher {
	return prefetch.Wrap(inner, sizeOf, opts)
}
