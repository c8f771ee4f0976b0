// Package fbcache is a Go implementation of the file-bundle caching system
// from "Optimal File-Bundle Caching Algorithms for Data-Grids" (Otoo, Rotem,
// Romosan; SC 2004).
//
// In data-grid workloads a job needs *all* of its files in the disk cache
// simultaneously (a file-bundle) before it can run. Classic replacement
// policies rank files individually and routinely hold useless combinations;
// the paper's OptFileBundle policy instead tracks the bundles requested in
// the past and re-selects, on every replacement, the set of whole requests
// worth keeping — a greedy approximation (OptCacheSelect) to an NP-hard
// generalized-knapsack problem with a proven (1−e^{−1/d}) bound.
//
// This package is the public facade. It re-exports the building blocks:
//
//   - NewCache: the OptFileBundle policy over a fresh cache (the paper's
//     contribution), configurable via functional options;
//   - NewLandlord, NewLRU, NewLFU, NewGDSF, NewFIFO, NewMRU, NewRandom:
//     bundle-adapted baselines;
//   - Catalog / Bundle: the file and request vocabulary;
//   - Generate / Run / RunEvents: the §5.1 workload model and the cacheSim
//     simulators;
//   - NewSRM / ServeSRM / DialSRM: the concurrent Storage Resource Manager
//     service with its TCP protocol.
//
// A minimal session:
//
//	cat := fbcache.NewCatalog()
//	energy := cat.Add("evt-energy", 2*fbcache.GB)
//	momentum := cat.Add("evt-momentum", 1*fbcache.GB)
//	cache := fbcache.NewCache(10*fbcache.GB, cat.SizeFunc())
//	res := cache.Admit(fbcache.NewBundle(energy, momentum))
//	fmt.Println(res.Hit, res.BytesLoaded)
package fbcache

import (
	"fbcache/internal/bundle"
	"fbcache/internal/core"
	"fbcache/internal/history"
	"fbcache/internal/policy"
	"fbcache/internal/policy/classic"
	"fbcache/internal/policy/landlord"
)

// Core vocabulary, aliased from the internal packages so downstream code can
// name every type it receives.
type (
	// FileID identifies a file in a Catalog.
	FileID = bundle.FileID
	// Size is a byte count.
	Size = bundle.Size
	// Bundle is a canonical set of files a job needs simultaneously.
	Bundle = bundle.Bundle
	// SizeFunc reports file sizes.
	SizeFunc = bundle.SizeFunc
	// Catalog maps file names to IDs and sizes.
	Catalog = bundle.Catalog
	// Policy is a bundle-aware replacement policy bound to its own cache.
	Policy = policy.Policy
	// Result reports the effect of one admission.
	Result = policy.Result
)

// Size units.
const (
	KB = bundle.KB
	MB = bundle.MB
	GB = bundle.GB
	TB = bundle.TB
)

// NewBundle builds a canonical bundle from file IDs.
func NewBundle(ids ...FileID) Bundle { return bundle.New(ids...) }

// NewCatalog returns an empty file catalog.
func NewCatalog() *Catalog { return bundle.NewCatalog() }

// Option configures NewCache.
type Option func(*core.Options)

// WithHistoryWindow truncates the selection candidates to the n most
// recently seen distinct requests.
func WithHistoryWindow(n int) Option {
	return func(o *core.Options) {
		o.History.Truncation = history.Window
		o.History.Limit = n
	}
}

// WithCacheResidentHistory restricts selection candidates to requests the
// cache currently supports — the paper's §5.3 production setting, keeping
// per-admission cost constant.
func WithCacheResidentHistory() Option {
	return func(o *core.Options) { o.History.Truncation = history.CacheResident }
}

// WithFullHistory offers the complete request history to every replacement
// decision (the paper's default analytical model; cost grows with history).
func WithFullHistory() Option {
	return func(o *core.Options) { o.History.Truncation = history.Full }
}

// WithPrefetch enables the literal Algorithm 2 Step 3: non-resident files of
// selected historical requests are fetched eagerly.
func WithPrefetch() Option {
	return func(o *core.Options) { o.Prefetch = true }
}

// WithLiteralEviction rebuilds the cache to exactly the keep-set on every
// replacement (the literal Algorithm 2) instead of evicting lazily.
func WithLiteralEviction() Option {
	return func(o *core.Options) { o.LiteralEvict = true }
}

// WithSeededSelection runs the §4 k-seeded variant of OptCacheSelect on
// every replacement, raising the approximation bound to (1−e^{−1/d}) at
// polynomial extra cost. k is clamped to {1,2}.
func WithSeededSelection(k int) Option {
	return func(o *core.Options) {
		if k < 1 {
			k = 1
		}
		if k > 2 {
			k = 2
		}
		o.SeedK = k
	}
}

// NewCache returns the paper's OptFileBundle replacement policy over a fresh
// cache of the given capacity. By default it uses the practical "resort"
// greedy with cache-resident history truncation; see the Options for the
// literal variants. Policies returned by this package are not safe for
// concurrent use — wrap them in an SRM (NewSRM) to share across goroutines.
func NewCache(capacity Size, sizeOf SizeFunc, opts ...Option) Policy {
	return NewOptFileBundle(capacity, sizeOf, opts...)
}

// NewOptFileBundle is like NewCache but returns the concrete policy type,
// exposing History(), RelativeValue() and the other OptFileBundle-specific
// methods; it is also a Policy.
func NewOptFileBundle(capacity Size, sizeOf SizeFunc, opts ...Option) *core.OptFileBundle {
	o := core.DefaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	return core.New(capacity, sizeOf, o)
}

// NewLandlord returns the bundle-adapted Landlord baseline (Algorithm 3).
func NewLandlord(capacity Size, sizeOf SizeFunc) Policy {
	return landlord.New(capacity, sizeOf)
}

// NewLRU returns a bundle-adapted least-recently-used policy.
func NewLRU(capacity Size, sizeOf SizeFunc) Policy { return classic.NewLRU(capacity, sizeOf) }

// NewLFU returns a bundle-adapted least-frequently-used policy.
func NewLFU(capacity Size, sizeOf SizeFunc) Policy { return classic.NewLFU(capacity, sizeOf) }

// NewGDSF returns a bundle-adapted Greedy-Dual-Size-Frequency policy.
func NewGDSF(capacity Size, sizeOf SizeFunc) Policy { return classic.NewGDSF(capacity, sizeOf) }

// NewFIFO returns a bundle-adapted first-in-first-out policy.
func NewFIFO(capacity Size, sizeOf SizeFunc) Policy { return classic.NewFIFO(capacity, sizeOf) }

// NewMRU returns a bundle-adapted most-recently-used policy.
func NewMRU(capacity Size, sizeOf SizeFunc) Policy { return classic.NewMRU(capacity, sizeOf) }

// NewRandom returns a bundle-adapted random-replacement policy.
func NewRandom(capacity Size, sizeOf SizeFunc, seed int64) Policy {
	return classic.NewRandom(capacity, sizeOf, seed)
}
