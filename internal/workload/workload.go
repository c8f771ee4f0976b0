// Package workload implements the paper's synthetic workload model (§5.1):
// a pool of files whose sizes are uniform between a minimum (1MB in the
// paper) and a percentage of the cache size, a pool of candidate requests
// each bundling a random set of files that fits in the cache, and a job
// arrival sequence drawn from the pool under a Uniform or Zipf popularity
// law.
//
// Every stochastic choice is driven by the Spec's seed, so a Spec is a
// complete, reproducible description of an experiment's input.
package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"fbcache/internal/bundle"
	"fbcache/internal/stats"
)

// Popularity selects the request popularity law.
type Popularity int

const (
	// Uniform makes every pooled request equally likely (the paper's
	// "purely random distribution").
	Uniform Popularity = iota
	// Zipf assigns the i-th most popular request probability ∝ 1/i^S.
	Zipf
)

func (p Popularity) String() string {
	switch p {
	case Uniform:
		return "uniform"
	case Zipf:
		return "zipf"
	}
	return fmt.Sprintf("Popularity(%d)", int(p))
}

// ParsePopularity maps a command-line name, case-insensitively, to its
// Popularity: "uniform" or "zipf". Any other name is an error, so a typo
// cannot silently select a different popularity law.
func ParsePopularity(s string) (Popularity, error) {
	switch strings.ToLower(s) {
	case "uniform":
		return Uniform, nil
	case "zipf":
		return Zipf, nil
	}
	return Uniform, fmt.Errorf("unknown popularity %q (want uniform or zipf)", s)
}

// Spec describes a synthetic workload. The zero value is not valid; use
// DefaultSpec as a starting point.
type Spec struct {
	// Seed drives all random choices.
	Seed int64
	// CacheSize is the reference cache capacity files are sized against.
	CacheSize bundle.Size
	// NumFiles is the size of the file pool.
	NumFiles int
	// MinFileSize is the smallest file (paper: 1MB).
	MinFileSize bundle.Size
	// MaxFilePct caps file sizes at this fraction of CacheSize
	// (paper: 1% to 10%).
	MaxFilePct float64
	// NumRequests is the size of the request pool.
	NumRequests int
	// MaxBundleFiles caps the number of files per request; each request
	// draws its bundle size uniformly from [1, MaxBundleFiles].
	MaxBundleFiles int
	// MaxBundleFrac caps a request's total bytes at this fraction of
	// CacheSize (paper: total requested size smaller than the cache).
	MaxBundleFrac float64
	// Popularity selects Uniform or Zipf job sampling.
	Popularity Popularity
	// ZipfS is the Zipf exponent (paper: 1).
	ZipfS float64
	// Jobs is the number of job arrivals to generate (paper: 10000).
	Jobs int
	// Clusters, when > 0, partitions the file pool into this many disjoint
	// clusters and draws each request's files within a single cluster —
	// modelling the file sharing real vertical partitioning produces
	// (analyses over the same dataset reuse the same attribute files). The
	// paper's generator (Clusters = 0) picks files uniformly from the whole
	// pool, which understates sharing.
	Clusters int
}

// DefaultSpec returns the baseline configuration used across experiments:
// a 10GB cache, 1MB minimum files capped at 5% of the cache, bundles of at
// most 6 files filling at most 50% of the cache, 10000 jobs.
func DefaultSpec() Spec {
	return Spec{
		Seed:           1,
		CacheSize:      10 * bundle.GB,
		NumFiles:       400,
		MinFileSize:    bundle.MB,
		MaxFilePct:     0.05,
		NumRequests:    200,
		MaxBundleFiles: 6,
		MaxBundleFrac:  0.5,
		Popularity:     Uniform,
		ZipfS:          1,
		Jobs:           10000,
	}
}

// Validate reports the first problem with the spec, or nil.
func (s Spec) Validate() error {
	switch {
	case s.CacheSize <= 0:
		return errors.New("workload: CacheSize must be positive")
	case s.NumFiles <= 0:
		return errors.New("workload: NumFiles must be positive")
	case s.MinFileSize <= 0:
		return errors.New("workload: MinFileSize must be positive")
	case s.MaxFilePct <= 0 || s.MaxFilePct > 1:
		return errors.New("workload: MaxFilePct must be in (0,1]")
	case bundle.Size(s.MaxFilePct*float64(s.CacheSize)) < s.MinFileSize:
		return errors.New("workload: MaxFilePct*CacheSize below MinFileSize")
	case s.NumRequests <= 0:
		return errors.New("workload: NumRequests must be positive")
	case s.MaxBundleFiles <= 0:
		return errors.New("workload: MaxBundleFiles must be positive")
	case s.MaxBundleFrac <= 0 || s.MaxBundleFrac > 1:
		return errors.New("workload: MaxBundleFrac must be in (0,1]")
	case s.Popularity == Zipf && s.ZipfS < 0:
		return errors.New("workload: ZipfS must be >= 0")
	case s.Jobs < 0:
		return errors.New("workload: Jobs must be >= 0")
	case s.Clusters < 0 || s.Clusters > s.NumFiles:
		return errors.New("workload: Clusters must be in [0, NumFiles]")
	}
	return nil
}

// Workload is a generated workload: the file catalog, the request pool and
// the job arrival sequence (indices into Requests).
type Workload struct {
	Spec     Spec
	Catalog  *bundle.Catalog
	Requests []bundle.Bundle
	Jobs     []int
}

// Generate builds a workload from the spec.
func Generate(spec Spec) (*Workload, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))

	cat := bundle.NewCatalog()
	maxFile := bundle.Size(spec.MaxFilePct * float64(spec.CacheSize))
	for i := 0; i < spec.NumFiles; i++ {
		span := int64(maxFile - spec.MinFileSize)
		size := spec.MinFileSize
		if span > 0 {
			size += bundle.Size(rng.Int63n(span + 1))
		}
		cat.AddAnonymous(size)
	}
	sizeOf := cat.SizeFunc()

	budget := bundle.Size(spec.MaxBundleFrac * float64(spec.CacheSize))
	requests := make([]bundle.Bundle, 0, spec.NumRequests)
	seen := make(map[string]bool, spec.NumRequests)
	const maxAttempts = 64
	for len(requests) < spec.NumRequests {
		b, ok := genBundle(rng, spec, sizeOf, budget)
		if !ok {
			return nil, fmt.Errorf("workload: cannot build a bundle within %v", budget)
		}
		key := b.Key()
		if seen[key] {
			// Retry a bounded number of times, then accept duplicates — tiny
			// pools (e.g. NumFiles=2) cannot yield NumRequests distinct sets.
			dup := 0
			for seen[key] && dup < maxAttempts {
				b, ok = genBundle(rng, spec, sizeOf, budget)
				if !ok {
					return nil, fmt.Errorf("workload: cannot build a bundle within %v", budget)
				}
				key = b.Key()
				dup++
			}
		}
		seen[key] = true
		requests = append(requests, b)
	}

	var sampler stats.Sampler
	switch spec.Popularity {
	case Zipf:
		sampler = stats.NewZipf(rng, len(requests), spec.ZipfS)
	default:
		sampler = stats.NewUniform(rng, len(requests))
	}
	jobs := make([]int, spec.Jobs)
	for i := range jobs {
		jobs[i] = sampler.Next()
	}

	return &Workload{Spec: spec, Catalog: cat, Requests: requests, Jobs: jobs}, nil
}

// genBundle draws one candidate bundle that fits the byte budget. With
// Clusters > 0 the files come from one randomly chosen cluster (files are
// assigned to clusters round-robin by ID).
func genBundle(rng *rand.Rand, spec Spec, sizeOf bundle.SizeFunc, budget bundle.Size) (bundle.Bundle, bool) {
	n := 1 + rng.Intn(spec.MaxBundleFiles)
	drawFile := func() bundle.FileID {
		return bundle.FileID(rng.Intn(spec.NumFiles))
	}
	if spec.Clusters > 0 {
		cluster := rng.Intn(spec.Clusters)
		clusterSize := (spec.NumFiles + spec.Clusters - 1) / spec.Clusters
		if n > clusterSize {
			n = clusterSize
		}
		drawFile = func() bundle.FileID {
			// Files of cluster c are ids with id % Clusters == c.
			k := rng.Intn(clusterSize)
			id := k*spec.Clusters + cluster
			if id >= spec.NumFiles {
				id = cluster
			}
			return bundle.FileID(id)
		}
	}
	picked := make(map[bundle.FileID]bool, n)
	var ids []bundle.FileID
	var total bundle.Size
	for attempts := 0; len(ids) < n && attempts < 16*n; attempts++ {
		f := drawFile()
		if picked[f] {
			continue
		}
		if total+sizeOf(f) > budget {
			continue
		}
		picked[f] = true
		ids = append(ids, f)
		total += sizeOf(f)
	}
	if len(ids) == 0 {
		return nil, false
	}
	return bundle.FromSlice(ids), true
}

// JobBundle returns the bundle of the i-th job arrival.
func (w *Workload) JobBundle(i int) bundle.Bundle { return w.Requests[w.Jobs[i]] }

// MeanRequestBytes reports the mean total size of the pooled requests.
func (w *Workload) MeanRequestBytes() bundle.Size {
	if len(w.Requests) == 0 {
		return 0
	}
	var total bundle.Size
	sizeOf := w.Catalog.SizeFunc()
	for _, r := range w.Requests {
		total += r.TotalSize(sizeOf)
	}
	return total / bundle.Size(len(w.Requests))
}

// CacheSizeInRequests reports the cache capacity divided by the mean request
// size — the paper's unit for reporting cache sizes (§5: "we measure cache
// sizes by the number of requests that can be accommodated in the cache").
func (w *Workload) CacheSizeInRequests() float64 {
	mean := w.MeanRequestBytes()
	if mean == 0 {
		return 0
	}
	return float64(w.Spec.CacheSize) / float64(mean)
}
