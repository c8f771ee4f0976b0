// Package classic implements the traditional popularity/recency replacement
// policies the paper's introduction (§1, §1.2) argues are insensitive to
// inter-file dependencies: LRU, MRU, LFU, FIFO, GDSF and Random — each
// adapted to bundle admissions (whole bundles load, files of the current
// request are never victims). They are the comparison floor for the
// baselines table in EXPERIMENTS.md.
//
// They share one engine: a scorer ranks resident files and the lowest score
// outside the incoming bundle is evicted until the missing files fit.
package classic

import (
	"math/rand"

	"fbcache/internal/bundle"
	"fbcache/internal/cache"
	"fbcache/internal/floats"
	"fbcache/internal/policy"
)

// scorer ranks files for eviction: lower score evicts first.
type scorer interface {
	name() string
	// onTouch is called for every file of an admitted bundle (hit or load).
	onTouch(f bundle.FileID, now int64)
	// onInsert is called when a file becomes resident.
	onInsert(f bundle.FileID, now int64)
	// onEvict is called when a file leaves.
	onEvict(f bundle.FileID)
	// score returns the eviction priority of a resident file.
	score(f bundle.FileID) float64
}

// Base is the shared bundle-admission engine parameterized by a scorer.
type Base struct {
	cache  *cache.Cache
	sizeOf bundle.SizeFunc
	sc     scorer
	clock  int64
}

func newBase(capacity bundle.Size, sizeOf bundle.SizeFunc, sc scorer) *Base {
	if sizeOf == nil {
		panic("classic: nil SizeFunc")
	}
	return &Base{cache: cache.New(capacity), sizeOf: sizeOf, sc: sc}
}

// Name implements policy.Policy.
func (p *Base) Name() string { return p.sc.name() }

// Cache implements policy.Policy.
func (p *Base) Cache() *cache.Cache { return p.cache }

// Admit implements policy.Policy.
func (p *Base) Admit(b bundle.Bundle) policy.Result {
	p.clock++
	res := policy.Result{BytesRequested: b.TotalSize(p.sizeOf)}
	if res.BytesRequested > p.cache.Capacity() {
		res.Unserviceable = true
		return res
	}

	if p.cache.Supports(b) {
		res.Hit = true
		for _, f := range b {
			p.sc.onTouch(f, p.clock)
		}
		return res
	}

	missing := p.cache.Missing(b)
	needed := missing.TotalSize(p.sizeOf)

	for p.cache.Free() < needed {
		victim, ok := p.victim(b)
		if !ok {
			break // only pinned/demanded files remain
		}
		if err := p.cache.Evict(victim); err != nil {
			break
		}
		p.sc.onEvict(victim)
		res.FilesEvicted++
		res.Evicted = append(res.Evicted, victim)
	}

	for _, f := range missing {
		if err := p.cache.Insert(f, p.sizeOf(f)); err != nil {
			continue
		}
		p.sc.onInsert(f, p.clock)
		res.FilesLoaded++
		res.BytesLoaded += p.sizeOf(f)
		res.Loaded = append(res.Loaded, f)
	}
	for _, f := range b {
		if p.cache.Contains(f) {
			p.sc.onTouch(f, p.clock)
		}
	}
	res.Evicted = bundle.FromSlice(res.Evicted)
	return res
}

// victim picks the lowest-scoring resident file outside b; ties break toward
// the smaller FileID for determinism.
func (p *Base) victim(b bundle.Bundle) (bundle.FileID, bool) {
	resident := p.cache.Resident()
	var best bundle.FileID
	bestScore := 0.0
	found := false
	for _, f := range resident {
		if b.Contains(f) || p.cache.Pinned(f) {
			continue
		}
		s := p.sc.score(f)
		if !found || floats.Less(s, bestScore) || (floats.AlmostEqual(s, bestScore) && f < best) {
			best, bestScore, found = f, s, true
		}
	}
	return best, found
}

var _ policy.Policy = (*Base)(nil)

// ---- LRU ----

type lruScorer struct{ last map[bundle.FileID]int64 }

func (s *lruScorer) name() string                        { return "lru" }
func (s *lruScorer) onTouch(f bundle.FileID, now int64)  { s.last[f] = now }
func (s *lruScorer) onInsert(f bundle.FileID, now int64) { s.last[f] = now }
func (s *lruScorer) onEvict(f bundle.FileID)             { delete(s.last, f) }
func (s *lruScorer) score(f bundle.FileID) float64       { return float64(s.last[f]) }

// NewLRU returns a least-recently-used policy.
func NewLRU(capacity bundle.Size, sizeOf bundle.SizeFunc) *Base {
	return newBase(capacity, sizeOf, &lruScorer{last: make(map[bundle.FileID]int64)})
}

// ---- MRU ----

type mruScorer struct{ lruScorer }

func (s *mruScorer) name() string                  { return "mru" }
func (s *mruScorer) score(f bundle.FileID) float64 { return -float64(s.last[f]) }

// NewMRU returns a most-recently-used policy (a pathological baseline that
// shows bundle workloads punish recency inversion).
func NewMRU(capacity bundle.Size, sizeOf bundle.SizeFunc) *Base {
	return newBase(capacity, sizeOf, &mruScorer{lruScorer{last: make(map[bundle.FileID]int64)}})
}

// ---- LFU ----

type lfuScorer struct {
	count map[bundle.FileID]int64
	last  map[bundle.FileID]int64
}

func (s *lfuScorer) name() string { return "lfu" }
func (s *lfuScorer) onTouch(f bundle.FileID, now int64) {
	s.count[f]++
	s.last[f] = now
}
func (s *lfuScorer) onInsert(f bundle.FileID, now int64) {
	// Frequency persists across evictions? Classic in-cache LFU forgets; we
	// forget on evict (see onEvict), so insert starts at zero and onTouch
	// immediately bumps it.
	s.last[f] = now
}
func (s *lfuScorer) onEvict(f bundle.FileID) {
	delete(s.count, f)
	delete(s.last, f)
}
func (s *lfuScorer) score(f bundle.FileID) float64 {
	// Primary: frequency. Secondary: recency (scaled far below one count).
	// The outer conversion rounds the product on its own, so no GOARCH can
	// fuse it into the add.
	return float64(s.count[f]) + float64(float64(s.last[f])*1e-12)
}

// NewLFU returns a least-frequently-used policy with LRU tie-breaking.
func NewLFU(capacity bundle.Size, sizeOf bundle.SizeFunc) *Base {
	return newBase(capacity, sizeOf, &lfuScorer{
		count: make(map[bundle.FileID]int64),
		last:  make(map[bundle.FileID]int64),
	})
}

// ---- FIFO ----

type fifoScorer struct{ in map[bundle.FileID]int64 }

func (s *fifoScorer) name() string                        { return "fifo" }
func (s *fifoScorer) onTouch(bundle.FileID, int64)        {}
func (s *fifoScorer) onInsert(f bundle.FileID, now int64) { s.in[f] = now }
func (s *fifoScorer) onEvict(f bundle.FileID)             { delete(s.in, f) }
func (s *fifoScorer) score(f bundle.FileID) float64       { return float64(s.in[f]) }

// NewFIFO returns a first-in-first-out policy.
func NewFIFO(capacity bundle.Size, sizeOf bundle.SizeFunc) *Base {
	return newBase(capacity, sizeOf, &fifoScorer{in: make(map[bundle.FileID]int64)})
}

// ---- GDSF ----

type gdsfScorer struct {
	sizeOf bundle.SizeFunc
	pri    map[bundle.FileID]float64
	freq   map[bundle.FileID]int64
	l      float64 // inflation level: priority of the last eviction
}

func (s *gdsfScorer) name() string { return "gdsf" }
func (s *gdsfScorer) recompute(f bundle.FileID) {
	size := float64(s.sizeOf(f))
	if size <= 0 {
		size = 1
	}
	// Greedy-Dual-Size-Frequency with cost = size: H = L + freq*cost/size
	// = L + freq.
	s.pri[f] = s.l + float64(s.freq[f])*float64(s.sizeOf(f))/size
}
func (s *gdsfScorer) onTouch(f bundle.FileID, _ int64) {
	s.freq[f]++
	s.recompute(f)
}
func (s *gdsfScorer) onInsert(f bundle.FileID, _ int64) {
	s.recompute(f)
}
func (s *gdsfScorer) onEvict(f bundle.FileID) {
	if p := s.pri[f]; p > s.l {
		s.l = p
	}
	delete(s.pri, f)
	delete(s.freq, f)
}
func (s *gdsfScorer) score(f bundle.FileID) float64 { return s.pri[f] }

// NewGDSF returns a Greedy-Dual-Size-Frequency policy (Cao & Irani's
// cost-aware family, the web-caching state of the art cited as [1]).
func NewGDSF(capacity bundle.Size, sizeOf bundle.SizeFunc) *Base {
	return newBase(capacity, sizeOf, &gdsfScorer{
		sizeOf: sizeOf,
		pri:    make(map[bundle.FileID]float64),
		freq:   make(map[bundle.FileID]int64),
	})
}

// ---- Random ----

type randomScorer struct {
	rng *rand.Rand
	pri map[bundle.FileID]float64
}

func (s *randomScorer) name() string                 { return "random" }
func (s *randomScorer) onTouch(bundle.FileID, int64) {}
func (s *randomScorer) onInsert(f bundle.FileID, _ int64) {
	s.pri[f] = s.rng.Float64()
}
func (s *randomScorer) onEvict(f bundle.FileID)       { delete(s.pri, f) }
func (s *randomScorer) score(f bundle.FileID) float64 { return s.pri[f] }

// NewRandom returns a random-replacement policy seeded deterministically.
func NewRandom(capacity bundle.Size, sizeOf bundle.SizeFunc, seed int64) *Base {
	return newBase(capacity, sizeOf, &randomScorer{
		rng: rand.New(rand.NewSource(seed)),
		pri: make(map[bundle.FileID]float64),
	})
}

// Factories for the experiment harness.

// LRUFactory returns a policy.Factory for LRU.
func LRUFactory() policy.Factory {
	return func(c bundle.Size, s bundle.SizeFunc) policy.Policy { return NewLRU(c, s) }
}

// MRUFactory returns a policy.Factory for MRU.
func MRUFactory() policy.Factory {
	return func(c bundle.Size, s bundle.SizeFunc) policy.Policy { return NewMRU(c, s) }
}

// LFUFactory returns a policy.Factory for LFU.
func LFUFactory() policy.Factory {
	return func(c bundle.Size, s bundle.SizeFunc) policy.Policy { return NewLFU(c, s) }
}

// FIFOFactory returns a policy.Factory for FIFO.
func FIFOFactory() policy.Factory {
	return func(c bundle.Size, s bundle.SizeFunc) policy.Policy { return NewFIFO(c, s) }
}

// GDSFFactory returns a policy.Factory for GDSF.
func GDSFFactory() policy.Factory {
	return func(c bundle.Size, s bundle.SizeFunc) policy.Policy { return NewGDSF(c, s) }
}

// RandomFactory returns a policy.Factory for Random with the given seed.
func RandomFactory(seed int64) policy.Factory {
	return func(c bundle.Size, s bundle.SizeFunc) policy.Policy { return NewRandom(c, s, seed) }
}
