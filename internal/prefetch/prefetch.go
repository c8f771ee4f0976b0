// Package prefetch implements the "pre-fetching" leg of §1's optimization
// toolbox: a co-occurrence model learned from the request stream, and a
// policy wrapper that speculatively pulls files strongly associated with
// the current request into *free* cache space (never evicting for
// speculation).
//
// OptFileBundle has its own principled prefetch (Algorithm 2 Step 3,
// core.Options.Prefetch); this wrapper gives the same superpower to the
// classic single-file baselines, quantifying how far association rules
// close the gap to bundle-aware replacement.
package prefetch

import (
	"sort"

	"fbcache/internal/bundle"
	"fbcache/internal/cache"
	"fbcache/internal/floats"
	"fbcache/internal/policy"
)

// Model tracks pairwise co-request statistics between files.
// Confidence(f→g) = co(f,g) / seen(f): the fraction of f's requests that
// also wanted g.
type Model struct {
	co   map[bundle.FileID]map[bundle.FileID]float64
	seen map[bundle.FileID]float64
}

// NewModel returns an empty co-occurrence model.
func NewModel() *Model {
	return &Model{
		co:   make(map[bundle.FileID]map[bundle.FileID]float64),
		seen: make(map[bundle.FileID]float64),
	}
}

// Observe records one request: every file pair in b co-occurred once.
func (m *Model) Observe(b bundle.Bundle) {
	for _, f := range b {
		m.seen[f]++
	}
	for i, f := range b {
		for j, g := range b {
			if i == j {
				continue
			}
			row := m.co[f]
			if row == nil {
				row = make(map[bundle.FileID]float64)
				m.co[f] = row
			}
			row[g]++
		}
	}
}

// Confidence reports P(g requested | f requested) as observed.
func (m *Model) Confidence(f, g bundle.FileID) float64 {
	if floats.AlmostZero(m.seen[f]) {
		return 0
	}
	return m.co[f][g] / m.seen[f]
}

// Related returns up to k files associated with f at confidence >=
// minConfidence, strongest first (ties toward smaller IDs for determinism).
func (m *Model) Related(f bundle.FileID, k int, minConfidence float64) []bundle.FileID {
	row := m.co[f]
	if len(row) == 0 || k <= 0 {
		return nil
	}
	type cand struct {
		id   bundle.FileID
		conf float64
	}
	cands := make([]cand, 0, len(row))
	for g := range row {
		if c := m.Confidence(f, g); c >= minConfidence {
			cands = append(cands, cand{id: g, conf: c})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if !floats.AlmostEqual(cands[i].conf, cands[j].conf) {
			return cands[i].conf > cands[j].conf
		}
		return cands[i].id < cands[j].id
	})
	if len(cands) > k {
		cands = cands[:k]
	}
	out := make([]bundle.FileID, len(cands))
	for i, c := range cands {
		out[i] = c.id
	}
	return out
}

// Options tunes the Prefetcher.
type Options struct {
	// FanOut is the maximum number of speculative files pulled per admitted
	// request (default 2).
	FanOut int
	// MinConfidence is the association threshold (default 0.5).
	MinConfidence float64
}

// Prefetcher wraps a Policy with co-occurrence prefetching. Speculative
// loads go through the inner policy as singleton admissions, but only when
// they fit in free space — speculation never evicts. Prefetch traffic is
// folded into the returned Result's byte counters so comparisons stay
// honest.
type Prefetcher struct {
	inner  policy.Policy
	sizeOf bundle.SizeFunc
	model  *Model
	opts   Options
}

// Wrap builds a Prefetcher around inner.
func Wrap(inner policy.Policy, sizeOf bundle.SizeFunc, opts Options) *Prefetcher {
	if inner == nil || sizeOf == nil {
		panic("prefetch: nil inner policy or SizeFunc")
	}
	if opts.FanOut <= 0 {
		opts.FanOut = 2
	}
	if opts.MinConfidence <= 0 {
		opts.MinConfidence = 0.5
	}
	return &Prefetcher{inner: inner, sizeOf: sizeOf, model: NewModel(), opts: opts}
}

// Name implements policy.Policy.
func (p *Prefetcher) Name() string { return p.inner.Name() + "+prefetch" }

// Cache implements policy.Policy.
func (p *Prefetcher) Cache() *cache.Cache { return p.inner.Cache() }

// Model exposes the learned association model.
func (p *Prefetcher) Model() *Model { return p.model }

// Admit implements policy.Policy: learn, admit, then speculate into free
// space.
func (p *Prefetcher) Admit(b bundle.Bundle) policy.Result {
	p.model.Observe(b)
	res := p.inner.Admit(b)
	if res.Unserviceable {
		return res
	}
	c := p.inner.Cache()
	budget := p.opts.FanOut
	for _, f := range b {
		if budget <= 0 {
			break
		}
		for _, g := range p.model.Related(f, p.opts.FanOut, p.opts.MinConfidence) {
			if budget <= 0 {
				break
			}
			if c.Contains(g) {
				continue
			}
			size := p.sizeOf(g)
			if c.Free() < size {
				continue
			}
			// Admit through the policy so its bookkeeping (recency, credits)
			// knows the file; free space guarantees no eviction.
			specRes := p.inner.Admit(bundle.New(g))
			res.BytesLoaded += specRes.BytesLoaded
			res.FilesLoaded += specRes.FilesLoaded
			res.Loaded = res.Loaded.Union(specRes.Loaded)
			budget--
		}
	}
	return res
}

var _ policy.Policy = (*Prefetcher)(nil)
