package policy

import (
	"fmt"

	"fbcache/internal/bundle"
	"fbcache/internal/cache"
)

// Bypass is an admission filter implementing the "file caching policy" leg
// of §1's policy trio: files larger than a fraction of the cache are served
// as pass-through transfers — their bytes count as miss traffic, but they
// are never cached, so one giant cold file cannot wipe out a working set of
// hot bundles. The wrapped policy sees the bundle with the oversized files
// removed.
type Bypass struct {
	inner   Policy
	sizeOf  bundle.SizeFunc
	maxSize bundle.Size
}

// NewBypass wraps inner; files with size > frac×capacity bypass the cache.
// frac must be in (0, 1].
func NewBypass(inner Policy, sizeOf bundle.SizeFunc, frac float64) *Bypass {
	if inner == nil || sizeOf == nil {
		panic("policy: nil inner policy or SizeFunc")
	}
	if frac <= 0 || frac > 1 {
		panic(fmt.Sprintf("policy: bypass fraction %v outside (0,1]", frac))
	}
	return &Bypass{
		inner:   inner,
		sizeOf:  sizeOf,
		maxSize: bundle.Size(frac * float64(inner.Cache().Capacity())),
	}
}

// Name implements Policy.
func (p *Bypass) Name() string { return p.inner.Name() + "+bypass" }

// Cache implements Policy.
func (p *Bypass) Cache() *cache.Cache { return p.inner.Cache() }

// Admit implements Policy. Oversized files are charged as loaded bytes on
// every request (they are re-transferred each time) but never enter the
// cache; the request hits only if the cacheable remainder hits and no
// oversized file is present (a pass-through transfer is always a miss).
func (p *Bypass) Admit(b bundle.Bundle) Result {
	var cacheable []bundle.FileID
	var passBytes bundle.Size
	passFiles := 0
	for _, f := range b {
		if s := p.sizeOf(f); s > p.maxSize {
			passBytes += s
			passFiles++
			continue
		}
		cacheable = append(cacheable, f)
	}

	res := p.inner.Admit(bundle.FromSlice(cacheable))
	res.BytesRequested += passBytes
	res.BytesLoaded += passBytes
	res.FilesLoaded += passFiles
	if passFiles > 0 {
		res.Hit = false
	}
	return res
}

var _ Policy = (*Bypass)(nil)
