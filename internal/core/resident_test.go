package core

import (
	"math/rand"
	"testing"

	"fbcache/internal/bundle"
	"fbcache/internal/cache"
	"fbcache/internal/history"
	"fbcache/internal/invariant"
)

// TestResidentEntriesMatchesMinusSupports checks the §5.3 candidate filter
// against its definition, cache.Supports(e.Bundle.Minus(b)), over random
// caches, histories and incoming bundles: the same entries, in the same
// order. File IDs range past both the cache's residency words and the
// incoming set's words, and one fileSet serves every trial, so bits left
// from earlier bundles would show up as wrong answers.
func TestResidentEntriesMatchesMinusSupports(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var in fileSet
	randomBundle := func(universe int) bundle.Bundle {
		ids := make([]bundle.FileID, rng.Intn(6))
		for j := range ids {
			ids[j] = bundle.FileID(rng.Intn(universe))
		}
		return bundle.New(ids...)
	}
	for trial := range 3000 {
		universe := 1 + rng.Intn(40)
		c := cache.New(bundle.Size(universe))
		for range rng.Intn(universe + 1) {
			_ = c.Insert(bundle.FileID(rng.Intn(universe)), 1) // re-insertion is a no-op
		}
		entries := make([]*history.Entry, rng.Intn(30))
		for i := range entries {
			entries[i] = &history.Entry{Bundle: randomBundle(universe + 8)}
		}
		b := randomBundle(universe + 8)

		var want []*history.Entry
		for _, e := range entries {
			if c.Supports(e.Bundle.Minus(b)) {
				want = append(want, e)
			}
		}
		in.reset()
		for _, f := range b {
			in.add(f)
		}
		got := residentEntries(residentView(nil, c, &in), entries)
		if len(got) != len(want) {
			t.Fatalf("trial %d: filter kept %d entries, reference %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: entry %d is %v, reference %v", trial, i, got[i].Bundle, want[i].Bundle)
			}
		}
	}
}

// TestCacheResidentMissAllocatesNothing pins the steady-state cost of the
// shipped configuration: cache-resident admits that miss, run OptCacheSelect
// and evict allocate nothing once the scratch has grown. One measured run of
// four whole passes makes the count exact.
func TestCacheResidentMissAllocatesNothing(t *testing.T) {
	if invariant.Enabled {
		t.Skip("armed invariant checks box their format arguments")
	}
	p, bundles := warmAdmitLoop(missCapacity, missOptions, nil)
	misses, evicted := 0, 0
	allocs := testing.AllocsPerRun(1, func() {
		for range 4 {
			for _, bd := range bundles {
				res := p.Admit(bd)
				if !res.Hit {
					misses++
				}
				evicted += res.FilesEvicted
			}
		}
	})
	if misses == 0 || evicted == 0 {
		t.Fatalf("passes ran %d misses and %d evictions; want both > 0", misses, evicted)
	}
	if allocs != 0 {
		t.Errorf("steady-state cache-resident passes allocate %v times, want 0", allocs)
	}
}
