package core

import (
	"math"
	"math/rand"
	"testing"

	"fbcache/internal/bundle"
	"fbcache/internal/history"
)

func unitSize(bundle.FileID) bundle.Size { return 1 }

func TestAdmitColdMissLoadsAll(t *testing.T) {
	p := New(10, unitSize, Options{})
	res := p.Admit(bundle.New(1, 2, 3))
	if res.Hit {
		t.Error("cold request reported hit")
	}
	if res.BytesRequested != 3 || res.BytesLoaded != 3 || res.FilesLoaded != 3 {
		t.Errorf("res = %+v", res)
	}
	if !p.Cache().Supports(bundle.New(1, 2, 3)) {
		t.Error("files not resident after admit")
	}
}

func TestAdmitRepeatIsHit(t *testing.T) {
	p := New(10, unitSize, Options{})
	p.Admit(bundle.New(1, 2))
	res := p.Admit(bundle.New(2, 1))
	if !res.Hit || res.BytesLoaded != 0 || res.FilesLoaded != 0 {
		t.Errorf("res = %+v", res)
	}
}

func TestAdmitPartialOverlapLoadsOnlyMissing(t *testing.T) {
	p := New(10, unitSize, Options{})
	p.Admit(bundle.New(1, 2))
	res := p.Admit(bundle.New(2, 3))
	if res.Hit {
		t.Error("partial overlap reported hit")
	}
	if res.BytesLoaded != 1 || res.FilesLoaded != 1 {
		t.Errorf("res = %+v, want 1 byte / 1 file loaded", res)
	}
}

func TestAdmitUnserviceable(t *testing.T) {
	p := New(2, unitSize, Options{})
	res := p.Admit(bundle.New(1, 2, 3))
	if !res.Unserviceable {
		t.Fatal("oversized bundle not flagged")
	}
	if res.BytesLoaded != 0 || p.Cache().Len() != 0 {
		t.Error("oversized bundle caused loading")
	}
	// It still informs the history.
	if p.History().Len() != 1 {
		t.Error("unserviceable request not recorded in history")
	}
}

func TestReplacementKeepsValuableBundle(t *testing.T) {
	// Cache of 4 unit files. Make {1,2} popular, then push {3,4}, then force
	// a replacement with {5,6}: the policy must evict {3,4}, not {1,2}.
	p := New(4, unitSize, Options{})
	for i := 0; i < 5; i++ {
		p.Admit(bundle.New(1, 2))
	}
	p.Admit(bundle.New(3, 4)) // cache now {1,2,3,4}, full
	res := p.Admit(bundle.New(5, 6))
	if res.Hit {
		t.Fatal("unexpected hit")
	}
	if !p.Cache().Supports(bundle.New(1, 2)) {
		t.Errorf("popular bundle evicted; resident = %v", p.Cache().Resident())
	}
	if !p.Cache().Supports(bundle.New(5, 6)) {
		t.Error("incoming bundle not resident")
	}
	if p.Cache().Contains(3) || p.Cache().Contains(4) {
		t.Errorf("cold files kept; resident = %v", p.Cache().Resident())
	}
	// The popular bundle still hits afterwards.
	if r := p.Admit(bundle.New(1, 2)); !r.Hit {
		t.Error("popular bundle lost after replacement")
	}
}

func TestReplacementPrefersCombinationOverPopularity(t *testing.T) {
	// Paper's central claim, end to end: after observing the Fig. 3 request
	// mix, a full cache of 3 must converge to holding {f1,f3,f5} — not the
	// most popular files {f5,f6,f7}. The strict convergence claim needs the
	// paper-literal rebuild (LiteralEvict) plus prefetch of the keep-set.
	p := New(3, unitSize, Options{LiteralEvict: true, Prefetch: true})
	reqs := []bundle.Bundle{
		bundle.New(1, 3, 5), bundle.New(2, 4, 6, 7), bundle.New(1, 5),
		bundle.New(4, 6, 7), bundle.New(3, 5), bundle.New(5, 6, 7),
	}
	// Warm the history with the full mix several times. Bundles of size > 3
	// are unserviceable in a capacity-3 cache, which is fine: they still
	// count toward values/degrees exactly as Table 1 requires.
	for round := 0; round < 4; round++ {
		for _, r := range reqs {
			p.Admit(r)
		}
	}
	// Drive with a serviceable request and inspect what the policy keeps.
	p.Admit(bundle.New(1, 5))
	resident := p.Cache().Resident()
	if !resident.Equal(bundle.New(1, 3, 5)) {
		t.Errorf("cache holds %v, want {f1,f3,f5}", resident)
	}
}

func TestLiteralEvictRebuildsCache(t *testing.T) {
	p := New(4, unitSize, Options{LiteralEvict: true})
	p.Admit(bundle.New(1, 2))
	p.Admit(bundle.New(3, 4))
	// With literal eviction, every admission that triggers replace rebuilds
	// the cache to keep-set only. Admit {1,2} again: hit, no rebuild.
	res := p.Admit(bundle.New(1, 2))
	if !res.Hit {
		t.Fatal("expected hit")
	}
	// New bundle {5}: replace runs even though 0 bytes are strictly needed
	// beyond free space (LiteralEvict forces the rebuild path).
	p.Admit(bundle.New(5))
	if err := p.Cache().CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestPrefetchLoadsSelectedBundles(t *testing.T) {
	p := New(6, unitSize, Options{Prefetch: true, LiteralEvict: true})
	// Make {1,2,3} very popular.
	for i := 0; i < 10; i++ {
		p.Admit(bundle.New(1, 2, 3))
	}
	// Fill with junk so {1,2,3} gets evicted...
	p.Admit(bundle.New(4, 5, 6))
	// ...then request something small. Prefetch should pull {1,2,3} back.
	res := p.Admit(bundle.New(7))
	total := res.BytesLoaded
	if total < 1 {
		t.Fatalf("res = %+v", res)
	}
	if !p.Cache().Supports(bundle.New(1, 2, 3)) {
		t.Errorf("popular bundle not prefetched; resident = %v", p.Cache().Resident())
	}
}

func TestPinnedFilesSurviveReplacement(t *testing.T) {
	p := New(4, unitSize, Options{})
	p.Admit(bundle.New(1, 2))
	if err := p.Cache().PinBundle(bundle.New(1, 2)); err != nil {
		t.Fatal(err)
	}
	p.Admit(bundle.New(3, 4))
	// Replacement needed; pinned 1,2 must stay.
	p.Admit(bundle.New(5, 6))
	if !p.Cache().Supports(bundle.New(1, 2)) {
		t.Errorf("pinned files evicted; resident = %v", p.Cache().Resident())
	}
	if !p.Cache().Supports(bundle.New(5, 6)) {
		t.Error("request not serviced")
	}
}

func TestByteAccountingMatchesCacheCounters(t *testing.T) {
	sizes := map[bundle.FileID]bundle.Size{1: 5, 2: 7, 3: 11, 4: 13, 5: 17}
	sizeOf := func(f bundle.FileID) bundle.Size { return sizes[f] }
	p := New(30, sizeOf, Options{})
	var totalLoaded bundle.Size
	for _, b := range []bundle.Bundle{
		bundle.New(1, 2), bundle.New(2, 3), bundle.New(4, 5), bundle.New(1, 2),
	} {
		totalLoaded += p.Admit(b).BytesLoaded
	}
	loaded, _, _, _ := p.Cache().Counters()
	if loaded != totalLoaded {
		t.Errorf("policy counted %d loaded bytes, cache counted %d", totalLoaded, loaded)
	}
	if err := p.Cache().CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestNamesDistinguishVariants(t *testing.T) {
	if got := New(1, unitSize, Options{}).Name(); got != "optfilebundle" {
		t.Errorf("Name = %q", got)
	}
	if got := New(1, unitSize, Options{SeedK: 2}).Name(); got != "optfilebundle-k2" {
		t.Errorf("seeded Name = %q", got)
	}
}

func TestNilSizeFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(1, nil, Options{})
}

// Fuzz-style stress: random workloads must never violate cache invariants,
// never exceed capacity, and hits must never load bytes.
func TestRandomWorkloadInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	sizes := make([]bundle.Size, 64)
	for i := range sizes {
		sizes[i] = bundle.Size(1 + rng.Intn(20))
	}
	sizeOf := func(f bundle.FileID) bundle.Size { return sizes[f] }
	for _, opts := range []Options{
		{},
		{LiteralEvict: true},
		{Prefetch: true},
		{History: history.Config{Truncation: history.Window, Limit: 8}},
		{SeedK: 1, History: history.Config{Truncation: history.Window, Limit: 6}},
	} {
		p := New(60, sizeOf, opts)
		for step := 0; step < 400; step++ {
			n := 1 + rng.Intn(4)
			ids := make([]bundle.FileID, n)
			for i := range ids {
				ids[i] = bundle.FileID(rng.Intn(64))
			}
			b := bundle.New(ids...)
			res := p.Admit(b)
			if res.Hit && res.BytesLoaded != 0 {
				t.Fatalf("opts %+v: hit loaded %d bytes", opts, res.BytesLoaded)
			}
			if !res.Unserviceable && !p.Cache().Supports(b) {
				t.Fatalf("opts %+v: serviced request not resident", opts)
			}
			if err := p.Cache().CheckInvariants(); err != nil {
				t.Fatalf("opts %+v step %d: %v", opts, step, err)
			}
		}
	}
}

func BenchmarkAdmitWindowHistory(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	p := New(1000, unitSize, Options{
		History: history.Config{Truncation: history.Window, Limit: 64},
	})
	bundles := make([]bundle.Bundle, 256)
	for i := range bundles {
		ids := make([]bundle.FileID, 1+rng.Intn(5))
		for j := range ids {
			ids[j] = bundle.FileID(rng.Intn(2000))
		}
		bundles[i] = bundle.New(ids...)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Admit(bundles[i%len(bundles)])
	}
}

func TestAdmitEmptyBundleIsHit(t *testing.T) {
	p := New(10, unitSize, Options{})
	res := p.Admit(bundle.New())
	if !res.Hit || res.BytesLoaded != 0 || res.BytesRequested != 0 {
		t.Errorf("empty bundle: %+v", res)
	}
}

func TestAdmitDuplicateIDsCanonicalized(t *testing.T) {
	p := New(10, unitSize, Options{})
	res := p.Admit(bundle.New(3, 3, 3))
	if res.BytesLoaded != 1 {
		t.Errorf("duplicate IDs loaded %d bytes, want 1", res.BytesLoaded)
	}
}

func TestRelativeValueSemantics(t *testing.T) {
	p := New(10, unitSize, Options{})
	p.Admit(bundle.New(1, 2)) // resident; value 1
	// Fully resident bundle scores +Inf.
	if v := p.RelativeValue(bundle.New(1, 2)); !math.IsInf(v, 1) {
		t.Errorf("resident relative value = %v, want +Inf", v)
	}
	// Unseen, absent bundle: value 1 over adjusted sizes.
	v := p.RelativeValue(bundle.New(7, 8))
	if v <= 0 || math.IsInf(v, 0) {
		t.Errorf("cold relative value = %v", v)
	}
	// Popular bundles outrank cold ones at equal cost.
	for i := 0; i < 5; i++ {
		p.Admit(bundle.New(5, 6))
	}
	if err := p.Cache().Evict(5); err != nil {
		t.Fatal(err)
	}
	if err := p.Cache().Evict(6); err != nil {
		t.Fatal(err)
	}
	hot := p.RelativeValue(bundle.New(5, 6))
	cold := p.RelativeValue(bundle.New(7, 8))
	if hot <= cold {
		t.Errorf("hot %v not above cold %v", hot, cold)
	}
}
