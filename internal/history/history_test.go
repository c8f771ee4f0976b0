package history

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"fbcache/internal/bundle"
)

func TestObserveAccumulatesValue(t *testing.T) {
	h := New(Config{})
	b := bundle.New(1, 2, 3)
	e1 := h.Observe(b)
	if e1.Value != 1 {
		t.Fatalf("first observe: value=%v", e1.Value)
	}
	e2 := h.Observe(bundle.New(3, 2, 1)) // same canonical bundle
	if e1 != e2 {
		t.Fatal("equal bundles created distinct entries")
	}
	if e2.Value != 2 {
		t.Errorf("second observe: value=%v", e2.Value)
	}
	if h.Len() != 1 {
		t.Errorf("Len = %d", h.Len())
	}
	if e2.LastSeen != 2 {
		t.Errorf("LastSeen = %d, want 2", e2.LastSeen)
	}
}

// degree reads d(f) as the length of f's posting list: 0 for a file never
// seen, where DegreeFunc floors at 1.
func degree(h *History, f bundle.FileID) int {
	return len(h.SlotsOf(f))
}

func TestDegrees(t *testing.T) {
	h := New(Config{})
	h.Observe(bundle.New(1, 2))
	h.Observe(bundle.New(2, 3))
	h.Observe(bundle.New(2, 3)) // repeat: degree counts distinct requests
	h.Observe(bundle.New(3))

	wantDeg := map[bundle.FileID]int{1: 1, 2: 2, 3: 2}
	for f, w := range wantDeg {
		if got := degree(h, f); got != w {
			t.Errorf("Degree(%d) = %d, want %d", f, got, w)
		}
	}
	df := h.DegreeFunc()
	if df(99) != 1 {
		t.Errorf("DegreeFunc floor = %d, want 1", df(99))
	}
	if h.MaxDegree() != 2 {
		t.Errorf("MaxDegree = %d", h.MaxDegree())
	}
}

func TestPaperExampleDegrees(t *testing.T) {
	// The reconstructed Fig. 3 example: d(f5) = 4 is the paper's quoted d.
	h := New(Config{})
	for _, b := range [][]bundle.FileID{
		{1, 3, 5}, {2, 4, 6, 7}, {1, 5}, {4, 6, 7}, {3, 5}, {5, 6, 7},
	} {
		h.Observe(bundle.New(b...))
	}
	want := map[bundle.FileID]int{1: 2, 2: 1, 3: 2, 4: 2, 5: 4, 6: 3, 7: 3}
	for f, w := range want {
		if got := degree(h, f); got != w {
			t.Errorf("Degree(f%d) = %d, want %d", f, got, w)
		}
	}
	if h.MaxDegree() != 4 {
		t.Errorf("MaxDegree = %d, want 4 (paper: d=4 via f5)", h.MaxDegree())
	}
}

// Limit bounds only a Window: Full and CacheResident offer every entry.
func TestCandidatesFull(t *testing.T) {
	for _, tr := range []Truncation{Full, CacheResident} {
		h := New(Config{Truncation: tr, Limit: 2})
		h.Observe(bundle.New(1))
		h.Observe(bundle.New(2))
		h.Observe(bundle.New(3))
		if got := len(h.Candidates()); got != 3 {
			t.Errorf("%v truncation returned %d candidates, want 3", tr, got)
		}
	}
}

func TestCandidatesWindow(t *testing.T) {
	h := New(Config{Truncation: Window, Limit: 2})
	h.Observe(bundle.New(1))
	h.Observe(bundle.New(2))
	h.Observe(bundle.New(3))
	h.Observe(bundle.New(1)) // refresh 1
	cands := h.Candidates()
	if len(cands) != 2 {
		t.Fatalf("window returned %d", len(cands))
	}
	keys := map[string]bool{}
	for _, e := range cands {
		keys[e.Bundle.Key()] = true
	}
	if !keys[bundle.New(1).Key()] || !keys[bundle.New(3).Key()] {
		t.Errorf("window kept wrong entries: %v", keys)
	}
}

func TestLookup(t *testing.T) {
	h := New(Config{})
	h.Observe(bundle.New(4, 5))
	if _, ok := h.Lookup(bundle.New(5, 4)); !ok {
		t.Error("Lookup missed canonical-equal bundle")
	}
	if _, ok := h.Lookup(bundle.New(4)); ok {
		t.Error("Lookup found non-existent bundle")
	}
}

func TestTruncationString(t *testing.T) {
	for tr, want := range map[Truncation]string{
		Full: "full", Window: "window", CacheResident: "cache-resident", Truncation(9): "Truncation(9)",
	} {
		if got := tr.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

// Property: sum of degrees equals sum of bundle lengths over distinct entries,
// and every candidate set is a subset of the full history.
func TestQuickDegreeConsistency(t *testing.T) {
	f := func(raw [][]uint16, limit uint8) bool {
		h := New(Config{Truncation: Window, Limit: int(limit % 8)})
		for _, ids := range raw {
			if len(ids) == 0 {
				continue
			}
			fids := make([]bundle.FileID, len(ids))
			for i, v := range ids {
				fids[i] = bundle.FileID(v % 16)
			}
			h.Observe(bundle.New(fids...))
		}
		sumDeg := 0
		for f := bundle.FileID(0); f < 16; f++ {
			sumDeg += degree(h, f)
		}
		sumLen := 0
		for _, e := range New(Config{}).Candidates() {
			_ = e
		}
		full := New(Config{})
		// Rebuild to count distinct lengths.
		seen := map[string]bool{}
		for _, ids := range raw {
			if len(ids) == 0 {
				continue
			}
			fids := make([]bundle.FileID, len(ids))
			for i, v := range ids {
				fids[i] = bundle.FileID(v % 16)
			}
			b := bundle.New(fids...)
			if !seen[b.Key()] {
				seen[b.Key()] = true
				sumLen += b.Len()
			}
			full.Observe(b)
		}
		if sumDeg != sumLen {
			return false
		}
		if len(h.Candidates()) > h.Len() {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkObserve(b *testing.B) {
	h := New(Config{})
	bundles := make([]bundle.Bundle, 512)
	for i := range bundles {
		bundles[i] = bundle.New(bundle.FileID(i), bundle.FileID(i+1), bundle.FileID(2*i))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(bundles[i%len(bundles)])
	}
}

// TestSlotsOfMatchesScan holds the posting index to a scan of the history:
// for every file, the slots of the entries that contain it, ascending, over
// random histories large enough that lists move inside the arena many
// times. Repeated observations must not post an entry twice.
func TestSlotsOfMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := range 50 {
		universe := 1 + rng.Intn(200)
		h := New(Config{})
		for range rng.Intn(400) {
			ids := make([]bundle.FileID, rng.Intn(8))
			for j := range ids {
				ids[j] = bundle.FileID(rng.Intn(universe))
			}
			h.Observe(bundle.New(ids...))
		}
		for f := range bundle.FileID(universe + 1) {
			var want []int32
			for j := range h.Len() {
				if h.At(j).Bundle.Contains(f) {
					want = append(want, int32(j))
				}
			}
			if got := h.SlotsOf(f); !slices.Equal(got, want) {
				t.Fatalf("trial %d: SlotsOf(%d) = %v, scan %v", trial, f, got, want)
			}
		}
	}
}
