package prefetch

import (
	"testing"

	"fbcache/internal/bundle"
	"fbcache/internal/policy/classic"
)

func unit(bundle.FileID) bundle.Size { return 1 }

func TestModelConfidence(t *testing.T) {
	m := NewModel()
	m.Observe(bundle.New(1, 2))
	m.Observe(bundle.New(1, 2))
	m.Observe(bundle.New(1, 3))
	if got := m.Confidence(1, 2); got != 2.0/3 {
		t.Errorf("Confidence(1,2) = %v, want 2/3", got)
	}
	if got := m.Confidence(2, 1); got != 1 {
		t.Errorf("Confidence(2,1) = %v, want 1", got)
	}
	if got := m.Confidence(9, 1); got != 0 {
		t.Errorf("Confidence(unseen) = %v", got)
	}
}

func TestModelRelated(t *testing.T) {
	m := NewModel()
	for i := 0; i < 4; i++ {
		m.Observe(bundle.New(1, 2)) // conf(1->2) = 4/5
	}
	m.Observe(bundle.New(1, 3)) // conf(1->3) = 1/5
	rel := m.Related(1, 5, 0.5)
	if len(rel) != 1 || rel[0] != 2 {
		t.Errorf("Related = %v, want [2]", rel)
	}
	rel = m.Related(1, 5, 0.1)
	if len(rel) != 2 || rel[0] != 2 || rel[1] != 3 {
		t.Errorf("Related loose = %v, want [2 3]", rel)
	}
	if m.Related(1, 0, 0) != nil {
		t.Error("k=0 returned files")
	}
	if m.Related(99, 3, 0) != nil {
		t.Error("unseen file returned relations")
	}
}

func TestRelatedDeterministicTieBreak(t *testing.T) {
	m := NewModel()
	m.Observe(bundle.New(1, 5, 3)) // conf(1->5) = conf(1->3) = 1
	rel := m.Related(1, 2, 0.5)
	if len(rel) != 2 || rel[0] != 3 || rel[1] != 5 {
		t.Errorf("Related = %v, want [3 5]", rel)
	}
}

func TestPrefetcherTurnsAssociatedMissesIntoHits(t *testing.T) {
	// {x,y} always requested together; external pressure evicts y; a later
	// {x} admission must prefetch y back so the next {x,y} is a hit. The
	// plain policy misses every round.
	run := func(wrap bool) (hits int) {
		inner := classic.NewLRU(6, unit)
		var admit func(bundle.Bundle) bool
		if wrap {
			w := Wrap(inner, unit, Options{FanOut: 2, MinConfidence: 0.6})
			admit = func(b bundle.Bundle) bool { return w.Admit(b).Hit }
		} else {
			admit = func(b bundle.Bundle) bool { return inner.Admit(b).Hit }
		}
		x, y := bundle.FileID(1), bundle.FileID(2)
		for round := 0; round < 20; round++ {
			admit(bundle.New(x, y)) // learn the association
			if inner.Cache().Contains(y) {
				if err := inner.Cache().Evict(y); err != nil { // external pressure
					t.Fatal(err)
				}
			}
			admit(bundle.New(x)) // hit on x; the wrapper may prefetch y
			if admit(bundle.New(x, y)) {
				hits++
			}
		}
		return hits
	}
	plain, wrapped := run(false), run(true)
	t.Logf("bundle hits: plain lru=%d, lru+prefetch=%d", plain, wrapped)
	if plain != 0 {
		t.Errorf("plain LRU unexpectedly hit %d times", plain)
	}
	if wrapped < 15 {
		t.Errorf("prefetch wrapper hits = %d, want most rounds after learning", wrapped)
	}
}

func TestPrefetcherNeverEvicts(t *testing.T) {
	inner := classic.NewLRU(3, unit)
	w := Wrap(inner, unit, Options{FanOut: 4, MinConfidence: 0.1})
	// Teach strong associations among 4 files that cannot all fit.
	for i := 0; i < 5; i++ {
		w.Admit(bundle.New(1, 2))
		w.Admit(bundle.New(1, 3))
	}
	// Fill the cache exactly; prefetch must not push anything out.
	w.Admit(bundle.New(7, 8, 9))
	if !inner.Cache().Supports(bundle.New(7, 8, 9)) {
		t.Errorf("speculation evicted demanded files; resident = %v", inner.Cache().Resident())
	}
}

func TestPrefetcherAccounting(t *testing.T) {
	inner := classic.NewLRU(10, unit)
	w := Wrap(inner, unit, Options{FanOut: 1, MinConfidence: 0.5})
	w.Admit(bundle.New(1, 2))
	// Evict nothing; drop 2 manually to force a re-fetch via prefetch.
	if err := inner.Cache().Evict(2); err != nil {
		t.Fatal(err)
	}
	res := w.Admit(bundle.New(1)) // hit on 1, prefetches 2
	if res.BytesLoaded != 1 || res.FilesLoaded != 1 {
		t.Errorf("res loaded %d bytes / %d files, want the prefetch folded in", res.BytesLoaded, res.FilesLoaded)
	}
	if !inner.Cache().Contains(2) {
		t.Error("2 not prefetched")
	}
	if w.Name() != "lru+prefetch" {
		t.Errorf("Name = %q", w.Name())
	}
}

func TestWrapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Wrap(nil, unit, Options{})
}

// TestRelatedCutsTiesByID gives f more equally confident associates than
// k: the cut must keep the k lowest IDs, in order, whatever order the
// co-occurrence map yields them in. Repeated so that a cut taken before
// sorting cannot pass by luck of the map order.
func TestRelatedCutsTiesByID(t *testing.T) {
	ids := []bundle.FileID{1}
	for g := bundle.FileID(40); g > 20; g-- {
		ids = append(ids, g)
	}
	for range 20 {
		m := NewModel()
		m.Observe(bundle.New(ids...)) // conf(1->g) = 1 for all 20 associates
		rel := m.Related(1, 3, 0.5)
		if len(rel) != 3 || rel[0] != 21 || rel[1] != 22 || rel[2] != 23 {
			t.Fatalf("Related = %v, want [21 22 23]", rel)
		}
	}
}
