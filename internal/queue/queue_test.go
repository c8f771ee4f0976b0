package queue

import (
	"testing"

	"fbcache/internal/bundle"
)

func pend(bundles ...bundle.Bundle) []Pending {
	out := make([]Pending, len(bundles))
	for i, b := range bundles {
		out[i] = Pending{Bundle: b}
	}
	return out
}

func TestFCFSAlwaysPicksFirst(t *testing.T) {
	s := FCFS()
	pending := pend(bundle.New(1), bundle.New(2), bundle.New(3))
	if got := s.Pick(pending); got != 0 {
		t.Errorf("Pick = %d", got)
	}
	if s.Name() != "fcfs" {
		t.Errorf("Name = %q", s.Name())
	}
}

func TestByScorePicksMaxWithFCFSTieBreak(t *testing.T) {
	scores := map[string]float64{
		bundle.New(1).Key(): 1,
		bundle.New(2).Key(): 5,
		bundle.New(3).Key(): 5,
	}
	s := ByScore("test", func(b bundle.Bundle) float64 { return scores[b.Key()] })
	pending := pend(bundle.New(1), bundle.New(2), bundle.New(3))
	if got := s.Pick(pending); got != 1 {
		t.Errorf("Pick = %d, want 1 (first of the tied maxima)", got)
	}
}

func TestSJF(t *testing.T) {
	sizeOf := func(f bundle.FileID) bundle.Size { return bundle.Size(f) }
	s := SJF(sizeOf)
	pending := pend(bundle.New(10), bundle.New(2), bundle.New(5))
	if got := s.Pick(pending); got != 1 {
		t.Errorf("SJF picked %d, want 1 (smallest)", got)
	}
}

func TestAgeLimitGuardsLockout(t *testing.T) {
	// A scheduler that always prefers bundle {9} would starve others; the
	// age guard must force the starved job out after maxAge passes.
	favorite := ByScore("fav", func(b bundle.Bundle) float64 {
		if b.Contains(9) {
			return 1
		}
		return 0
	})
	s := AgeLimit(favorite, 3)
	pending := []Pending{
		{Bundle: bundle.New(1), Age: 0},
		{Bundle: bundle.New(9), Age: 0},
	}
	if got := s.Pick(pending); got != 1 {
		t.Errorf("young queue: Pick = %d, want favorite", got)
	}
	pending[0].Age = 3 // passed over three times
	if got := s.Pick(pending); got != 0 {
		t.Errorf("aged queue: Pick = %d, want starved job", got)
	}
	// Oldest over-age job wins among several.
	pending = append(pending, Pending{Bundle: bundle.New(2), Age: 7})
	if got := s.Pick(pending); got != 2 {
		t.Errorf("Pick = %d, want oldest over-age", got)
	}
	if s.Name() != "fav+age3" {
		t.Errorf("Name = %q", s.Name())
	}
}

func TestAgeLimitClamps(t *testing.T) {
	s := AgeLimit(FCFS(), 0)
	// maxAge clamps to 1: any job with Age >= 1 is served immediately.
	pending := []Pending{{Bundle: bundle.New(1), Age: 0}, {Bundle: bundle.New(2), Age: 1}}
	if got := s.Pick(pending); got != 1 {
		t.Errorf("Pick = %d", got)
	}
}

func TestBatcherDrainsInScoreOrder(t *testing.T) {
	var served []bundle.FileID
	score := func(b bundle.Bundle) float64 { return float64(b[0]) }
	b := NewBatcher(3, ByScore("desc", score), func(r bundle.Bundle) {
		served = append(served, r[0])
	})
	b.Submit(bundle.New(1))
	b.Submit(bundle.New(3))
	if len(served) != 0 {
		t.Fatalf("served before queue full: %v", served)
	}
	if b.Pending() != 2 {
		t.Errorf("Pending = %d", b.Pending())
	}
	b.Submit(bundle.New(2)) // queue reaches 3 -> full drain
	want := []bundle.FileID{3, 2, 1}
	if len(served) != 3 {
		t.Fatalf("served = %v", served)
	}
	for i := range want {
		if served[i] != want[i] {
			t.Errorf("served = %v, want %v", served, want)
		}
	}
	if b.Pending() != 0 {
		t.Errorf("Pending after drain = %d", b.Pending())
	}
}

func TestBatcherAgesPendingJobs(t *testing.T) {
	// With an aggressive age limit, a permanently-low-scoring job still
	// gets served within maxAge picks of the drain.
	served := []bundle.FileID{}
	score := func(b bundle.Bundle) float64 { return float64(b[0]) }
	b := NewBatcher(4, AgeLimit(ByScore("desc", score), 2), func(r bundle.Bundle) {
		served = append(served, r[0])
	})
	for _, id := range []bundle.FileID{1, 8, 9, 7} {
		b.Submit(bundle.New(id))
	}
	// Unguarded order would be 9,8,7,1; with maxAge=2 job 1 reaches age 2
	// after two picks and preempts 7.
	want := []bundle.FileID{9, 8, 1, 7}
	for i := range want {
		if served[i] != want[i] {
			t.Fatalf("served = %v, want %v", served, want)
		}
	}
}

func TestBatcherLengthOneIsImmediate(t *testing.T) {
	var served int
	b := NewBatcher(1, FCFS(), func(bundle.Bundle) { served++ })
	b.Submit(bundle.New(1))
	if served != 1 {
		t.Errorf("served = %d", served)
	}
	// A length below one is clamped to one: Submit serves at once.
	b2 := NewBatcher(0, FCFS(), func(bundle.Bundle) { served++ })
	b2.Submit(bundle.New(2))
	if served != 2 {
		t.Errorf("clamped batcher served = %d, want 2", served)
	}
}

func TestBatcherFlush(t *testing.T) {
	var served int
	b := NewBatcher(10, FCFS(), func(bundle.Bundle) { served++ })
	b.Submit(bundle.New(1))
	b.Submit(bundle.New(2))
	b.Flush()
	if served != 2 || b.Pending() != 0 {
		t.Errorf("served=%d pending=%d", served, b.Pending())
	}
	b.Flush() // idempotent
	if served != 2 {
		t.Errorf("double flush served extra jobs")
	}
}

func TestBatcherDynamicScoresReevaluatedEachPick(t *testing.T) {
	// Scores that change as jobs are served (like RelativeValue, which
	// depends on cache state) must be re-read on every pick.
	current := map[string]float64{
		bundle.New(1).Key(): 1,
		bundle.New(2).Key(): 2,
		bundle.New(3).Key(): 3,
	}
	var served []bundle.FileID
	var b *Batcher
	b = NewBatcher(3, ByScore("dyn", func(r bundle.Bundle) float64 { return current[r.Key()] }),
		func(r bundle.Bundle) {
			served = append(served, r[0])
			if r[0] == 3 {
				current[bundle.New(1).Key()] = 10 // serving 3 boosts 1
			}
		})
	b.Submit(bundle.New(1))
	b.Submit(bundle.New(2))
	b.Submit(bundle.New(3))
	want := []bundle.FileID{3, 1, 2}
	for i := range want {
		if served[i] != want[i] {
			t.Fatalf("served = %v, want %v", served, want)
		}
	}
}

func TestConstructorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"nil score":     func() { ByScore("x", nil) },
		"nil size":      func() { SJF(nil) },
		"nil sched":     func() { NewBatcher(1, nil, func(bundle.Bundle) {}) },
		"nil serve":     func() { NewBatcher(1, FCFS(), nil) },
		"nil age inner": func() { AgeLimit(nil, 3) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		})
	}
}
