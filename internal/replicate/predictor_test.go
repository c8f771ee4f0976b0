package replicate

import (
	"math"
	"reflect"
	"testing"

	"fbcache/internal/bundle"
)

func TestPredictorEWMADecay(t *testing.T) {
	p := NewPredictor(PredictorConfig{HalfLifeSec: 100})
	p.Observe(0, bundle.New(1), 1)
	for _, c := range []struct{ at, want float64 }{
		{0, 1}, {100, 0.5}, {200, 0.25}, {300, 0.125},
	} {
		if got := p.Heat(c.at, 1); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("heat(%v) = %v, want %v", c.at, got, c.want)
		}
	}
	// Heat is a read: asking at t=300 must not have folded the decay in.
	if got := p.Heat(0, 1); got != 1 {
		t.Errorf("Heat mutated the predictor: heat(0) = %v after later reads", got)
	}
	// A second observation folds onto the decayed value.
	p.Observe(100, bundle.New(1), 1)
	if got := p.Heat(100, 1); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("heat after refresh = %v, want 1.5", got)
	}
	// Unknown files are cold, not errors.
	if got := p.Heat(50, 99); got != 0 {
		t.Errorf("unknown file heat = %v", got)
	}
}

func TestPredictorSnapshotSorted(t *testing.T) {
	p := NewPredictor(PredictorConfig{HalfLifeSec: 10})
	p.Observe(0, bundle.New(5, 2, 9), 1)
	p.Observe(0, bundle.New(2), 1)
	snap := p.Snapshot(0)
	want := []FileHeat{{File: 2, Heat: 2}, {File: 5, Heat: 1}, {File: 9, Heat: 1}}
	if !reflect.DeepEqual(snap, want) {
		t.Errorf("snapshot = %v, want %v", snap, want)
	}
}

// fakeAssoc is a canned co-occurrence model: file 1 predicts file 2 with
// confidence 0.8.
type fakeAssoc struct{}

func (fakeAssoc) Related(f bundle.FileID, k int, minConf float64) []bundle.FileID {
	if f == 1 && k > 0 && minConf <= 0.8 {
		return []bundle.FileID{2}
	}
	return nil
}

func (fakeAssoc) Confidence(f, g bundle.FileID) float64 {
	if f == 1 && g == 2 {
		return 0.8
	}
	return 0
}

func TestPredictorAssociationSharpening(t *testing.T) {
	p := NewPredictor(PredictorConfig{HalfLifeSec: 100, Assoc: fakeAssoc{}})
	p.Observe(0, bundle.New(1), 1)
	if got := p.Heat(0, 1); got != 1 {
		t.Errorf("direct heat = %v, want 1", got)
	}
	// f2 was never requested but is warmed by AssocBoost·confidence = 0.5·0.8.
	if got := p.Heat(0, 2); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("associated heat = %v, want 0.4", got)
	}
	// Without the model, no sharpening happens.
	q := NewPredictor(PredictorConfig{HalfLifeSec: 100})
	q.Observe(0, bundle.New(1), 1)
	if got := q.Heat(0, 2); got != 0 {
		t.Errorf("assoc-free predictor warmed f2 to %v", got)
	}
}
