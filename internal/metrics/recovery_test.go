package metrics

import (
	"math"
	"testing"
)

// feed folds n completions at 1s intervals starting at t0, hit iff the
// supplied function says so.
func feed(tr *RecoveryTracker, t0 float64, n int, hit func(i int) bool) float64 {
	at := t0
	for i := 0; i < n; i++ {
		tr.ObserveJob(at, hit(i))
		at++
	}
	return at
}

func TestRecoveryTrackerMeasuresDipAndReturn(t *testing.T) {
	tr := NewRecoveryTracker([]Outage{{Site: 1, Start: 100, End: 120}}, 10, 0.05)
	// Pre-outage: steady 80% hits -> baseline 0.8.
	feed(tr, 0, 50, func(i int) bool { return i%5 != 0 })
	if r := tr.ratio(); math.Abs(r-0.8) > 1e-9 {
		t.Fatalf("pre-outage ratio = %v", r)
	}
	// The outage delays misses: completions from 120 on are a miss burst.
	feed(tr, 120, 8, func(int) bool { return false })
	// Then hits refill the window.
	feed(tr, 128, 12, func(int) bool { return true })

	recs := tr.Finish()
	if len(recs) != 1 {
		t.Fatalf("records = %+v", recs)
	}
	r := recs[0]
	if r.Site != 1 || math.Abs(r.Baseline-0.8) > 1e-9 {
		t.Errorf("record = %+v, want site 1 baseline 0.8", r)
	}
	// RatioAtEnd reads once the window is all post-outage completions: ten
	// folds after End (t=129) the window holds the 8-miss burst plus 2 hits.
	if math.Abs(r.RatioAtEnd-0.2) > 1e-9 {
		t.Errorf("ratio at end = %v, want 0.2", r.RatioAtEnd)
	}
	if !r.Recovered {
		t.Fatalf("never recovered: %+v", r)
	}
	// Recovery needs the window back to >= 0.75: after the 8-miss burst the
	// window is 2/10, and each hit from t=128 raises it by 0.1 — eight hits
	// later (t=135) it reads 8/10 >= 0.75. Recovery is measured from Start.
	if r.RecoveredAt != 135 || r.RecoverySec != 35 {
		t.Errorf("recovered at %v (%.0fs), want t=135 (35s)", r.RecoveredAt, r.RecoverySec)
	}
	if r.HitAtEnd < r.Baseline-0.05 {
		t.Errorf("hit at recovery = %v below band", r.HitAtEnd)
	}
	// Time-weighted mean over (120, 139]: each 1s interval carries the ratio
	// left by the previous fold — the dip and the refill sum to 10.5 over 19s.
	if math.Abs(r.PostMeanRatio-10.5/19) > 1e-9 {
		t.Errorf("post-mean ratio = %v, want %v", r.PostMeanRatio, 10.5/19)
	}
}

func TestRecoveryTrackerUnrecovered(t *testing.T) {
	tr := NewRecoveryTracker([]Outage{{Site: 0, Start: 10, End: 20}}, 4, 0.01)
	feed(tr, 0, 8, func(int) bool { return true }) // baseline 1.0
	feed(tr, 20, 5, func(int) bool { return false })
	recs := tr.Finish()
	if len(recs) != 1 || recs[0].Recovered {
		t.Fatalf("records = %+v, want one unrecovered", recs)
	}
	if recs[0].HitAtEnd != 0 {
		t.Errorf("final ratio = %v, want 0 after the miss tail", recs[0].HitAtEnd)
	}
	if recs[0].Baseline != 1 {
		t.Errorf("baseline = %v", recs[0].Baseline)
	}
}

func TestRecoveryTrackerMultipleOutagesSorted(t *testing.T) {
	tr := NewRecoveryTracker([]Outage{
		{Site: 2, Start: 50, End: 60},
		{Site: 1, Start: 5, End: 8},
	}, 0, 0) // defaults: W=50, eps=0.02
	feed(tr, 0, 100, func(int) bool { return true })
	recs := tr.Finish()
	if len(recs) != 2 || recs[0].Site != 1 || recs[1].Site != 2 {
		t.Fatalf("records = %+v, want sorted by start", recs)
	}
	for _, r := range recs {
		if !r.Recovered {
			t.Errorf("all-hit stream failed to recover: %+v", r)
		}
	}
	// An outage the run never reached keeps a zero baseline and no recovery.
	tr2 := NewRecoveryTracker([]Outage{{Site: 0, Start: 1e9, End: 2e9}}, 4, 0.01)
	feed(tr2, 0, 4, func(int) bool { return true })
	if recs := tr2.Finish(); recs[0].Recovered || recs[0].Baseline != 0 {
		t.Errorf("unreached outage = %+v", recs[0])
	}
}
