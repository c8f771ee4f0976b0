package metrics

import "sort"

// Outage is one scheduled unusable interval of a site, as seen by the
// recovery tracker (faults.Injector.UnusableWindows flattened across sites).
type Outage struct {
	Site       int
	Start, End float64 // half-open [Start, End) in sim seconds
}

// Recovery is the measured recovery record of one outage: how long the
// windowed request-hit ratio took, counted from outage start, to return to
// within epsilon of its pre-outage baseline.
type Recovery struct {
	Site  int     `json:"site"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// Baseline is the windowed hit ratio frozen at the last completion
	// before the outage began.
	Baseline float64 `json:"baseline"`
	// HitAtEnd is the windowed hit ratio at the moment recovery was declared
	// (or at the final observation, when the run ended unrecovered).
	HitAtEnd float64 `json:"hit_at_end"`
	// RatioAtEnd is the windowed hit ratio once the window holds only
	// completions from after the outage ended (or at the final observation,
	// when the run ended sooner) — the depth of the post-outage dip,
	// comparable across runs regardless of when (or whether) each recovered.
	RatioAtEnd float64 `json:"ratio_at_end"`
	// PostMeanRatio is the time-weighted mean windowed hit ratio from the
	// outage's end to the last observation: the integral view of post-outage
	// health. A run that dips deep or stays depressed for long scores lower
	// than one that sails through, even if both eventually recover.
	PostMeanRatio float64 `json:"post_mean_ratio"`
	// RecoveredAt is the completion time at which the ratio re-entered
	// [Baseline-eps, 1] to stay — a later drop out of the band voids the
	// record until the ratio returns. Meaningful only when Recovered.
	RecoveredAt float64 `json:"recovered_at,omitempty"`
	// RecoverySec is RecoveredAt - Start: the paper-style time-to-recover
	// measured from the moment the outage began, not from when it ended.
	RecoverySec float64 `json:"recovery_sec,omitempty"`
	// Recovered is false when the run ended before the ratio returned.
	Recovered bool `json:"recovered"`
}

// outageState is one outage's measurement in flight.
type outageState struct {
	rec          Recovery
	baselineSet  bool
	sinceEnd     int // completions folded since the outage ended
	atEndSet     bool
	postIntegral float64 // ∫ratio dt over (End, last observation]
	postSpan     float64
}

// RecoveryTracker measures per-outage recovery times from the stream of job
// completions. It keeps a sliding window of the last W jobs' hit flags; for
// each outage it freezes the windowed hit ratio observed just before the
// outage starts as the baseline, then — once the outage has ended — declares
// recovery at the first completion from which the windowed ratio stays
// within eps of that baseline: dropping back out of the band voids the
// record until the ratio returns, so the post-outage miss backlog draining
// through the window cannot hide behind a still-warm ratio at the moment the
// outage ends. Completions must be observed in nondecreasing time order
// (the discrete-event simulator's natural order). Not safe for concurrent
// use.
//
// During an outage the ratio often *rises* (misses stall on the dark site,
// so the completions that do land skew toward hits) and then dips below
// baseline while the queued-miss backlog drains — which is exactly the
// degradation the recovery time captures.
type RecoveryTracker struct {
	window []bool
	next   int
	filled int
	hits   int
	eps    float64
	lastAt float64

	states []outageState
}

// NewRecoveryTracker tracks the given outages with a W-job hit window and an
// epsilon band (both defaulted when <= 0: W=50, eps=0.02). Outages are
// processed independently, so overlapping windows each get a record.
func NewRecoveryTracker(outages []Outage, windowJobs int, eps float64) *RecoveryTracker {
	if windowJobs <= 0 {
		windowJobs = 50
	}
	if eps <= 0 {
		eps = 0.02
	}
	t := &RecoveryTracker{window: make([]bool, windowJobs)}
	sorted := make([]Outage, len(outages))
	copy(sorted, outages)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Start != sorted[j].Start { //fbvet:allow floateq — schedule endpoints are exact config values
			return sorted[i].Start < sorted[j].Start
		}
		if sorted[i].End != sorted[j].End { //fbvet:allow floateq — schedule endpoints are exact config values
			return sorted[i].End < sorted[j].End
		}
		return sorted[i].Site < sorted[j].Site
	})
	for _, o := range sorted {
		t.states = append(t.states, outageState{rec: Recovery{
			Site: o.Site, Start: o.Start, End: o.End,
		}})
	}
	t.eps = eps
	return t
}

// ObserveJob folds one completed job (at sim-time at, request-hit flag hit)
// into the window and advances every outage's measurement.
func (t *RecoveryTracker) ObserveJob(at float64, hit bool) {
	r0 := t.ratio()
	for i := range t.states {
		s := &t.states[i]
		if !s.baselineSet && at >= s.rec.Start {
			// Freeze the pre-outage baseline before folding this job, which
			// completed after the outage began.
			s.rec.Baseline = r0
			s.baselineSet = true
		}
		// Accumulate the post-outage dwell: between completions the window is
		// constant, so the pre-fold ratio held over (max(End, lastAt), at].
		if at > s.rec.End {
			from := s.rec.End
			if t.lastAt > from {
				from = t.lastAt
			}
			if at > from {
				s.postIntegral += float64(r0 * (at - from)) // rounded alone: never fused
				s.postSpan += at - from
			}
		}
	}

	// Fold the job into the sliding window.
	if t.window[t.next] {
		t.hits--
	}
	t.window[t.next] = hit
	if hit {
		t.hits++
	}
	t.next++
	if t.next == len(t.window) {
		t.next = 0
	}
	if t.filled < len(t.window) {
		t.filled++
	}

	r := t.ratio()
	for i := range t.states {
		s := &t.states[i]
		if !s.atEndSet && at >= s.rec.End {
			s.sinceEnd++
			if s.sinceEnd >= len(t.window) {
				// The window has fully turned over: every entry postdates the
				// outage, so this reading is the dip, not leftover warmth.
				s.rec.RatioAtEnd = r
				s.atEndSet = true
			}
		}
		if !s.baselineSet || at < s.rec.End {
			continue
		}
		if r >= s.rec.Baseline-t.eps {
			if !s.rec.Recovered {
				s.rec.Recovered = true
				s.rec.RecoveredAt = at
				s.rec.RecoverySec = at - s.rec.Start
				s.rec.HitAtEnd = r
			}
		} else if s.rec.Recovered {
			// The ratio fell back out of the band: the earlier "recovery" was
			// the pre-dip window still looking warm, not a real return.
			s.rec.Recovered = false
			s.rec.RecoveredAt = 0
			s.rec.RecoverySec = 0
			s.rec.HitAtEnd = 0
		}
	}
	t.lastAt = at
}

// ratio reports the windowed hit ratio (0 before any observation).
func (t *RecoveryTracker) ratio() float64 {
	if t.filled == 0 {
		return 0
	}
	return float64(t.hits) / float64(t.filled)
}

// Finish closes the measurement and returns one record per outage, sorted by
// (Start, End, Site). Unrecovered outages carry Recovered=false and the
// final windowed ratio in HitAtEnd; a baseline never frozen (the run ended
// before the outage started) reports Baseline 0.
func (t *RecoveryTracker) Finish() []Recovery {
	out := make([]Recovery, 0, len(t.states))
	for _, s := range t.states {
		if !s.rec.Recovered {
			s.rec.HitAtEnd = t.ratio()
		}
		if !s.atEndSet && s.sinceEnd > 0 {
			s.rec.RatioAtEnd = t.ratio()
		}
		if s.postSpan > 0 {
			s.rec.PostMeanRatio = s.postIntegral / s.postSpan
		}
		out = append(out, s.rec)
	}
	return out
}
