package replicate

import (
	"math"

	"fbcache/internal/bundle"
)

// Associations is the optional co-occurrence model the predictor can use to
// sharpen heat: files strongly associated with a requested file gain a
// fraction of its observed value even before they are requested themselves.
// *prefetch.Model satisfies it.
type Associations interface {
	// Related returns up to k files associated with f at confidence >=
	// minConfidence, strongest first, deterministically ordered.
	Related(f bundle.FileID, k int, minConfidence float64) []bundle.FileID
	// Confidence reports P(g requested | f requested) as observed.
	Confidence(f, g bundle.FileID) float64
}

// PredictorConfig tunes the online heat estimator.
type PredictorConfig struct {
	// HalfLifeSec is the EWMA half-life: a file's heat halves every
	// HalfLifeSec seconds without an access. Must be positive (default 300).
	HalfLifeSec float64
	// Assoc, when non-nil, sharpens heat with co-occurrence predictions:
	// observing a bundle also warms files associated with its members.
	Assoc Associations
	// AssocBoost scales the associated-file contribution: an associated file
	// g gains AssocBoost·Confidence(f→g)·value heat per observation of f
	// (default 0.5).
	AssocBoost float64
	// AssocFanOut bounds associated files warmed per observed file (default 2).
	AssocFanOut int
	// AssocMinConfidence is the association threshold (default 0.5).
	AssocMinConfidence float64
}

func (c PredictorConfig) withDefaults() PredictorConfig {
	if c.HalfLifeSec <= 0 {
		c.HalfLifeSec = 300
	}
	if c.AssocBoost <= 0 {
		c.AssocBoost = 0.5
	}
	if c.AssocFanOut <= 0 {
		c.AssocFanOut = 2
	}
	if c.AssocMinConfidence <= 0 {
		c.AssocMinConfidence = 0.5
	}
	return c
}

// FileHeat is one predictor reading: a file and its decayed heat.
type FileHeat struct {
	File bundle.FileID
	Heat float64
}

type heatState struct {
	heat    float64 // value as of last
	last    float64 // sim-time of last fold
	tracked bool    // observed at least once
}

// Predictor estimates per-file request heat online with exponential decay:
// heat(t) = Σ over observations v·2^-((t-t_obs)/halfLife). Unlike the raw
// cumulative heat Plan derives from history, a burst of old popularity fades
// within a few half-lives, so epoch re-planning tracks workload drift. Time
// is simulation seconds (never the wall clock); all methods are
// deterministic, so same-seed runs reproduce identical plans.
//
// Not safe for concurrent use; the discrete-event simulator is
// single-goroutine.
type Predictor struct {
	cfg PredictorConfig
	// heat is dense, indexed by FileID and grown (amortized geometrically
	// by append) on first sight of a larger ID, so reads walk it in ID
	// order with no sort. Untracked slots hold the zero state. Memory is
	// bounded by the largest FileID observed.
	heat []heatState
}

// NewPredictor returns an empty predictor (defaults applied).
func NewPredictor(cfg PredictorConfig) *Predictor {
	return &Predictor{cfg: cfg.withDefaults()}
}

// decayTo folds s forward to time now. Observations arrive in nondecreasing
// time order from the simulator; a reading earlier than the last fold (which
// only a misuse could produce) leaves the value undecayed rather than
// amplifying it.
func (p *Predictor) decayTo(s heatState, now float64) heatState {
	dt := now - s.last
	if dt > 0 {
		s.heat *= math.Exp2(-dt / p.cfg.HalfLifeSec)
		s.last = now
	}
	return s
}

func (p *Predictor) add(now float64, f bundle.FileID, v float64) {
	if int(f) >= len(p.heat) {
		p.heat = append(p.heat, make([]heatState, int(f)+1-len(p.heat))...)
	}
	s := p.decayTo(p.heat[f], now)
	s.heat += v
	if s.last < now {
		s.last = now
	}
	s.tracked = true
	p.heat[f] = s
}

// Observe folds one request for b with weight value (1 for unweighted
// requests) at sim-time now. With an association model configured, files
// related to b's members are warmed by AssocBoost·confidence·value as well —
// the "sharpening" that lets the planner replicate a file shortly before its
// first direct request.
func (p *Predictor) Observe(now float64, b bundle.Bundle, value float64) {
	for _, f := range b {
		p.add(now, f, value)
	}
	if p.cfg.Assoc == nil {
		return
	}
	for _, f := range b {
		for _, g := range p.cfg.Assoc.Related(f, p.cfg.AssocFanOut, p.cfg.AssocMinConfidence) {
			p.add(now, g, p.cfg.AssocBoost*p.cfg.Assoc.Confidence(f, g)*value)
		}
	}
}

// hot reports whether s's heat decayed to now is positive, computing the
// decay only when its sign is not provable. A heat of at least 2^-500
// decayed over at most 512 half-lives stays positive: decayTo's quotient
// dt/HalfLifeSec is then at most 512, its Exp2 at least 2^-512, and the
// product at least about 2^-1012, far above the smallest subnormal.
func (p *Predictor) hot(s heatState, now float64) bool {
	if s.heat >= 0x1p-500 && (now-s.last)/p.cfg.HalfLifeSec <= 512 {
		return true
	}
	return !(p.decayTo(s, now).heat <= 0)
}

// Heat reports f's decayed heat as of now without mutating the predictor.
func (p *Predictor) Heat(now float64, f bundle.FileID) float64 {
	if int(f) >= len(p.heat) {
		return 0
	}
	return p.decayTo(p.heat[f], now).heat
}

// Snapshot returns every tracked file's decayed heat as of now, in file-ID
// order: the dense table is walked by index, so every consumer scan is
// deterministic without a sort.
func (p *Predictor) Snapshot(now float64) []FileHeat {
	return p.appendSnapshot(nil, now)
}

// appendSnapshot appends Snapshot's readings to dst — the replan epoch's
// form, which reuses one buffer across epochs.
//
//fbvet:noescape
//fbvet:nobce
func (p *Predictor) appendSnapshot(dst []FileHeat, now float64) []FileHeat {
	for i, s := range p.heat {
		if s.tracked {
			dst = append(dst, FileHeat{File: bundle.FileID(i), Heat: p.decayTo(s, now).heat})
		}
	}
	return dst
}
