// Package faults is the deterministic fault model for the data-grid
// simulator: scenario-driven schedules of site (MSS) outages, WAN link-down
// intervals and bandwidth brownouts, plus seeded per-transfer failure
// probabilities. The paper's premise (§1, §2) is that staging a file-bundle
// across a wide-area grid is expensive and unreliable; this package supplies
// the "unreliable" half so internal/simulate can measure how the caching
// policies degrade when the grid misbehaves.
//
// Everything is a pure function of the Scenario and its seed: window
// schedules are evaluated against simulation time (float64 seconds, never
// the wall clock) and all stochastic draws — per-transfer failures and
// retry-backoff jitter — come from one seeded *rand.Rand owned by the
// Injector. Two runs sharing a scenario therefore produce identical fault
// sequences, which is what makes degraded-mode experiments reproducible.
//
// The zero-valued Scenario is the sanctioned "faults off" configuration:
// no windows, zero failure probability, unlimited staging budget. An
// Injector built from it reports every site up at full speed and never
// fails a transfer, so simulations run through the fault path are
// bit-identical to fault-free runs.
package faults

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Window is one scheduled fault interval, half-open: [Start, End) in
// simulation seconds.
type Window struct {
	Start, End float64
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t float64) bool { return t >= w.Start && t < w.End }

// Duration reports the window length clipped to [0, horizon].
func (w Window) clipped(horizon float64) float64 {
	start, end := w.Start, w.End
	if start < 0 {
		start = 0
	}
	if end > horizon {
		end = horizon
	}
	if end <= start {
		return 0
	}
	return end - start
}

// Brownout is a bandwidth degradation: transfers that start inside the
// window take Factor times as long (Factor >= 1).
type Brownout struct {
	Window
	Factor float64
}

// SiteFaults is the schedule for one site.
type SiteFaults struct {
	// Outages are intervals during which the site's MSS is down (drives
	// offline): no transfer may start; transfers queue until the window
	// closes.
	Outages []Window
	// LinkDown are intervals during which the WAN link from the site to the
	// local cache is down: the site is unreachable and failover should walk
	// to the next-cheapest replica.
	LinkDown []Window
	// Brownouts scale the duration of transfers starting inside them.
	Brownouts []Brownout
}

// RetryPolicy caps and paces transfer retries: attempt n (0-based) that
// fails waits Base*Multiplier^n seconds (capped at Max) plus seeded jitter
// before the next attempt, and a single source is tried at most MaxAttempts
// times before failover moves on.
type RetryPolicy struct {
	// MaxAttempts bounds attempts per source per transfer (>= 1).
	MaxAttempts int
	// BaseDelaySec is the backoff after the first failure.
	BaseDelaySec float64
	// MaxDelaySec caps the exponential growth.
	MaxDelaySec float64
	// Multiplier is the exponential base (>= 1).
	Multiplier float64
	// JitterFrac spreads each delay uniformly in [1-j, 1+j] using the
	// injector's seeded RNG — never the wall clock.
	JitterFrac float64
}

// DefaultRetryPolicy mirrors common data-mover defaults: four attempts,
// 1s base delay doubling to a 60s cap, ±25% jitter.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelaySec: 1, MaxDelaySec: 60, Multiplier: 2, JitterFrac: 0.25}
}

// Validate reports the first problem with the policy.
func (p RetryPolicy) Validate() error {
	switch {
	case p.MaxAttempts < 1:
		return fmt.Errorf("faults: retry needs MaxAttempts >= 1, got %d", p.MaxAttempts)
	case p.BaseDelaySec < 0 || p.MaxDelaySec < 0:
		return fmt.Errorf("faults: negative retry delay")
	case p.Multiplier < 1:
		return fmt.Errorf("faults: retry multiplier %v < 1", p.Multiplier)
	case p.JitterFrac < 0 || p.JitterFrac > 1:
		return fmt.Errorf("faults: jitter fraction %v outside [0,1]", p.JitterFrac)
	}
	return nil
}

// Backoff returns the delay before retrying after failed attempt number
// attempt (0-based). Jitter is drawn from rng, the simulation's seeded
// stream.
func (p RetryPolicy) Backoff(attempt int, rng *rand.Rand) float64 {
	d := p.BaseDelaySec * math.Pow(p.Multiplier, float64(attempt))
	if p.MaxDelaySec > 0 && d > p.MaxDelaySec {
		d = p.MaxDelaySec
	}
	if p.JitterFrac > 0 && rng != nil {
		d *= 1 + p.JitterFrac*(2*rng.Float64()-1)
	}
	return d
}

// Scenario is one complete, deterministic fault schedule for a run. The
// zero value means "no faults".
type Scenario struct {
	// Seed drives the injector's RNG (transfer-failure draws and backoff
	// jitter). Independent of the workload/arrival seeds so fault schedules
	// can vary while traffic stays fixed.
	Seed int64
	// TransferFailureProb is the probability that any single transfer
	// attempt fails (discovered when the transfer would have completed).
	TransferFailureProb float64
	// Sites maps site index (grid.SiteID, or 0 for the single-MSS model) to
	// its fault schedule. Only keyed lookups are performed, never iteration,
	// so map order cannot leak into results.
	Sites map[int]SiteFaults
	// Retry paces and bounds retries; the zero value means
	// DefaultRetryPolicy.
	Retry RetryPolicy
	// StageBudgetSec bounds the staging time of one job (arrival of the
	// stage request to the last file landing); a job exceeding it is
	// requeued or marked failed. 0 means unlimited.
	StageBudgetSec float64
	// MaxJobAttempts is how many times a job whose staging failed is
	// dispatched in total (1 = never requeued). 0 means 1.
	MaxJobAttempts int
}

// Validate reports the first problem with the scenario.
func (sc Scenario) Validate() error {
	if sc.TransferFailureProb < 0 || sc.TransferFailureProb >= 1 {
		return fmt.Errorf("faults: transfer failure probability %v outside [0,1)", sc.TransferFailureProb)
	}
	if sc.StageBudgetSec < 0 {
		return fmt.Errorf("faults: negative stage budget")
	}
	if sc.MaxJobAttempts < 0 {
		return fmt.Errorf("faults: negative MaxJobAttempts")
	}
	retry := sc.Retry
	if retry == (RetryPolicy{}) {
		retry = DefaultRetryPolicy()
	}
	if err := retry.Validate(); err != nil {
		return err
	}
	// Walk sites in index order so the error names the lowest invalid site,
	// not whichever one map iteration reaches first.
	sites := make([]int, 0, len(sc.Sites))
	for site := range sc.Sites {
		sites = append(sites, site)
	}
	sort.Ints(sites)
	for _, site := range sites {
		sf := sc.Sites[site]
		for _, w := range append(append([]Window{}, sf.Outages...), sf.LinkDown...) {
			if w.End < w.Start {
				return fmt.Errorf("faults: site %d window [%v,%v) ends before it starts", site, w.Start, w.End)
			}
		}
		for _, b := range sf.Brownouts {
			if b.End < b.Start {
				return fmt.Errorf("faults: site %d brownout [%v,%v) ends before it starts", site, b.Start, b.End)
			}
			if b.Factor < 1 {
				return fmt.Errorf("faults: site %d brownout factor %v < 1", site, b.Factor)
			}
		}
	}
	return nil
}

// Injector evaluates a Scenario against simulation time. It is not safe for
// concurrent use; the discrete-event simulator is single-goroutine.
type Injector struct {
	sc  Scenario
	rng *rand.Rand
}

// NewInjector validates sc, fills defaults (retry policy, MaxJobAttempts)
// and returns an injector with its own seeded RNG.
func NewInjector(sc Scenario) (*Injector, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if sc.Retry == (RetryPolicy{}) {
		sc.Retry = DefaultRetryPolicy()
	}
	if sc.MaxJobAttempts < 1 {
		sc.MaxJobAttempts = 1
	}
	return &Injector{sc: sc, rng: rand.New(rand.NewSource(sc.Seed))}, nil
}

// Scenario returns the normalized scenario (defaults applied).
func (in *Injector) Scenario() Scenario { return in.sc }

// Retry returns the normalized retry policy.
func (in *Injector) Retry() RetryPolicy { return in.sc.Retry }

// RNG exposes the injector's seeded stream for backoff jitter, so all fault
// randomness shares one reproducible source.
func (in *Injector) RNG() *rand.Rand { return in.rng }

func (in *Injector) site(site int) SiteFaults { return in.sc.Sites[site] }

// SiteUp reports whether the site's MSS can start transfers at time at.
func (in *Injector) SiteUp(site int, at float64) bool {
	for _, w := range in.site(site).Outages {
		if w.Contains(at) {
			return false
		}
	}
	return true
}

// LinkUp reports whether the site's WAN link to the local cache is up at
// time at.
func (in *Injector) LinkUp(site int, at float64) bool {
	for _, w := range in.site(site).LinkDown {
		if w.Contains(at) {
			return false
		}
	}
	return true
}

// Up reports whether the site is usable as a transfer source at time at:
// MSS up and link up.
func (in *Injector) Up(site int, at float64) bool {
	return in.SiteUp(site, at) && in.LinkUp(site, at)
}

// SiteNextUp returns the earliest t >= at with the site's MSS out of every
// outage window. The never-up sentinel is +Inf: a window whose End is +Inf
// models a site that left the grid for good, and every finite schedule
// returns a finite time — callers must treat +Inf as "never" (the simulator's
// dark-grid wait abandons staging on it) rather than a schedulable instant.
func (in *Injector) SiteNextUp(site int, at float64) float64 {
	return nextClear(in.site(site).Outages, nil, at)
}

// NextUp returns the earliest t >= at at which the site is fully usable
// (MSS and link both up). +Inf is the same never-up sentinel as SiteNextUp's.
func (in *Injector) NextUp(site int, at float64) float64 {
	sf := in.site(site)
	return nextClear(sf.Outages, sf.LinkDown, at)
}

// DownWithin reports whether the site is (or is scheduled to become)
// unusable — MSS outage or link down — at any point of [from, from+horizon).
// The replica re-planner's emergency trigger: a file whose every live source
// satisfies DownWithin is copied out before the lights go off.
func (in *Injector) DownWithin(site int, from, horizon float64) bool {
	if horizon <= 0 {
		return !in.Up(site, from)
	}
	end := from + horizon
	sf := in.site(site)
	for _, w := range sf.Outages {
		if w.End > from && w.Start < end {
			return true
		}
	}
	for _, w := range sf.LinkDown {
		if w.End > from && w.Start < end {
			return true
		}
	}
	return false
}

// UnusableWindows returns the site's merged, sorted schedule of unusable
// intervals (MSS outages and link-down windows coalesced, overlaps and
// abutments joined). The recovery tracker keys per-outage records off these.
func (in *Injector) UnusableWindows(site int) []Window {
	sf := in.site(site)
	windows := make([]Window, 0, len(sf.Outages)+len(sf.LinkDown))
	windows = append(windows, sf.Outages...)
	windows = append(windows, sf.LinkDown...)
	if len(windows) == 0 {
		return nil
	}
	sort.Slice(windows, func(i, j int) bool {
		if windows[i].Start != windows[j].Start { //fbvet:allow floateq — schedule endpoints are exact config values, not derived floats
			return windows[i].Start < windows[j].Start
		}
		return windows[i].End < windows[j].End
	})
	merged := windows[:1]
	for _, w := range windows[1:] {
		last := &merged[len(merged)-1]
		if w.Start <= last.End {
			if w.End > last.End {
				last.End = w.End
			}
			continue
		}
		merged = append(merged, w)
	}
	out := make([]Window, len(merged))
	copy(out, merged)
	return out
}

// nextClear advances t out of every window in both schedules. Each pass
// either leaves t unchanged (done) or moves it to some window's end, so the
// loop is bounded by the total window count.
func nextClear(a, b []Window, at float64) float64 {
	t := at
	for pass := 0; pass <= len(a)+len(b); pass++ {
		moved := false
		for _, w := range a {
			if w.Contains(t) {
				t, moved = w.End, true
			}
		}
		for _, w := range b {
			if w.Contains(t) {
				t, moved = w.End, true
			}
		}
		if !moved {
			return t
		}
	}
	return t
}

// Slowdown reports the transfer-duration multiplier at the site for a
// transfer starting at time at (1 outside every brownout; overlapping
// brownouts compound).
func (in *Injector) Slowdown(site int, at float64) float64 {
	factor := 1.0
	for _, b := range in.site(site).Brownouts {
		if b.Contains(at) {
			factor *= b.Factor
		}
	}
	return factor
}

// TransferFails draws one seeded Bernoulli trial for a transfer attempt.
// With zero probability no draw is made, so the RNG stream — and therefore
// every downstream jitter draw — is untouched in fault-free runs.
func (in *Injector) TransferFails() bool {
	if in.sc.TransferFailureProb <= 0 {
		return false
	}
	return in.rng.Float64() < in.sc.TransferFailureProb
}

// DowntimeSeconds reports how long the site was unusable (MSS outage or
// link down, overlaps not double-counted) within [0, horizon].
func (in *Injector) DowntimeSeconds(site int, horizon float64) float64 {
	if horizon <= 0 {
		return 0
	}
	sf := in.site(site)
	windows := make([]Window, 0, len(sf.Outages)+len(sf.LinkDown))
	windows = append(windows, sf.Outages...)
	windows = append(windows, sf.LinkDown...)
	if len(windows) == 0 {
		return 0
	}
	sort.Slice(windows, func(i, j int) bool {
		if windows[i].Start != windows[j].Start { //fbvet:allow floateq — schedule endpoints are exact config values, not derived floats
			return windows[i].Start < windows[j].Start
		}
		return windows[i].End < windows[j].End
	})
	total, end := 0.0, math.Inf(-1)
	for _, w := range windows {
		if w.Start > end {
			total += w.clipped(horizon)
			end = w.End
			continue
		}
		if w.End > end {
			total += Window{Start: end, End: w.End}.clipped(horizon)
			end = w.End
		}
	}
	return total
}
