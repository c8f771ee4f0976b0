// Package metrics accumulates the performance measures of §1.2 over a
// simulation run: request hit/miss ratios, byte hit/miss ratios, data moved
// per request, and eviction counts, plus optional per-interval time series
// for convergence plots.
package metrics

import (
	"fmt"

	"fbcache/internal/bundle"
	"fbcache/internal/policy"
)

// Collector accumulates admission results. The zero value is ready to use.
type Collector struct {
	jobs           int64
	hits           int64
	unserviceable  int64
	bytesRequested bundle.Size
	bytesLoaded    bundle.Size
	filesLoaded    int64
	filesEvicted   int64

	// Optional time series: one point every Interval jobs.
	Interval int
	series   []Point
	// window accumulators
	winJobs      int64
	winHits      int64
	winReqBytes  bundle.Size
	winLoadBytes bundle.Size
}

// Point is one time-series sample.
type Point struct {
	Jobs          int64   // jobs completed at sample time
	HitRatio      float64 // within the window
	ByteMissRatio float64 // within the window
}

// Record folds one admission result into the collector.
func (c *Collector) Record(r policy.Result) {
	c.jobs++
	if r.Unserviceable {
		c.unserviceable++
		return
	}
	if r.Hit {
		c.hits++
		c.winHits++
	}
	c.bytesRequested += r.BytesRequested
	c.bytesLoaded += r.BytesLoaded
	c.filesLoaded += int64(r.FilesLoaded)
	c.filesEvicted += int64(r.FilesEvicted)

	c.winJobs++
	c.winReqBytes += r.BytesRequested
	c.winLoadBytes += r.BytesLoaded
	if c.Interval > 0 && c.winJobs >= int64(c.Interval) {
		c.flushWindow()
	}
}

func (c *Collector) flushWindow() {
	if c.winJobs == 0 {
		return
	}
	p := Point{Jobs: c.jobs}
	p.HitRatio = float64(c.winHits) / float64(c.winJobs)
	if c.winReqBytes > 0 {
		p.ByteMissRatio = float64(c.winLoadBytes) / float64(c.winReqBytes)
	}
	c.series = append(c.series, p)
	c.winJobs, c.winHits, c.winReqBytes, c.winLoadBytes = 0, 0, 0, 0
}

// Series returns the accumulated time series (flushing any partial window).
func (c *Collector) Series() []Point {
	c.flushWindow()
	out := make([]Point, len(c.series))
	copy(out, c.series)
	return out
}

// Jobs reports the total number of recorded jobs (including unserviceable).
func (c *Collector) Jobs() int64 { return c.jobs }

// Serviced reports jobs that were actually processed.
func (c *Collector) Serviced() int64 { return c.jobs - c.unserviceable }

// Unserviceable reports jobs whose bundles exceeded the cache capacity.
func (c *Collector) Unserviceable() int64 { return c.unserviceable }

// HitRatio reports request-hits / serviced jobs (§1.2 ρ_hit, generalized to
// bundles: a hit needs every file resident).
func (c *Collector) HitRatio() float64 {
	if s := c.Serviced(); s > 0 {
		return float64(c.hits) / float64(s)
	}
	return 0
}

// ByteMissRatio reports bytes loaded / bytes requested — the paper's main
// metric (equivalently the average volume of data moved into the cache per
// requested byte).
func (c *Collector) ByteMissRatio() float64 {
	if c.bytesRequested > 0 {
		return float64(c.bytesLoaded) / float64(c.bytesRequested)
	}
	return 0
}

// ByteHitRatio reports 1 − ByteMissRatio.
func (c *Collector) ByteHitRatio() float64 {
	if c.bytesRequested == 0 {
		return 0
	}
	return 1 - c.ByteMissRatio()
}

// BytesPerRequest reports the mean bytes loaded per serviced request —
// the paper's "average volume of data transfers per request".
func (c *Collector) BytesPerRequest() float64 {
	if s := c.Serviced(); s > 0 {
		return float64(c.bytesLoaded) / float64(s)
	}
	return 0
}

// BytesLoaded reports total miss traffic.
func (c *Collector) BytesLoaded() bundle.Size { return c.bytesLoaded }

// BytesRequested reports total demanded bytes.
func (c *Collector) BytesRequested() bundle.Size { return c.bytesRequested }

// FilesLoaded reports the number of file fetches.
func (c *Collector) FilesLoaded() int64 { return c.filesLoaded }

// FilesEvicted reports the number of evictions.
func (c *Collector) FilesEvicted() int64 { return c.filesEvicted }

func (c *Collector) String() string {
	return fmt.Sprintf("jobs=%d hit=%.4f byteMiss=%.4f bytes/req=%s",
		c.jobs, c.HitRatio(), c.ByteMissRatio(), bundle.Size(c.BytesPerRequest()))
}

// Resilience counts fault-handling events: how often the retry/failover
// layer (internal/faults) had to intervene. Both the discrete-event
// simulator (simulate.EventStats) and the live SRM (srm.Snapshot) report
// one; all counters are zero in fault-free runs.
type Resilience struct {
	// Retries is the number of transfer or store operations repeated after
	// a failed attempt.
	Retries int64 `json:"retries,omitempty"`
	// Failovers is the number of times staging moved past the cheapest
	// replica to a more expensive reachable one.
	Failovers int64 `json:"failovers,omitempty"`
	// Timeouts is the number of staging deadlines or budgets exhausted.
	Timeouts int64 `json:"timeouts,omitempty"`
	// FailedJobs is the number of jobs abandoned after retries, failovers
	// and requeues were exhausted.
	FailedJobs int64 `json:"failed_jobs,omitempty"`
	// Requeues is the number of failed jobs returned to the queue for
	// another staging attempt.
	Requeues int64 `json:"requeues,omitempty"`
}

// Add accumulates o into r.
func (r *Resilience) Add(o Resilience) {
	r.Retries += o.Retries
	r.Failovers += o.Failovers
	r.Timeouts += o.Timeouts
	r.FailedJobs += o.FailedJobs
	r.Requeues += o.Requeues
}

func (r Resilience) String() string {
	return fmt.Sprintf("retries=%d failovers=%d timeouts=%d failed=%d requeues=%d",
		r.Retries, r.Failovers, r.Timeouts, r.FailedJobs, r.Requeues)
}
