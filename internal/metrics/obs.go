package metrics

import "fbcache/internal/obs"

// ExportTo registers c's §1.2 measures on reg under fbcache_sim_* names,
// read through closures at snapshot time. The closures call c's accessors
// without locking, so export either a collector that is no longer being
// written (cachesim after a run) or one whose writers are externally
// serialized (the SRM holds its mutex around Record).
func (c *Collector) ExportTo(reg *obs.Registry) {
	reg.CounterFunc("fbcache_sim_jobs_total",
		"Jobs recorded, including unserviceable ones.",
		func() float64 { return float64(c.Jobs()) })
	reg.CounterFunc("fbcache_sim_unserviceable_total",
		"Jobs whose bundle exceeded the cache capacity.",
		func() float64 { return float64(c.Unserviceable()) })
	reg.GaugeFunc("fbcache_sim_hit_ratio",
		"Request-hit ratio over serviced jobs (every file resident).",
		c.HitRatio)
	reg.GaugeFunc("fbcache_sim_byte_miss_ratio",
		"Bytes loaded / bytes requested — the paper's main metric.",
		c.ByteMissRatio)
	reg.CounterFunc("fbcache_sim_bytes_requested_total",
		"Total demanded bytes.",
		func() float64 { return float64(c.BytesRequested()) })
	reg.CounterFunc("fbcache_sim_bytes_loaded_total",
		"Total miss traffic in bytes.",
		func() float64 { return float64(c.BytesLoaded()) })
	reg.CounterFunc("fbcache_sim_files_loaded_total",
		"File fetches.",
		func() float64 { return float64(c.FilesLoaded()) })
	reg.CounterFunc("fbcache_sim_files_evicted_total",
		"File evictions.",
		func() float64 { return float64(c.FilesEvicted()) })
}

// ExportResilience registers the five fault-handling counters on reg under
// fbcache_resilience_*_total. read must return a consistent copy of the
// counters (e.g. under the owner's lock); it is called once per counter per
// snapshot.
func ExportResilience(reg *obs.Registry, read func() Resilience) {
	field := func(f func(Resilience) int64) func() float64 {
		return func() float64 { return float64(f(read())) }
	}
	reg.CounterFunc("fbcache_resilience_retries_total",
		"Transfer or store operations repeated after a failed attempt.",
		field(func(r Resilience) int64 { return r.Retries }))
	reg.CounterFunc("fbcache_resilience_failovers_total",
		"Staging moved past the cheapest replica.",
		field(func(r Resilience) int64 { return r.Failovers }))
	reg.CounterFunc("fbcache_resilience_timeouts_total",
		"Staging deadlines or budgets exhausted.",
		field(func(r Resilience) int64 { return r.Timeouts }))
	reg.CounterFunc("fbcache_resilience_failed_jobs_total",
		"Jobs abandoned after retries, failovers and requeues ran out.",
		field(func(r Resilience) int64 { return r.FailedJobs }))
	reg.CounterFunc("fbcache_resilience_requeues_total",
		"Failed jobs returned to the queue for another attempt.",
		field(func(r Resilience) int64 { return r.Requeues }))
}
