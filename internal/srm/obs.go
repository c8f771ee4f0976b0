package srm

import (
	"fbcache/internal/metrics"
	"fbcache/internal/obs"
)

// NewRegistry builds an obs.Registry exposing s's live state under the
// fbcache_* metric names documented in README.md ("Observability"). Every
// value is read through Stats(), so each scrape sees a lock-consistent
// snapshot. Serve it with obs.DebugMux (see cmd/srmd's -debug-addr flag).
func NewRegistry(s *SRM) *obs.Registry {
	reg := obs.NewRegistry()
	stat := func(f func(Snapshot) float64) func() float64 {
		return func() float64 { return f(s.Stats()) }
	}
	reg.CounterFunc("fbcache_jobs_total",
		"Job requests admitted by the SRM (including unserviceable ones).",
		stat(func(sn Snapshot) float64 { return float64(sn.Jobs) }))
	reg.GaugeFunc("fbcache_jobs_active",
		"Jobs currently holding a staged, pinned bundle.",
		stat(func(sn Snapshot) float64 { return float64(sn.ActiveJobs) }))
	reg.GaugeFunc("fbcache_jobs_waiting",
		"Jobs blocked waiting for staging space.",
		stat(func(sn Snapshot) float64 { return float64(sn.WaitingJobs) }))
	reg.GaugeFunc("fbcache_hit_ratio",
		"Request-hit ratio over serviced jobs (every file resident).",
		stat(func(sn Snapshot) float64 { return sn.HitRatio }))
	reg.GaugeFunc("fbcache_byte_miss_ratio",
		"Bytes loaded / bytes requested — the paper's main metric.",
		stat(func(sn Snapshot) float64 { return sn.ByteMissRatio }))
	reg.CounterFunc("fbcache_bytes_loaded_total",
		"Total miss traffic staged into the cache, in bytes.",
		stat(func(sn Snapshot) float64 { return float64(sn.BytesLoaded) }))
	reg.GaugeFunc("fbcache_cache_used_bytes",
		"Bytes currently resident in the staging cache.",
		stat(func(sn Snapshot) float64 { return float64(sn.CacheUsed) }))
	reg.GaugeFunc("fbcache_cache_capacity_bytes",
		"Staging cache capacity in bytes.",
		stat(func(sn Snapshot) float64 { return float64(sn.CacheCapacity) }))
	reg.GaugeFunc("fbcache_pinned_bytes",
		"Bytes pinned by running jobs.",
		stat(func(sn Snapshot) float64 { return float64(sn.PinnedBytes) }))
	reg.RegisterHistogram("fbcache_request_bytes",
		"Requested bundle size per Stage call, in bytes.", s.reqBytes)
	quantile := func(q float64) func() float64 {
		return func() float64 {
			// Scrape 0, not the empty histogram's NaN, until the first
			// request arrives.
			if s.reqBytes.Count() == 0 {
				return 0
			}
			return s.reqBytes.Quantile(q)
		}
	}
	reg.GaugeFunc("fbcache_request_bytes_p50",
		"Median requested bundle size (histogram estimate), in bytes.", quantile(0.50))
	reg.GaugeFunc("fbcache_request_bytes_p90",
		"90th-percentile requested bundle size (histogram estimate), in bytes.", quantile(0.90))
	reg.GaugeFunc("fbcache_request_bytes_p99",
		"99th-percentile requested bundle size (histogram estimate), in bytes.", quantile(0.99))
	metrics.ExportResilience(reg, func() metrics.Resilience { return s.Stats().Resilience })
	reg.GaugeFunc(`fbcache_info{policy="`+s.Stats().Policy+`"}`,
		"Constant 1; the label carries the replacement policy in use.",
		func() float64 { return 1 })
	// Request-span telemetry (per-op wall-clock latency histograms and
	// quantiles, flight-recorder accounting); no-op when spans are off.
	s.Spans().ExportTo(reg)
	return reg
}
