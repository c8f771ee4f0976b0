package metrics

import (
	"testing"

	"fbcache/internal/obs"
	"fbcache/internal/policy"
)

func TestCollectorExportTo(t *testing.T) {
	var c Collector
	c.Record(policy.Result{BytesRequested: 100, BytesLoaded: 100, FilesLoaded: 2})
	c.Record(policy.Result{BytesRequested: 50, Hit: true})
	c.Record(policy.Result{BytesRequested: 1000, Unserviceable: true})

	reg := obs.NewRegistry()
	c.ExportTo(reg)
	snap := reg.Snapshot()
	expect := map[string]float64{
		"fbcache_sim_jobs_total":            3,
		"fbcache_sim_unserviceable_total":   1,
		"fbcache_sim_hit_ratio":             0.5,
		"fbcache_sim_byte_miss_ratio":       100.0 / 150.0,
		"fbcache_sim_bytes_requested_total": 150,
		"fbcache_sim_bytes_loaded_total":    100,
		"fbcache_sim_files_loaded_total":    2,
		"fbcache_sim_files_evicted_total":   0,
	}
	for name, want := range expect {
		m, ok := snap.Get(name)
		if !ok {
			t.Errorf("metric %s missing", name)
			continue
		}
		if m.Value != want {
			t.Errorf("%s = %g, want %g", name, m.Value, want)
		}
	}

	// Func-backed metrics track the live collector.
	c.Record(policy.Result{BytesRequested: 10, Hit: true})
	if m, _ := reg.Snapshot().Get("fbcache_sim_jobs_total"); m.Value != 4 {
		t.Errorf("jobs after new record = %g, want 4", m.Value)
	}
}

func TestExportResilience(t *testing.T) {
	live := Resilience{Retries: 3, Failovers: 2, Timeouts: 1, FailedJobs: 4, Requeues: 5}
	reg := obs.NewRegistry()
	ExportResilience(reg, func() Resilience { return live })
	snap := reg.Snapshot()
	expect := map[string]float64{
		"fbcache_resilience_retries_total":     3,
		"fbcache_resilience_failovers_total":   2,
		"fbcache_resilience_timeouts_total":    1,
		"fbcache_resilience_failed_jobs_total": 4,
		"fbcache_resilience_requeues_total":    5,
	}
	for name, want := range expect {
		m, ok := snap.Get(name)
		if !ok {
			t.Errorf("metric %s missing", name)
			continue
		}
		if m.Value != want {
			t.Errorf("%s = %g, want %g", name, m.Value, want)
		}
	}
}

// Regression for the value-copy audit: Resilience is plain data, so every
// assignment is a snapshot. Verify both directions of isolation and that
// aggregation must go through Add, not assignment.
func TestResilienceCopySemantics(t *testing.T) {
	live := Resilience{Retries: 1}
	snap := live // value copy, as EventStats/srm.Snapshot do
	live.Retries++
	if snap.Retries != 1 {
		t.Errorf("copy tracked later updates: %d", snap.Retries)
	}
	snap.Failovers = 99
	if live.Failovers != 0 {
		t.Errorf("copy mutation leaked back: %d", live.Failovers)
	}

	var agg Resilience
	agg.Add(live)
	agg.Add(Resilience{Retries: 3, Requeues: 2})
	if agg.Retries != 5 || agg.Requeues != 2 {
		t.Errorf("Add accumulated %+v", agg)
	}
}
