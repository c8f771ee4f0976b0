// Package analyze derives the paper's evaluation quantities (§6, Figs 4–9)
// offline from JSONL event traces: a replay validator that reconstructs
// cache residency and re-checks the internal/invariant properties after the
// fact, residency/churn/hit-ratio summaries, per-job critical-path
// breakdowns, trace-vs-trace diffs, and per-op latency profiles over the
// request-span telemetry dumped by the flight recorder. It consumes the
// typed events decoded by internal/obs/traceio and is driven by
// cmd/fbtrace.
//
// Time units: simulator-level events (stage, job_served) carry sim-time
// seconds; policy- and cache-level events carry per-component ordinals that
// are not comparable across kinds. Analytics that need one clock for the
// whole trace therefore count served jobs — "this file stayed resident for
// 12 jobs" is both layer-independent and the natural unit for caching
// questions.
package analyze

import (
	"fbcache/internal/obs"
	"fbcache/internal/obs/traceio"
)

// TraceStats aggregates event counts and headline byte totals.
type TraceStats struct {
	Admits       int64 `json:"admits"`
	Hits         int64 `json:"hits"`
	Unserviced   int64 `json:"unserviced"`
	Loads        int64 `json:"loads"`
	Evicts       int64 `json:"evicts"`
	SelectRounds int64 `json:"select_rounds"`
	CreditDecays int64 `json:"credit_decays"`
	StageStarts  int64 `json:"stage_starts"`
	StageRetries int64 `json:"stage_retries"`
	Failovers    int64 `json:"failovers"`
	StageDones   int64 `json:"stage_dones"`
	JobsServed   int64 `json:"jobs_served"`
	ReplicaPlans int64 `json:"replica_plans"`
	BytesLoaded  int64 `json:"bytes_loaded"`
	BytesEvicted int64 `json:"bytes_evicted"`
	// BytesReplicated sums ReplicaPlanEvent.Bytes — the re-replication
	// traffic the adaptive planner moved.
	BytesReplicated int64 `json:"bytes_replicated"`
	// Spans counts wall-clock request spans (see obs.SpanEvent); SpanErrors
	// is the subset that finished with a non-empty error class.
	Spans      int64 `json:"spans"`
	SpanErrors int64 `json:"span_errors"`
}

// Stats counts events by kind and sums their headline byte totals — the
// same totals a live run would have accumulated.
func Stats(events []traceio.Event) TraceStats {
	var st TraceStats
	for _, e := range events {
		switch ev := e.Ev.(type) {
		case obs.AdmitEvent:
			st.Admits++
			if ev.Hit {
				st.Hits++
			}
			if ev.Unserviceable {
				st.Unserviced++
			}
		case obs.LoadEvent:
			st.Loads++
			st.BytesLoaded += ev.Bytes
		case obs.EvictEvent:
			st.Evicts++
			st.BytesEvicted += ev.Bytes
		case obs.SelectRoundEvent:
			st.SelectRounds++
		case obs.CreditDecayEvent:
			st.CreditDecays++
		case obs.StageEvent:
			switch ev.Phase {
			case obs.StageStart:
				st.StageStarts++
			case obs.StageRetry:
				st.StageRetries++
			case obs.StageFailover:
				st.Failovers++
			case obs.StageDone:
				st.StageDones++
			}
		case obs.JobServedEvent:
			st.JobsServed++
		case obs.ReplicaPlanEvent:
			st.ReplicaPlans++
			st.BytesReplicated += ev.Bytes
		case obs.SpanEvent:
			st.Spans++
			if ev.Err != "" {
				st.SpanErrors++
			}
		}
	}
	return st
}
