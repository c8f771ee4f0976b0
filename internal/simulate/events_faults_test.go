package simulate

import (
	"reflect"
	"testing"

	"fbcache/internal/bundle"
	"fbcache/internal/faults"
	"fbcache/internal/metrics"
	"fbcache/internal/workload"
)

// TestFaultsZeroScenarioBitIdentical is the acceptance gate for the fault
// layer: arming the injector with the zero scenario must reproduce the
// fault-free run bit for bit — same timings, same stats, no RNG drift.
func TestFaultsZeroScenarioBitIdentical(t *testing.T) {
	w := smallWorkload(t, workload.Zipf, 300)
	run := func(sc *faults.Scenario, cfg *GridConfig) EventStats {
		p := optFactory()(w.Spec.CacheSize, w.Catalog.SizeFunc())
		opts := EventOptions{ArrivalRate: 3, Seed: 11, Faults: sc}
		if cfg != nil {
			opts.Grid = cfg
		} else {
			opts.MSS = fastMSS()
		}
		st, err := RunEvents(w, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	plain := run(nil, nil)
	armed := run(&faults.Scenario{}, nil)
	if armed.Resilience != (metrics.Resilience{}) {
		t.Errorf("zero scenario recorded resilience events: %v", armed.Resilience)
	}
	if !reflect.DeepEqual(plain, armed) {
		t.Errorf("zero-scenario MSS run diverged:\n%+v\n%+v", plain, armed)
	}

	gplain := run(nil, buildGrid(t, w, func(f bundle.FileID) bool { return f%2 == 0 }))
	garmed := run(&faults.Scenario{}, buildGrid(t, w, func(f bundle.FileID) bool { return f%2 == 0 }))
	// The armed grid run reports a (all-zero) downtime vector; everything
	// else must match exactly.
	for i, d := range garmed.SiteDowntime {
		if d != 0 {
			t.Errorf("zero scenario reported downtime at site %d: %v", i, d)
		}
	}
	garmed.SiteDowntime = nil
	if !reflect.DeepEqual(gplain, garmed) {
		t.Errorf("zero-scenario grid run diverged:\n%+v\n%+v", gplain, garmed)
	}
}

// TestFaultsDeterministic: two runs sharing workload, policy and fault
// scenario must agree on every statistic, including the resilience counters.
func TestFaultsDeterministic(t *testing.T) {
	w := smallWorkload(t, workload.Zipf, 300)
	sc := faults.Scenario{
		Seed:                99,
		TransferFailureProb: 0.2,
		Sites: map[int]faults.SiteFaults{
			1: {
				Outages:   []faults.Window{{Start: 40, End: 70}},
				Brownouts: []faults.Brownout{{Window: faults.Window{Start: 90, End: 130}, Factor: 2.5}},
			},
		},
		MaxJobAttempts: 3,
	}
	run := func() EventStats {
		p := optFactory()(w.Spec.CacheSize, w.Catalog.SizeFunc())
		cfg := buildGrid(t, w, func(f bundle.FileID) bool { return f%3 == 0 })
		st, err := RunEvents(w, p, EventOptions{ArrivalRate: 2, Grid: cfg, Seed: 5, Faults: &sc})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("fault run not reproducible:\n%+v\n%+v", a, b)
	}
	if a.Resilience.Retries == 0 {
		t.Errorf("20%% failure probability produced no retries: %v", a.Resilience)
	}
	if len(a.SiteDowntime) != 2 || a.SiteDowntime[1] <= 0 {
		t.Errorf("downtime not reported for the faulty site: %v", a.SiteDowntime)
	}
}

// TestFaultsFailover: with the local site dark for the whole run, every
// locally-replicated file must be pulled from the remote replica instead —
// the run completes, and each fallback is counted as a failover.
func TestFaultsFailover(t *testing.T) {
	w := smallWorkload(t, workload.Zipf, 200)
	sc := faults.Scenario{
		Sites: map[int]faults.SiteFaults{
			0: {Outages: []faults.Window{{Start: 0, End: 1e9}}},
		},
	}
	p := optFactory()(w.Spec.CacheSize, w.Catalog.SizeFunc())
	cfg := buildGrid(t, w, func(bundle.FileID) bool { return true }) // everything has a local replica
	st, err := RunEvents(w, p, EventOptions{ArrivalRate: 2, Grid: cfg, Seed: 5, Faults: &sc})
	if err != nil {
		t.Fatal(err)
	}
	if st.Jobs != 200 {
		t.Errorf("jobs = %d, want all 200 to complete via the remote replica", st.Jobs)
	}
	if st.Resilience.Failovers == 0 {
		t.Error("no failovers counted despite the local site being down")
	}
	if st.Resilience.FailedJobs != 0 {
		t.Errorf("failover path failed %d jobs", st.Resilience.FailedJobs)
	}
	if len(st.SiteDowntime) == 0 || st.SiteDowntime[0] < st.Makespan-1e-9 {
		t.Errorf("site 0 downtime = %v, want the whole makespan %v", st.SiteDowntime, st.Makespan)
	}
}

// TestFaultsBudgetExhaustion: an archive that is down longer than the
// staging budget allows must fail jobs (after the configured requeues), and
// every submitted job must still be accounted for.
func TestFaultsBudgetExhaustion(t *testing.T) {
	w := smallWorkload(t, workload.Zipf, 150)
	sc := faults.Scenario{
		Sites: map[int]faults.SiteFaults{
			0: {Outages: []faults.Window{{Start: 0, End: 1e9}}},
		},
		StageBudgetSec: 30,
		MaxJobAttempts: 2,
	}
	p := optFactory()(w.Spec.CacheSize, w.Catalog.SizeFunc())
	st, err := RunEvents(w, p, EventOptions{ArrivalRate: 2, MSS: fastMSS(), Seed: 9, Faults: &sc})
	if err != nil {
		t.Fatal(err)
	}
	if st.Resilience.FailedJobs == 0 {
		t.Errorf("permanent outage with a 30s budget failed no jobs: %v", st.Resilience)
	}
	if st.Resilience.Timeouts == 0 {
		t.Errorf("budget exhaustion recorded no timeouts: %v", st.Resilience)
	}
	if st.Resilience.Requeues == 0 {
		t.Errorf("MaxJobAttempts=2 recorded no requeues: %v", st.Resilience)
	}
	total := st.Jobs + st.Resilience.FailedJobs + st.UnservedOversized
	if total != 150 {
		t.Errorf("job accounting: completed %d + failed %d + oversized %d != 150",
			st.Jobs, st.Resilience.FailedJobs, st.UnservedOversized)
	}
}

// TestFaultsRetriesRecover: a moderate per-transfer failure probability with
// no schedule faults should slow the run down (backoff delays show up in
// response times) but not lose jobs, since retries and requeues are
// plentiful.
func TestFaultsRetriesRecover(t *testing.T) {
	w := smallWorkload(t, workload.Zipf, 200)
	run := func(prob float64) EventStats {
		p := optFactory()(w.Spec.CacheSize, w.Catalog.SizeFunc())
		sc := faults.Scenario{Seed: 3, TransferFailureProb: prob, MaxJobAttempts: 4}
		st, err := RunEvents(w, p, EventOptions{ArrivalRate: 1, MSS: fastMSS(), Seed: 9, Faults: &sc})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	clean := run(0)
	faulty := run(0.3)
	if faulty.Resilience.Retries == 0 {
		t.Fatalf("no retries at 30%% failure probability: %v", faulty.Resilience)
	}
	if faulty.Jobs != clean.Jobs {
		t.Errorf("retry path lost jobs: %d vs %d (resilience %v)", faulty.Jobs, clean.Jobs, faulty.Resilience)
	}
	if faulty.MeanResponse <= clean.MeanResponse {
		t.Errorf("backoff did not slow responses: faulty %.2fs <= clean %.2fs",
			faulty.MeanResponse, clean.MeanResponse)
	}
}
