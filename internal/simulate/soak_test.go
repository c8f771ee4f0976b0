package simulate

import (
	"math/rand"
	"reflect"
	"testing"

	"fbcache/internal/bundle"
	"fbcache/internal/core"
	"fbcache/internal/faults"
	"fbcache/internal/history"
	"fbcache/internal/policy"
	"fbcache/internal/policy/classic"
	"fbcache/internal/policy/landlord"
	"fbcache/internal/workload"
)

// TestSoakAllPoliciesAllModes is the long mixed stress run: every policy
// variant crossed with every service mode (plain, queued, hybrid, timed)
// over a churning workload, with cache invariants checked throughout. It
// exists to catch interaction bugs none of the focused tests provoke.
func TestSoakAllPoliciesAllModes(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	spec := workload.DefaultSpec()
	spec.Jobs = 1200
	spec.NumFiles = 150
	spec.NumRequests = 90
	spec.CacheSize = 1 * bundle.GB // tight: heavy replacement churn
	spec.MaxFilePct = 0.08
	spec.MaxBundleFrac = 0.5
	spec.Popularity = workload.Zipf
	spec.Clusters = 15
	w, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}

	factories := map[string]policy.Factory{
		"opt-cache-resident": policy.OptFileBundleFactory(core.Options{
			History: history.Config{Truncation: history.CacheResident},
		}),
		"opt-window": policy.OptFileBundleFactory(core.Options{
			History: history.Config{Truncation: history.Window, Limit: 48},
		}),
		"opt-prefetch-literal": policy.OptFileBundleFactory(core.Options{
			History:      history.Config{Truncation: history.CacheResident},
			Prefetch:     true,
			LiteralEvict: true,
		}),
		"landlord": landlord.Factory(),
		"gdsf":     classic.GDSFFactory(),
		"lru":      classic.LRUFactory(),
	}

	for name, mk := range factories {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			// Plain paranoid run.
			p := mk(spec.CacheSize, w.Catalog.SizeFunc())
			col, err := Run(w, p, Options{Paranoid: true, Warmup: 100})
			if err != nil {
				t.Fatal(err)
			}
			if bmr := col.ByteMissRatio(); bmr <= 0 || bmr > 1 {
				t.Errorf("plain: byte miss %v", bmr)
			}

			// Queued run.
			p2 := mk(spec.CacheSize, w.Catalog.SizeFunc())
			col2, err := Run(w, p2, Options{QueueLength: 20, Paranoid: true})
			if err != nil {
				t.Fatal(err)
			}
			if col2.Jobs() != int64(spec.Jobs) {
				t.Errorf("queued: served %d of %d", col2.Jobs(), spec.Jobs)
			}

			// Hybrid run.
			p3 := mk(spec.CacheSize, w.Catalog.SizeFunc())
			st, err := RunHybrid(w, p3, HybridOptions{BundleFraction: 0.6, Seed: 5, Paranoid: true})
			if err != nil {
				t.Fatal(err)
			}
			if st.BundleJobs+st.PerFileJobs != int64(spec.Jobs) {
				t.Errorf("hybrid: lost jobs")
			}

			// Timed run with pinning.
			p4 := mk(spec.CacheSize, w.Catalog.SizeFunc())
			ev, err := RunEvents(w, p4, EventOptions{ArrivalRate: 4, MSS: fastMSS(), Seed: 2, MaxJobs: 600})
			if err != nil {
				t.Fatal(err)
			}
			if ev.Jobs != 600 {
				t.Errorf("events: %d jobs", ev.Jobs)
			}
			for _, f := range p4.Cache().Resident() {
				if p4.Cache().Pinned(f) {
					t.Fatalf("events: leaked pin on %d", f)
				}
			}
		})
	}

	// Adversarial bundle stream straight at one policy: random duplicates,
	// singletons, giant unserviceable bundles, empty bundles.
	p := factories["opt-cache-resident"](spec.CacheSize, w.Catalog.SizeFunc())
	rng := rand.New(rand.NewSource(123))
	for i := 0; i < 2000; i++ {
		var ids []bundle.FileID
		for k := 0; k < rng.Intn(12); k++ {
			ids = append(ids, bundle.FileID(rng.Intn(spec.NumFiles)))
		}
		res := p.Admit(bundle.New(ids...))
		if !res.Unserviceable && !p.Cache().Supports(bundle.New(ids...)) {
			t.Fatalf("step %d: serviced bundle not resident", i)
		}
		if err := p.Cache().CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

// TestFaultSoak is the fault-schedule stress run: a grid sim under a dense
// scenario (outages, link-down windows, brownouts, per-transfer failures,
// staging budgets, requeues) for each policy family. It asserts the event
// loop terminates, every submitted job is accounted for (completed + failed
// + oversized), pins are released, and two runs sharing a seed are
// byte-identical. CI runs it with -tags fbinvariant so the cache's
// invariant checks are armed throughout.
func TestFaultSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	spec := workload.DefaultSpec()
	spec.Jobs = 800
	spec.NumFiles = 150
	spec.NumRequests = 90
	spec.CacheSize = 1 * bundle.GB
	spec.MaxFilePct = 0.08
	spec.MaxBundleFrac = 0.5
	spec.Popularity = workload.Zipf
	spec.Clusters = 15
	w, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}

	sc := faults.Scenario{
		Seed:                41,
		TransferFailureProb: 0.15,
		Sites: map[int]faults.SiteFaults{
			0: {
				Outages:   []faults.Window{{Start: 30, End: 60}, {Start: 200, End: 230}},
				Brownouts: []faults.Brownout{{Window: faults.Window{Start: 100, End: 180}, Factor: 3}},
			},
			1: {
				Outages:  []faults.Window{{Start: 50, End: 90}},
				LinkDown: []faults.Window{{Start: 140, End: 170}, {Start: 300, End: 320}},
			},
		},
		Retry:          faults.RetryPolicy{MaxAttempts: 3, BaseDelaySec: 0.5, MaxDelaySec: 10, Multiplier: 2, JitterFrac: 0.25},
		StageBudgetSec: 120,
		MaxJobAttempts: 3,
	}

	factories := map[string]policy.Factory{
		"opt-cache-resident": policy.OptFileBundleFactory(core.Options{
			History: history.Config{Truncation: history.CacheResident},
		}),
		"landlord": landlord.Factory(),
		"lru":      classic.LRUFactory(),
	}
	for name, mk := range factories {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			run := func() EventStats {
				p := mk(spec.CacheSize, w.Catalog.SizeFunc())
				cfg := buildGrid(t, w, func(f bundle.FileID) bool { return f%2 == 0 })
				st, err := RunEvents(w, p, EventOptions{ArrivalRate: 3, Grid: cfg, Seed: 17, Faults: &sc})
				if err != nil {
					t.Fatal(err)
				}
				if err := p.Cache().CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				for _, f := range p.Cache().Resident() {
					if p.Cache().Pinned(f) {
						t.Fatalf("leaked pin on %d", f)
					}
				}
				return st
			}
			a, b := run(), run()
			if !reflect.DeepEqual(a, b) {
				t.Errorf("fault soak not reproducible:\n%+v\n%+v", a, b)
			}
			if got := a.Jobs + a.Resilience.FailedJobs + a.UnservedOversized; got != int64(spec.Jobs) {
				t.Errorf("job accounting: completed %d + failed %d + oversized %d = %d, want %d",
					a.Jobs, a.Resilience.FailedJobs, a.UnservedOversized, got, spec.Jobs)
			}
			if a.Resilience.Retries == 0 {
				t.Errorf("soak scenario exercised no retries: %v", a.Resilience)
			}
			t.Logf("%s: %+v downtime=%v", name, a.Resilience, a.SiteDowntime)
		})
	}
}

// TestFaultSoakChurnCorrelated crosses the generated scenario shapes —
// correlated rack-group failures, site churn, diurnal brownouts — with the
// epoch re-planner armed. The composed schedule is drawn once from seeded
// generators, so the whole soak (fault draws, replication epochs, recovery
// records) must be byte-reproducible; job accounting and pin hygiene are
// checked as in TestFaultSoak.
func TestFaultSoakChurnCorrelated(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	spec := workload.DefaultSpec()
	spec.Jobs = 700
	spec.NumFiles = 150
	spec.NumRequests = 90
	spec.CacheSize = 1 * bundle.GB
	spec.MaxFilePct = 0.08
	spec.MaxBundleFrac = 0.5
	spec.Popularity = workload.Zipf
	spec.Clusters = 15
	w, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}

	sites := genCorrelated(correlatedConfig{
		Seed: 71, Groups: [][]int{{1}}, OutagesPerGroup: 2,
		MeanOutageSec: 25, HorizonSec: 300,
	})
	sites = mergeSites(sites, genChurn(churnConfig{
		Seed: 72, Sites: []int{1}, MeanUpSec: 80, MeanDownSec: 15, HorizonSec: 300,
	}))
	sites = mergeSites(sites, genDiurnal(diurnalConfig{
		Seed: 73, Sites: []int{0, 1}, PeriodSec: 100, BusyFrac: 0.3,
		Factor: 2.5, HorizonSec: 300, PhaseJitter: true,
	}))
	sc := faults.Scenario{
		Seed:                74,
		TransferFailureProb: 0.1,
		Sites:               sites,
		Retry:               faults.RetryPolicy{MaxAttempts: 3, BaseDelaySec: 0.5, MaxDelaySec: 10, Multiplier: 2, JitterFrac: 0.25},
		StageBudgetSec:      150,
		MaxJobAttempts:      3,
	}
	if err := sc.Validate(); err != nil {
		t.Fatalf("generated scenario invalid: %v", err)
	}

	run := func() EventStats {
		p := policy.OptFileBundleFactory(core.Options{
			History: history.Config{Truncation: history.CacheResident},
		})(spec.CacheSize, w.Catalog.SizeFunc())
		cfg := buildGrid(t, w, func(f bundle.FileID) bool { return f%3 == 0 })
		st, err := RunEvents(w, p, EventOptions{
			ArrivalRate: 3, Grid: cfg, Seed: 19, Faults: &sc,
			Replication: &ReplicationConfig{
				EpochSec: 15, Budget: 4 * bundle.GB,
				RetireBelow: 0.05, RiskHorizonSec: 30,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Cache().CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		for _, f := range p.Cache().Resident() {
			if p.Cache().Pinned(f) {
				t.Fatalf("leaked pin on %d", f)
			}
		}
		return st
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("churn soak not reproducible:\n%+v\n%+v", a, b)
	}
	if got := a.Jobs + a.Resilience.FailedJobs + a.UnservedOversized; got != int64(spec.Jobs) {
		t.Errorf("job accounting: completed %d + failed %d + oversized %d = %d, want %d",
			a.Jobs, a.Resilience.FailedJobs, a.UnservedOversized, got, spec.Jobs)
	}
	if a.Replication.Epochs == 0 {
		t.Error("re-planner never ran under the churn scenario")
	}
	if len(a.Recoveries) == 0 {
		t.Error("generated outages produced no recovery records")
	}
	t.Logf("resilience=%+v replication=%+v recoveries=%d downtime=%v",
		a.Resilience, a.Replication, len(a.Recoveries), a.SiteDowntime)
}
