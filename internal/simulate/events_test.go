package simulate

import (
	"reflect"
	"testing"

	"fbcache/internal/bundle"
	"fbcache/internal/faults"
	"fbcache/internal/mss"
	"fbcache/internal/policy/landlord"
	"fbcache/internal/workload"
)

func fastMSS() mss.Config {
	return mss.Config{Name: "test", LatencySec: 0.1, BandwidthBps: 200e6, Channels: 4}
}

func TestRunEventsBasics(t *testing.T) {
	w := smallWorkload(t, workload.Zipf, 400)
	p := optFactory()(w.Spec.CacheSize, w.Catalog.SizeFunc())
	st, err := RunEvents(w, p, EventOptions{
		ArrivalRate: 5,
		MSS:         fastMSS(),
		Slots:       4,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Jobs != 400 {
		t.Errorf("jobs = %d, want 400", st.Jobs)
	}
	if st.Throughput <= 0 {
		t.Errorf("throughput = %v", st.Throughput)
	}
	if st.MeanResponse <= 0 || st.P95Response < st.MeanResponse*0.1 {
		t.Errorf("responses: mean=%v p95=%v", st.MeanResponse, st.P95Response)
	}
	if st.MeanStaging < 0 {
		t.Errorf("staging = %v", st.MeanStaging)
	}
	if st.ByteMissRatio <= 0 || st.ByteMissRatio > 1 {
		t.Errorf("byte miss = %v", st.ByteMissRatio)
	}
	if st.MSSUtilization < 0 || st.MSSUtilization > 1 {
		t.Errorf("utilization = %v", st.MSSUtilization)
	}
	if err := p.Cache().CheckInvariants(); err != nil {
		t.Error(err)
	}
	// All pins must be released at the end.
	for _, f := range p.Cache().Resident() {
		if p.Cache().Pinned(f) {
			t.Fatalf("file %d still pinned after run", f)
		}
	}
}

func TestRunEventsValidation(t *testing.T) {
	w := smallWorkload(t, workload.Uniform, 10)
	p := optFactory()(w.Spec.CacheSize, w.Catalog.SizeFunc())
	if _, err := RunEvents(nil, p, EventOptions{ArrivalRate: 1, MSS: fastMSS()}); err == nil {
		t.Error("nil workload accepted")
	}
	if _, err := RunEvents(w, p, EventOptions{ArrivalRate: 0, MSS: fastMSS()}); err == nil {
		t.Error("zero arrival rate accepted")
	}
	if _, err := RunEvents(w, p, EventOptions{ArrivalRate: 1, MSS: mss.Config{}}); err == nil {
		t.Error("bad MSS accepted")
	}
}

func TestRunEventsDeterministic(t *testing.T) {
	w := smallWorkload(t, workload.Zipf, 200)
	run := func() EventStats {
		p := optFactory()(w.Spec.CacheSize, w.Catalog.SizeFunc())
		st, err := RunEvents(w, p, EventOptions{ArrivalRate: 3, MSS: fastMSS(), Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("nondeterministic event sim:\n%+v\n%+v", a, b)
	}
}

func TestRunEventsBetterCachingMeansBetterResponse(t *testing.T) {
	// A slow archive makes miss traffic dominate response time, so the
	// policy with the lower byte miss ratio must win on mean response.
	w := smallWorkload(t, workload.Zipf, 600)
	slow := mss.Config{Name: "tape", LatencySec: 5, BandwidthBps: 20e6, Channels: 2}
	opts := EventOptions{ArrivalRate: 0.5, MSS: slow, Slots: 2, Seed: 3}

	pOpt := optFactory()(w.Spec.CacheSize, w.Catalog.SizeFunc())
	stOpt, err := RunEvents(w, pOpt, opts)
	if err != nil {
		t.Fatal(err)
	}
	pLL := landlord.Factory()(w.Spec.CacheSize, w.Catalog.SizeFunc())
	stLL, err := RunEvents(w, pLL, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("opt: miss=%.4f mean=%.2fs  landlord: miss=%.4f mean=%.2fs",
		stOpt.ByteMissRatio, stOpt.MeanResponse, stLL.ByteMissRatio, stLL.MeanResponse)
	if stOpt.ByteMissRatio >= stLL.ByteMissRatio {
		t.Errorf("opt byte miss %.4f not below landlord %.4f", stOpt.ByteMissRatio, stLL.ByteMissRatio)
	}
	if stOpt.MeanResponse >= stLL.MeanResponse {
		t.Errorf("opt mean response %.2f not below landlord %.2f", stOpt.MeanResponse, stLL.MeanResponse)
	}
}

func TestRunEventsEmptyJobs(t *testing.T) {
	w := smallWorkload(t, workload.Uniform, 10)
	w.Jobs = nil
	p := optFactory()(w.Spec.CacheSize, w.Catalog.SizeFunc())
	st, err := RunEvents(w, p, EventOptions{ArrivalRate: 1, MSS: fastMSS()})
	if err != nil {
		t.Fatal(err)
	}
	if st.Jobs != 0 {
		t.Errorf("jobs = %d", st.Jobs)
	}
}

func TestRunEventsMaxJobs(t *testing.T) {
	w := smallWorkload(t, workload.Uniform, 100)
	p := optFactory()(w.Spec.CacheSize, w.Catalog.SizeFunc())
	st, err := RunEvents(w, p, EventOptions{ArrivalRate: 10, MSS: fastMSS(), MaxJobs: 25})
	if err != nil {
		t.Fatal(err)
	}
	if st.Jobs != 25 {
		t.Errorf("jobs = %d, want 25", st.Jobs)
	}
}

// BenchmarkRunEvents measures whole discrete-event runs of 500 zipf jobs.
// /plain is the single-archive model. /replication is the 2-site grid with
// remote-only replicas, one outage of the remote archive and the epoch
// re-planner on (the shape of bench/'s sim-grid workload: 0.2 jobs/s, 40 s
// epochs, so about 60 epochs per run); the catalog is rebuilt outside the
// timer because the planner mutates it.
func BenchmarkRunEvents(b *testing.B) {
	w := smallWorkload(b, workload.Zipf, 500)
	b.Run("plain", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := optFactory()(w.Spec.CacheSize, w.Catalog.SizeFunc())
			if _, err := RunEvents(w, p, EventOptions{ArrivalRate: 5, MSS: fastMSS(), Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("replication", func(b *testing.B) {
		sc := faults.Scenario{Sites: map[int]faults.SiteFaults{
			1: {Outages: []faults.Window{{Start: 625, End: 1125}}},
		}}
		repl := ReplicationConfig{EpochSec: 40, Budget: 4 * w.Spec.CacheSize, RiskHorizonSec: 80}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cfg := buildGrid(b, w, func(bundle.FileID) bool { return false })
			b.StartTimer()
			p := optFactory()(w.Spec.CacheSize, w.Catalog.SizeFunc())
			st, err := RunEvents(w, p, EventOptions{
				ArrivalRate: 0.2, Grid: cfg, Seed: 1, Faults: &sc, Replication: &repl,
			})
			if err != nil {
				b.Fatal(err)
			}
			if st.Replication.Epochs == 0 {
				b.Fatal("re-planner never ran")
			}
		}
	})
}
