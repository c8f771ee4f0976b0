package simulate

import (
	"testing"

	"fbcache/internal/bundle"
	"fbcache/internal/core"
	"fbcache/internal/metrics"
	"fbcache/internal/policy"
	"fbcache/internal/policy/classic"
	"fbcache/internal/policy/landlord"
	"fbcache/internal/queue"
	"fbcache/internal/workload"
)

func smallWorkload(t testing.TB, pop workload.Popularity, jobs int) *workload.Workload {
	t.Helper()
	spec := workload.DefaultSpec()
	spec.Popularity = pop
	spec.Jobs = jobs
	spec.NumFiles = 120
	spec.NumRequests = 80
	spec.CacheSize = 2 * bundle.GB
	spec.MaxFilePct = 0.05
	spec.MaxBundleFrac = 0.4
	w, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func optFactory() policy.Factory {
	return policy.OptFileBundleFactory(core.Options{})
}

func TestRunBasics(t *testing.T) {
	w := smallWorkload(t, workload.Uniform, 500)
	p := optFactory()(w.Spec.CacheSize, w.Catalog.SizeFunc())
	col, err := Run(w, p, Options{Paranoid: true})
	if err != nil {
		t.Fatal(err)
	}
	if col.Jobs() != 500 {
		t.Errorf("jobs = %d", col.Jobs())
	}
	bmr := col.ByteMissRatio()
	if bmr <= 0 || bmr > 1 {
		t.Errorf("byte miss ratio = %v, want (0,1]", bmr)
	}
	if col.HitRatio() < 0 || col.HitRatio() > 1 {
		t.Errorf("hit ratio = %v", col.HitRatio())
	}
}

func TestRunNilArgs(t *testing.T) {
	w := smallWorkload(t, workload.Uniform, 10)
	if _, err := Run(nil, nil, Options{}); err == nil {
		t.Error("nil args accepted")
	}
	if _, err := Run(w, nil, Options{}); err == nil {
		t.Error("nil policy accepted")
	}
}

func TestRunMaxJobs(t *testing.T) {
	w := smallWorkload(t, workload.Uniform, 500)
	p := optFactory()(w.Spec.CacheSize, w.Catalog.SizeFunc())
	col, err := Run(w, p, Options{MaxJobs: 50})
	if err != nil {
		t.Fatal(err)
	}
	if col.Jobs() != 50 {
		t.Errorf("jobs = %d, want 50", col.Jobs())
	}
}

func TestRunDeterministic(t *testing.T) {
	w := smallWorkload(t, workload.Zipf, 800)
	run := func() float64 {
		p := optFactory()(w.Spec.CacheSize, w.Catalog.SizeFunc())
		col, err := Run(w, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return col.ByteMissRatio()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("nondeterministic: %v vs %v", a, b)
	}
}

// The paper's headline claim, as an integration test: OptFileBundle beats
// Landlord on byte miss ratio for both distributions, and warm caches beat
// popularity-blind baselines under Zipf.
func TestOptFileBundleBeatsLandlord(t *testing.T) {
	for _, pop := range []workload.Popularity{workload.Uniform, workload.Zipf} {
		w := smallWorkload(t, pop, 3000)
		results, err := Compare(w, []policy.Factory{
			optFactory(), landlord.Factory(),
		}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		opt := results["optfilebundle"].ByteMissRatio()
		ll := results["landlord"].ByteMissRatio()
		if opt >= ll {
			t.Errorf("%v: optfilebundle %.4f not below landlord %.4f", pop, opt, ll)
		}
		t.Logf("%v: optfilebundle=%.4f landlord=%.4f", pop, opt, ll)
	}
}

func TestZipfMissRatioBelowUniform(t *testing.T) {
	// Paper §5.3: byte miss ratios are much lower under Zipf than uniform.
	mk := optFactory()
	run := func(pop workload.Popularity) float64 {
		w := smallWorkload(t, pop, 3000)
		p := mk(w.Spec.CacheSize, w.Catalog.SizeFunc())
		col, err := Run(w, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return col.ByteMissRatio()
	}
	u, z := run(workload.Uniform), run(workload.Zipf)
	if z >= u {
		t.Errorf("zipf %.4f not below uniform %.4f", z, u)
	}
}

func TestCompareRejectsDuplicateNames(t *testing.T) {
	w := smallWorkload(t, workload.Uniform, 10)
	if _, err := Compare(w, []policy.Factory{optFactory(), optFactory()}, Options{}); err == nil {
		t.Error("duplicate names accepted")
	}
}

func TestQueuedRunServesEverything(t *testing.T) {
	w := smallWorkload(t, workload.Zipf, 1000)
	sizeOf := w.Catalog.SizeFunc()
	opt := core.New(w.Spec.CacheSize, sizeOf, core.Options{})
	sched := queue.ByScore("relvalue", opt.RelativeValue)
	col, err := Run(w, opt, Options{QueueLength: 25, Scheduler: sched})
	if err != nil {
		t.Fatal(err)
	}
	if col.Jobs() != 1000 {
		t.Errorf("jobs = %d, want all 1000 served (flush included)", col.Jobs())
	}
}

func TestQueueingHelpsZipf(t *testing.T) {
	// Fig. 9(b): larger queues lower the byte miss ratio under Zipf.
	w := smallWorkload(t, workload.Zipf, 4000)
	sizeOf := w.Catalog.SizeFunc()
	run := func(q int) float64 {
		opt := core.New(w.Spec.CacheSize, sizeOf, core.Options{})
		col, err := Run(w, opt, Options{QueueLength: q, Scheduler: queue.ByScore("rv", opt.RelativeValue)})
		if err != nil {
			t.Fatal(err)
		}
		return col.ByteMissRatio()
	}
	q1, q100 := run(1), run(100)
	if q100 > q1*1.02 { // must not be meaningfully worse
		t.Errorf("q=100 miss %.4f worse than q=1 %.4f", q100, q1)
	}
	t.Logf("zipf: q1=%.4f q100=%.4f", q1, q100)
}

func TestSeriesCollection(t *testing.T) {
	w := smallWorkload(t, workload.Uniform, 300)
	p := optFactory()(w.Spec.CacheSize, w.Catalog.SizeFunc())
	col, err := Run(w, p, Options{SeriesInterval: 100})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(col.Series()); got != 3 {
		t.Errorf("series points = %d, want 3", got)
	}
}

func TestAllPoliciesComplete(t *testing.T) {
	w := smallWorkload(t, workload.Zipf, 1000)
	factories := []policy.Factory{
		optFactory(), landlord.Factory(), classic.LRUFactory(),
		classic.LFUFactory(), classic.GDSFFactory(), classic.FIFOFactory(),
		classic.MRUFactory(), classic.RandomFactory(42),
	}
	results, err := Compare(w, factories, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(factories) {
		t.Fatalf("got %d results", len(results))
	}
	var best string
	bestMiss := 2.0
	for name, col := range results {
		bmr := col.ByteMissRatio()
		if bmr <= 0 || bmr > 1 {
			t.Errorf("%s: byte miss ratio %v out of range", name, bmr)
		}
		if bmr < bestMiss {
			best, bestMiss = name, bmr
		}
	}
	t.Logf("best policy: %s at %.4f", best, bestMiss)
}

var benchSink *metrics.Collector

func BenchmarkRunOptFileBundle1000(b *testing.B) {
	w := smallWorkload(b, workload.Zipf, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := optFactory()(w.Spec.CacheSize, w.Catalog.SizeFunc())
		col, err := Run(w, p, Options{})
		if err != nil {
			b.Fatal(err)
		}
		benchSink = col
	}
}

func BenchmarkRunLandlord1000(b *testing.B) {
	w := smallWorkload(b, workload.Zipf, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := landlord.Factory()(w.Spec.CacheSize, w.Catalog.SizeFunc())
		col, err := Run(w, p, Options{})
		if err != nil {
			b.Fatal(err)
		}
		benchSink = col
	}
}

func TestWarmupExcludesRampFromMetrics(t *testing.T) {
	w := smallWorkload(t, workload.Zipf, 2000)
	run := func(warmup int) (float64, int64) {
		p := optFactory()(w.Spec.CacheSize, w.Catalog.SizeFunc())
		col, err := Run(w, p, Options{Warmup: warmup})
		if err != nil {
			t.Fatal(err)
		}
		return col.ByteMissRatio(), col.Jobs()
	}
	cold, jobsCold := run(0)
	warm, jobsWarm := run(500)
	if jobsCold != 2000 || jobsWarm != 1500 {
		t.Fatalf("jobs: cold=%d warm=%d", jobsCold, jobsWarm)
	}
	// The compulsory-miss ramp inflates the cold ratio.
	if warm >= cold {
		t.Errorf("steady-state miss %.4f not below cold-start %.4f", warm, cold)
	}
}

// Property: for every policy (no speculative prefetch), the collector's byte
// accounting matches the cache's own load counters exactly.
func TestByteAccountingConsistency(t *testing.T) {
	w := smallWorkload(t, workload.Zipf, 800)
	factories := []policy.Factory{
		optFactory(), landlord.Factory(), classic.LRUFactory(),
		classic.LFUFactory(), classic.GDSFFactory(), classic.FIFOFactory(),
	}
	for _, mk := range factories {
		p := mk(w.Spec.CacheSize, w.Catalog.SizeFunc())
		col, err := Run(w, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		loaded, _, loads, _ := p.Cache().Counters()
		if loaded != col.BytesLoaded() {
			t.Errorf("%s: collector %d bytes != cache %d", p.Name(), col.BytesLoaded(), loaded)
		}
		if loads != col.FilesLoaded() {
			t.Errorf("%s: collector %d files != cache %d", p.Name(), col.FilesLoaded(), loads)
		}
	}
}
