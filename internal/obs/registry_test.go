package obs

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// TestCounterConcurrent registers func-backed counters from several
// goroutines while others snapshot the registry: registration and Snapshot
// share the registry lock, and every counter reads its final value.
func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			var n atomic.Int64
			r.CounterFunc(fmt.Sprintf("obs_test_%d_total", w), "test counter",
				func() float64 { return float64(n.Load()) })
			for i := 0; i < per; i++ {
				n.Add(1)
			}
		}(w)
		go func() {
			defer wg.Done()
			r.Snapshot()
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if len(s.Metrics) != workers {
		t.Fatalf("snapshot has %d metrics, want %d", len(s.Metrics), workers)
	}
	for _, m := range s.Metrics {
		if m.Value != per {
			t.Errorf("%s = %g, want %d", m.Name, m.Value, per)
		}
	}
}

// TestGaugeConcurrentAdd reads a func-backed gauge through snapshots taken
// while writers move its source: every read is a value the source held.
func TestGaugeConcurrentAdd(t *testing.T) {
	r := NewRegistry()
	var halves atomic.Int64
	r.GaugeFunc("obs_test_gauge", "test gauge", func() float64 { return float64(halves.Load()) * 0.5 })
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				halves.Add(1)
			}
		}()
		go func() {
			defer wg.Done()
			m, _ := r.Snapshot().Get("obs_test_gauge")
			if m.Value < 0 || m.Value > float64(workers*per)*0.5 {
				t.Errorf("mid-run gauge = %g, outside [0, %g]", m.Value, float64(workers*per)*0.5)
			}
		}()
	}
	wg.Wait()
	m, _ := r.Snapshot().Get("obs_test_gauge")
	if got, want := m.Value, float64(workers*per)*0.5; got != want {
		t.Fatalf("gauge = %g, want %g", got, want)
	}
}

func zero() float64 { return 0 }

func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("obs_test_seconds", "edges", []float64{1, 2, 5})
	// Upper bounds are inclusive (Prometheus le semantics).
	for _, v := range []float64{0.5, 1, 1.0000001, 2, 4.9, 5, 5.1, 100} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	m, ok := snap.Get("obs_test_seconds")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	wantCum := []int64{2, 4, 6, 8} // ≤1: {0.5,1}; ≤2: +{1.0000001,2}; ≤5: +{4.9,5}; +Inf: +{5.1,100}
	if len(m.Buckets) != len(wantCum) {
		t.Fatalf("bucket count = %d, want %d", len(m.Buckets), len(wantCum))
	}
	for i, b := range m.Buckets {
		if b.Count != wantCum[i] {
			t.Errorf("bucket[%d] (le=%g) = %d, want %d", i, b.UpperBound, b.Count, wantCum[i])
		}
	}
	if !math.IsInf(m.Buckets[len(m.Buckets)-1].UpperBound, 1) {
		t.Errorf("last bucket bound = %g, want +Inf", m.Buckets[len(m.Buckets)-1].UpperBound)
	}
	if m.Count != 8 {
		t.Errorf("count = %d, want 8", m.Count)
	}
	if want := 0.5 + 1 + 1.0000001 + 2 + 4.9 + 5 + 5.1 + 100; m.Sum != want {
		t.Errorf("sum = %g, want %g", m.Sum, want)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("obs_test_conc", "concurrent", []float64{10})
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w%2) * 20) // half below 10, half above
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Fatalf("count = %d, want %d", got, workers*per)
	}
	m, _ := r.Snapshot().Get("obs_test_conc")
	if m.Buckets[0].Count != workers*per/2 || m.Buckets[1].Count != workers*per {
		t.Fatalf("cumulative buckets = %+v", m.Buckets)
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("zeta_total", "", zero)
	r.GaugeFunc("alpha", "", zero)
	r.NewHistogram("mid_seconds", "", []float64{1})
	a, b := r.Snapshot(), r.Snapshot()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("back-to-back snapshots differ")
	}
	names := make([]string, len(a.Metrics))
	for i, m := range a.Metrics {
		names[i] = m.Name
	}
	want := []string{"alpha", "mid_seconds", "zeta_total"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("order = %v, want %v", names, want)
	}
}

func TestFuncMetrics(t *testing.T) {
	r := NewRegistry()
	n := 0.0
	r.CounterFunc("fn_total", "", func() float64 { return n })
	r.GaugeFunc("fn_gauge", "", func() float64 { return -n })
	n = 5
	s := r.Snapshot()
	if m, _ := s.Get("fn_total"); m.Value != 5 {
		t.Errorf("CounterFunc = %g, want 5", m.Value)
	}
	if m, _ := s.Get("fn_gauge"); m.Value != -5 {
		t.Errorf("GaugeFunc = %g, want -5", m.Value)
	}
}

func TestRegisterPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func(r *Registry)
	}{
		{"duplicate", func(r *Registry) {
			r.CounterFunc("dup_total", "", zero)
			r.CounterFunc("dup_total", "", zero)
		}},
		{"empty name", func(r *Registry) { r.CounterFunc("", "", zero) }},
		{"bad char", func(r *Registry) { r.CounterFunc("has space", "", zero) }},
		{"leading digit", func(r *Registry) { r.CounterFunc("9lives", "", zero) }},
		{"malformed labels", func(r *Registry) { r.CounterFunc(`x{a="b"`, "", zero) }},
		{"empty buckets", func(r *Registry) { r.NewHistogram("h", "", nil) }},
		{"unsorted buckets", func(r *Registry) { r.NewHistogram("h", "", []float64{5, 1}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", tc.name)
				}
			}()
			tc.fn(NewRegistry())
		})
	}
}

func TestLabeledNamesAccepted(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc(`fbcache_info{policy="opt"}`, "info", zero)
	if _, ok := r.Snapshot().Get(`fbcache_info{policy="opt"}`); !ok {
		t.Fatal("labeled metric missing from snapshot")
	}
}

func TestBucketHelpers(t *testing.T) {
	if got, want := ExpBuckets(1, 10, 3), []float64{1, 10, 100}; !reflect.DeepEqual(got, want) {
		t.Errorf("ExpBuckets = %v, want %v", got, want)
	}
}

func TestNewExpHistogram(t *testing.T) {
	h := NewExpHistogram(0.001, 2, 10) // 1ms .. 512ms
	want := ExpBuckets(0.001, 2, 10)
	if !reflect.DeepEqual(h.bounds, want) {
		t.Fatalf("bounds = %v, want %v", h.bounds, want)
	}

	// Quantile interpolation works over the log-scale layout: 100
	// observations at exactly the k-th bound put the k/100-quantile on that
	// bound (the estimator is exact on bucket edges).
	for i := 0; i < 100; i++ {
		h.Observe(want[i%len(want)])
	}
	if got := h.Quantile(1); got != want[len(want)-1] {
		t.Errorf("Quantile(1) = %g, want %g", got, want[len(want)-1])
	}
	if got := h.Quantile(0.1); got != want[0] {
		t.Errorf("Quantile(0.1) = %g, want %g", got, want[0])
	}
	// Mid-bucket values interpolate between adjacent bounds.
	if got := h.Quantile(0.15); !(got > want[0] && got < want[1]) {
		t.Errorf("Quantile(0.15) = %g, want inside (%g, %g)", got, want[0], want[1])
	}

	// The registered variant shows up in snapshots with the same layout.
	r := NewRegistry()
	rh := r.NewExpHistogram("exp_seconds", "help", 0.001, 2, 10)
	rh.Observe(0.003)
	m, ok := r.Snapshot().Get("exp_seconds")
	if !ok || m.Kind != KindHistogram {
		t.Fatalf("exp_seconds missing or wrong kind: %+v", m)
	}
	if len(m.Buckets) != 11 { // 10 bounds + implicit +Inf
		t.Errorf("snapshot has %d buckets, want 11", len(m.Buckets))
	}
	if m.Count != 1 || m.Sum != 0.003 {
		t.Errorf("count/sum = %d/%g, want 1/0.003", m.Count, m.Sum)
	}
}

func TestNewExpHistogramPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"zero start", func() { NewExpHistogram(0, 2, 4) }},
		{"negative start", func() { NewExpHistogram(-1, 2, 4) }},
		{"nan start", func() { NewExpHistogram(math.NaN(), 2, 4) }},
		{"factor one", func() { NewExpHistogram(1, 1, 4) }},
		{"shrinking factor", func() { NewExpHistogram(1, 0.5, 4) }},
		{"zero buckets", func() { NewExpHistogram(1, 2, 0) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", tc.name)
				}
			}()
			tc.fn()
		})
	}
}
