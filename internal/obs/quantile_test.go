package obs

import (
	"math"
	"testing"
)

// oneTo returns the bucket bounds 1, 2, ..., n.
func oneTo(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

// TestQuantileExactOnBoundAlignedValues pins the estimator against
// distributions whose observations sit exactly on bucket bounds, where
// linear interpolation must reproduce the true quantile with no error.
func TestQuantileExactOnBoundAlignedValues(t *testing.T) {
	cases := []struct {
		name    string
		bounds  []float64
		observe []float64
		q       float64
		want    float64
	}{
		{
			name:    "uniform 1..10, median",
			bounds:  oneTo(10),
			observe: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
			q:       0.5,
			want:    5,
		},
		{
			name:    "uniform 1..10, p90",
			bounds:  oneTo(10),
			observe: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
			q:       0.9,
			want:    9,
		},
		{
			name:    "uniform 1..10, p100 hits the top bound",
			bounds:  oneTo(10),
			observe: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
			q:       1,
			want:    10,
		},
		{
			name:    "all mass in one bucket",
			bounds:  []float64{1, 2, 4},
			observe: []float64{2, 2, 2, 2},
			q:       0.99,
			// Rank 3.96 of 4 lands in the (1,2] bucket holding all four
			// observations: 1 + (2-1)*3.96/4.
			want: 1.99,
		},
		{
			name:    "interpolation inside first bucket from lower edge 0",
			bounds:  []float64{10, 20},
			observe: []float64{5, 5, 5, 5},
			q:       0.5,
			// Two of four ranks inside (0,10]: 0 + 10*2/4.
			want: 5,
		},
		{
			name:    "overflow rank clamps to highest finite bound",
			bounds:  []float64{1, 2},
			observe: []float64{100, 200, 300},
			q:       0.5,
			want:    2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := NewRegistry()
			h := reg.NewHistogram("q_test", "", tc.bounds)
			for _, v := range tc.observe {
				h.Observe(v)
			}
			m, ok := reg.Snapshot().Get("q_test")
			if !ok {
				t.Fatal("histogram missing from snapshot")
			}
			got := m.Quantile(tc.q)
			if math.Abs(got-tc.want) > 1e-9 {
				t.Errorf("Quantile(%g) = %g, want %g", tc.q, got, tc.want)
			}
			// The live-histogram path must agree with the snapshot path.
			if live := h.Quantile(tc.q); math.Abs(live-got) > 1e-9 {
				t.Errorf("Histogram.Quantile(%g) = %g, snapshot says %g", tc.q, live, got)
			}
		})
	}
}

func TestQuantileDegenerateInputs(t *testing.T) {
	reg := NewRegistry()
	h := reg.NewHistogram("empty", "", []float64{1, 2})
	m, _ := reg.Snapshot().Get("empty")
	if got := m.Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("empty histogram quantile = %g, want NaN", got)
	}
	if got := h.Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("empty live histogram quantile = %g, want NaN", got)
	}

	c := Metric{Kind: KindCounter, Value: 7}
	if got := c.Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("counter quantile = %g, want NaN", got)
	}

	h.Observe(1.5)
	if got := h.Quantile(math.NaN()); !math.IsNaN(got) {
		t.Errorf("Quantile(NaN) = %g, want NaN", got)
	}
	// Out-of-range q clamps rather than extrapolating.
	if got := h.Quantile(-1); math.IsNaN(got) || got < 0 {
		t.Errorf("Quantile(-1) = %g, want a clamped finite value", got)
	}
	if got := h.Quantile(2); math.Abs(got-2) > 1e-9 {
		t.Errorf("Quantile(2) = %g, want top finite bound 2", got)
	}
}

func TestP50P90P99(t *testing.T) {
	reg := NewRegistry()
	h := reg.NewHistogram("trio", "", oneTo(100))
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	m, _ := reg.Snapshot().Get("trio")
	p50, p90, p99 := m.P50P90P99()
	for _, c := range []struct{ got, want float64 }{{p50, 50}, {p90, 90}, {p99, 99}} {
		if math.Abs(c.got-c.want) > 1e-9 {
			t.Errorf("quantile = %g, want %g", c.got, c.want)
		}
	}
}
