package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestZipfProbabilities(t *testing.T) {
	z := NewZipf(rand.New(rand.NewSource(1)), 4, 1)
	// Harmonic weights 1, 1/2, 1/3, 1/4 -> total 25/12.
	h := 1.0 + 0.5 + 1.0/3 + 0.25
	want := []float64{1 / h, 0.5 / h, (1.0 / 3) / h, 0.25 / h}
	sum := 0.0
	for i, w := range want {
		if got := z.Prob(i); math.Abs(got-w) > 1e-12 {
			t.Errorf("Prob(%d) = %v, want %v", i, got, w)
		}
		sum += z.Prob(i)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("probabilities sum to %v", sum)
	}
	if z.Prob(-1) != 0 || z.Prob(4) != 0 {
		t.Error("out-of-range Prob != 0")
	}
}

func TestZipfExponentZeroIsUniform(t *testing.T) {
	z := NewZipf(rand.New(rand.NewSource(1)), 10, 0)
	for i := 0; i < 10; i++ {
		if got := z.Prob(i); math.Abs(got-0.1) > 1e-12 {
			t.Errorf("Prob(%d) = %v, want 0.1", i, got)
		}
	}
}

func TestZipfSamplingMatchesDistribution(t *testing.T) {
	const n, draws = 20, 200000
	z := NewZipf(rand.New(rand.NewSource(7)), n, 1)
	counts := make([]int64, n)
	for i := 0; i < draws; i++ {
		r := z.Next()
		if r < 0 || r >= n {
			t.Fatalf("rank out of range: %d", r)
		}
		counts[r]++
	}
	probs := make([]float64, n)
	for i := range probs {
		probs[i] = z.Prob(i)
	}
	// chi-square with 19 dof: 99.9th percentile ~ 43.8. Be generous.
	if chi2 := ChiSquare(counts, probs); chi2 > 60 {
		t.Errorf("chi-square = %v, distribution mismatch", chi2)
	}
	// Monotone popularity: rank 0 strictly most frequent.
	if counts[0] <= counts[n-1] {
		t.Errorf("rank 0 count %d <= rank %d count %d", counts[0], n-1, counts[n-1])
	}
}

func TestUniformSampling(t *testing.T) {
	const n, draws = 8, 80000
	u := NewUniform(rand.New(rand.NewSource(3)), n)
	counts := make([]int64, n)
	for i := 0; i < draws; i++ {
		counts[u.Next()]++
	}
	probs := make([]float64, n)
	for i := range probs {
		probs[i] = u.Prob(i)
	}
	if chi2 := ChiSquare(counts, probs); chi2 > 30 {
		t.Errorf("chi-square = %v", chi2)
	}
}

func TestZipfPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, fn := range map[string]func(){
		"n=0":         func() { NewZipf(rng, 0, 1) },
		"s<0":         func() { NewZipf(rng, 3, -1) },
		"nil rng":     func() { NewZipf(nil, 3, 1) },
		"uniform n=0": func() { NewUniform(rng, 0) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		})
	}
}

func TestSummary(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Var() != 0 || s.N() != 0 {
		t.Error("zero-value Summary not zero")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", s.Mean())
	}
	// Sample variance of this classic set is 32/7.
	if math.Abs(s.Var()-32.0/7) > 1e-12 {
		t.Errorf("Var = %v, want %v", s.Var(), 32.0/7)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

// Property: Summary mean always within [min, max] and matches naive mean.
func TestQuickSummaryMean(t *testing.T) {
	f := func(xs []float64) bool {
		var s Summary
		sum := 0.0
		ok := true
		n := 0
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e9 {
				continue
			}
			s.Add(x)
			sum += x
			n++
		}
		if n == 0 {
			return true
		}
		naive := sum / float64(n)
		if math.Abs(s.Mean()-naive) > 1e-6*(1+math.Abs(naive)) {
			ok = false
		}
		if s.Mean() < s.Min()-1e-9 || s.Mean() > s.Max()+1e-9 {
			ok = false
		}
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantile(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		q, want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {-0.5, 1}, {2, 5},
	}
	for _, tt := range tests {
		if got := Quantile(data, tt.q); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile(nil) not NaN")
	}
	// Input must not be reordered.
	in := []float64{3, 1, 2}
	Quantile(in, 0.5)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("Quantile mutated input")
	}
}

func BenchmarkZipfNext(b *testing.B) {
	z := NewZipf(rand.New(rand.NewSource(1)), 10000, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = z.Next()
	}
}
