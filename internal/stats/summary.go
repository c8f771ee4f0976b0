package stats

import (
	"fmt"
	"math"
	"sort"

	"fbcache/internal/floats"
)

// Summary accumulates running statistics of a stream of float64 observations
// using Welford's algorithm, so mean and variance are numerically stable even
// over millions of samples.
type Summary struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += float64(delta * (x - s.mean)) // rounded alone: never fused
}

// N reports the number of observations.
func (s *Summary) N() int64 { return s.n }

// Mean reports the arithmetic mean, or 0 with no observations.
func (s *Summary) Mean() float64 { return s.mean }

// Var reports the sample variance (n-1 denominator), or 0 for n < 2.
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Stddev reports the sample standard deviation.
func (s *Summary) Stddev() float64 { return math.Sqrt(s.Var()) }

// Min reports the smallest observation, or 0 with no observations.
func (s *Summary) Min() float64 { return s.min }

// Max reports the largest observation, or 0 with no observations.
func (s *Summary) Max() float64 { return s.max }

func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g",
		s.n, s.Mean(), s.Stddev(), s.min, s.max)
}

// Quantile computes the q-quantile (0 <= q <= 1) of a data slice.
// The input is not modified. Linear interpolation between order statistics.
func Quantile(data []float64, q float64) float64 {
	if len(data) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	s := make([]float64, len(data))
	copy(s, data)
	sort.Float64s(s)
	// Each product is converted so that it rounds on its own: the Go spec
	// lets a compiler fuse x*y + z into one rounding, and arm64's does.
	pos := float64(q * float64(len(s)-1))
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(i)
	return float64(s[i]*(1-frac)) + float64(s[i+1]*frac)
}

// ChiSquare computes the chi-square statistic of observed counts against
// expected probabilities; used by tests to validate the Zipf sampler.
func ChiSquare(observed []int64, probs []float64) float64 {
	var n int64
	for _, o := range observed {
		n += o
	}
	var chi2 float64
	for i, o := range observed {
		e := float64(probs[i] * float64(n)) // rounded alone: never fused
		if floats.AlmostZero(e) {
			continue
		}
		d := float64(o) - e
		chi2 += d * d / e
	}
	return chi2
}
