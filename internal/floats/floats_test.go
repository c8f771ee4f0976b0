package floats

import (
	"math"
	"sort"
	"testing"
)

func TestAlmostEqual(t *testing.T) {
	tests := []struct {
		a, b float64
		want bool
	}{
		{0, 0, true},
		{1, 1, true},
		{1, 1 + 1e-12, true},             // below tolerance
		{1, 1 + 1e-6, false},             // above tolerance
		{1e12, 1e12 * (1 + 1e-12), true}, // relative tolerance engages
		{1e12, 1e12 * (1 + 1e-6), false}, // relative difference too large
		{0, 1e-12, true},                 // absolute tolerance near zero
		{0, 1e-6, false},                 //
		{math.Inf(1), math.Inf(1), true}, // same-sign infinity
		{math.Inf(1), math.Inf(-1), false},
		{math.NaN(), math.NaN(), false}, // NaN equals nothing
		{math.NaN(), 1, false},
		{-1, 1, false},
	}
	for _, tt := range tests {
		if got := AlmostEqual(tt.a, tt.b); got != tt.want {
			t.Errorf("AlmostEqual(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestAlmostZero(t *testing.T) {
	if !AlmostZero(0) || !AlmostZero(1e-12) || !AlmostZero(-1e-12) {
		t.Error("AlmostZero should absorb sub-epsilon values")
	}
	if AlmostZero(1e-6) || AlmostZero(-1e-6) || AlmostZero(math.NaN()) {
		t.Error("AlmostZero should reject distinguishable values and NaN")
	}
}

func TestLessGreater(t *testing.T) {
	if Less(1, 1+1e-12) {
		t.Error("Less must treat sub-epsilon differences as ties")
	}
	if !Less(1, 2) || Less(2, 1) {
		t.Error("Less must order distinguishable values")
	}
}

// TestTieBreaking exercises the intended usage: a comparator whose secondary
// key must decide whenever primary float keys differ only by round-off.
// Summing the same values in different orders yields primaries that are
// mathematically equal but bit-different; a deterministic sort must fall
// through to the ID.
func TestTieBreaking(t *testing.T) {
	// 0.1+0.2+0.3 != 0.3+0.2+0.1 in float64 (both ≈ 0.6).
	a := 0.1 + 0.2 + 0.3
	b := 0.3 + 0.2 + 0.1
	if a == b { //fbvet:allow floateq — asserting the premise of the test
		t.Skip("platform folded the sums identically; nothing to test")
	}

	type item struct {
		id    int
		value float64
	}
	items := []item{{2, a}, {1, b}, {3, a}}
	sort.Slice(items, func(i, j int) bool {
		if !AlmostEqual(items[i].value, items[j].value) {
			return items[i].value > items[j].value
		}
		return items[i].id < items[j].id
	})
	for i, want := range []int{1, 2, 3} {
		if items[i].id != want {
			t.Fatalf("tie-break order = %v, want IDs ascending [1 2 3]", items)
		}
	}
}
