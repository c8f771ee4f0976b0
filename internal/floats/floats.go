// Package floats centralizes tolerant float64 comparison for the numeric
// quantities the algorithms rank and tie-break on — request values v(r),
// relative values v'(r), and Landlord credits. Exact == / != on such derived
// floats is a determinism hazard: two mathematically equal expressions
// computed along different paths (incremental vs. recomputed denominators,
// decayed vs. fresh credits) differ in the last ulps, so exact comparisons
// make tie-breaking depend on rounding accidents. The fbvet floateq analyzer
// flags exact float equality repo-wide; this package is the sanctioned
// replacement.
package floats

import "math"

// Epsilon is the default comparison tolerance. Values and credits in this
// codebase are O(1) (relative values, credits in [0,1]) or O(bytes) (up to
// ~2^40), so a mixed absolute/relative test at 1e-9 distinguishes genuinely
// different ranks while absorbing float round-off.
const Epsilon = 1e-9

// AlmostEqual reports whether a and b are equal within Epsilon, using an
// absolute tolerance near zero and a relative tolerance for large magnitudes.
// Infinities of the same sign compare equal; NaN compares unequal to
// everything, matching IEEE semantics.
func AlmostEqual(a, b float64) bool {
	return AlmostEqualTol(a, b, Epsilon)
}

// AlmostEqualTol is AlmostEqual with an explicit tolerance.
func AlmostEqualTol(a, b, tol float64) bool {
	if a == b { //fbvet:allow floateq — exact fast path, covers ±Inf
		return true
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false // distinct infinities, or one finite operand
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*scale
}

// AlmostZero reports whether x is within Epsilon of zero.
func AlmostZero(x float64) bool {
	return math.Abs(x) <= Epsilon
}

// Less reports whether a is smaller than b by more than Epsilon — i.e. the
// two are distinguishable and a ranks strictly below b. Use it in
// comparators whose secondary tie-break keys must engage whenever the
// primary float keys are equal up to round-off.
func Less(a, b float64) bool {
	return a < b && !AlmostEqual(a, b)
}
