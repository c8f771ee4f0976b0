package core

import (
	"math"

	"fbcache/internal/bundle"
)

// selectResortReference is the direct transcription of the Note variant:
// after each pick, files already selected (or Free) cost nothing — both in
// the ranking denominator and in the budget — and remaining candidates
// re-rank. It recomputes candidate charges from scratch every round;
// selectResortFast (select_fast.go) is the incremental equivalent used in
// production, and the TestQuickFastMatchesReference property test keeps the
// two in lockstep.
func selectResortReference(cands []Candidate, capacity bundle.Size, opts SelectOptions, seeds []int) Selection {
	// skip holds Free files plus every file selected so far; such files are
	// charged neither space nor ranking denominator.
	skip := make(map[bundle.FileID]bool, len(opts.Free))
	for _, f := range opts.Free {
		skip[f] = true
	}
	chosenFiles := make(map[bundle.FileID]bool)

	var sel Selection
	budget := capacity
	taken := make([]bool, len(cands))

	pick := func(i int) bool {
		size := chargedSize(cands[i].Bundle, opts.SizeOf, skip)
		if size > budget {
			return false
		}
		budget -= size
		sel.BudgetUsed += size
		sel.Chosen = append(sel.Chosen, i)
		sel.Value += cands[i].Value
		taken[i] = true
		for _, f := range cands[i].Bundle {
			skip[f] = true
			chosenFiles[f] = true
		}
		return true
	}

	for _, s := range seeds {
		if s < 0 || s >= len(cands) || taken[s] {
			continue
		}
		if !pick(s) {
			// Seed does not fit: signal failure with nil Chosen.
			return Selection{}
		}
	}

	for {
		bestIdx, bestV := -1, math.Inf(-1)
		for i, c := range cands {
			if taken[i] {
				continue
			}
			size := chargedSize(c.Bundle, opts.SizeOf, skip)
			if size > budget {
				continue
			}
			denom := adjustedDenominator(c.Bundle, opts, skip)
			v := math.Inf(1)
			if denom > 0 {
				v = c.Value / denom
			}
			// Exact total order — v'(r) descending, v(r) descending, index
			// ascending (the scan order makes the index tie-break implicit).
			// This is the same comparator the incremental heap uses (better,
			// rankheap.go): a heap needs a strict weak order, which a tolerant
			// epsilon comparison cannot provide, and both implementations
			// compute denom with the identical float-operation sequence, so
			// their keys — and therefore their picks — match bit for bit.
			switch {
			case bestIdx < 0:
				bestIdx, bestV = i, v
			case v > bestV:
				bestIdx, bestV = i, v
			case v < bestV:
				// keep current best
			case c.Value > cands[bestIdx].Value:
				bestIdx, bestV = i, v
			}
		}
		if bestIdx < 0 {
			break
		}
		pick(bestIdx)
	}

	sel.Files = setToBundle(chosenFiles)
	return applyStepThree(sel, cands, capacity, opts, freeSet(opts.Free))
}
