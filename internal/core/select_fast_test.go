package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fbcache/internal/bundle"
)

// exactInstance draws instances whose adjusted sizes are exactly
// representable in binary floating point (sizes are small integers, degrees
// are powers of two), so the reference and incremental implementations make
// bit-identical arithmetic decisions and must produce identical selections.
func exactInstance(rng *rand.Rand) ([]Candidate, bundle.Size, SelectOptions, []int) {
	nFiles := 4 + rng.Intn(10)
	sizes := make([]bundle.Size, nFiles)
	degrees := make([]int, nFiles)
	pows := []int{1, 2, 4, 8}
	for i := range sizes {
		sizes[i] = bundle.Size(1 + rng.Intn(8))
		degrees[i] = pows[rng.Intn(len(pows))]
	}
	n := 1 + rng.Intn(10)
	cands := make([]Candidate, n)
	for i := range cands {
		k := 1 + rng.Intn(4)
		ids := make([]bundle.FileID, k)
		for j := range ids {
			ids[j] = bundle.FileID(rng.Intn(nFiles))
		}
		cands[i] = Candidate{Bundle: bundle.New(ids...), Value: float64(1 + rng.Intn(16))}
	}
	var free bundle.Bundle
	if rng.Intn(2) == 0 {
		free = bundle.New(bundle.FileID(rng.Intn(nFiles)))
	}
	opts := SelectOptions{
		SizeOf:   func(f bundle.FileID) bundle.Size { return sizes[f] },
		DegreeOf: func(f bundle.FileID) int { return degrees[f] },
		Resort:   true,
		Free:     free,
	}
	capacity := bundle.Size(2 + rng.Intn(25))
	var seeds []int
	if rng.Intn(3) == 0 && n > 0 {
		seeds = []int{rng.Intn(n)}
	}
	return cands, capacity, opts, seeds
}

func sameSelection(a, b Selection) bool {
	if a.Value != b.Value || a.SingleWinner != b.SingleWinner ||
		a.BudgetUsed != b.BudgetUsed || len(a.Chosen) != len(b.Chosen) {
		return false
	}
	for i := range a.Chosen {
		if a.Chosen[i] != b.Chosen[i] {
			return false
		}
	}
	return a.Files.Equal(b.Files)
}

// The central equivalence property: the incremental greedy is
// indistinguishable from the direct transcription of the paper's Note.
func TestQuickFastMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	f := func() bool {
		cands, capacity, opts, seeds := exactInstance(rng)
		ref := selectResortReference(cands, capacity, opts, seeds)
		fast := selectResortFast(cands, capacity, opts, seeds)
		if !sameSelection(ref, fast) {
			t.Logf("mismatch:\ncands=%+v cap=%d seeds=%v\nref =%+v\nfast=%+v",
				cands, capacity, seeds, ref, fast)
			return false
		}
		return true
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestFastScratchReuseMatchesReference runs the same property through one
// resortState, as OptFileBundle does across admissions: every stamped set,
// posting list and result slice starts each run holding the previous run's
// contents, so a reset that misses any of them shows up as a wrong
// selection.
func TestFastScratchReuseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(778))
	var s resortState
	for trial := range 400 {
		cands, capacity, opts, seeds := exactInstance(rng)
		ref := selectResortReference(cands, capacity, opts, seeds)
		if fast := s.run(cands, capacity, opts, seeds); !sameSelection(ref, fast) {
			t.Fatalf("trial %d: reused scratch selection %+v, reference %+v", trial, fast, ref)
		}
	}
}

func TestFastPaperExample(t *testing.T) {
	cands, opts := paperExample()
	opts.Resort = true
	sel := selectResortFast(cands, 3, opts, nil)
	if !sel.Files.Equal(bundle.New(1, 3, 5)) || sel.Value != 3 {
		t.Errorf("fast selection = %+v", sel)
	}
}

func BenchmarkSelectReference(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	cands, capacity, opts := largeInstance(rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = selectResortReference(cands, capacity, opts, nil)
	}
}

func BenchmarkSelectFast(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	cands, capacity, opts := largeInstance(rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = selectResortFast(cands, capacity, opts, nil)
	}
}

func largeInstance(rng *rand.Rand) ([]Candidate, bundle.Size, SelectOptions) {
	const nFiles, n = 400, 256
	sizes := make([]bundle.Size, nFiles)
	for i := range sizes {
		sizes[i] = bundle.Size(1 + rng.Intn(64))
	}
	cands := make([]Candidate, n)
	for i := range cands {
		k := 2 + rng.Intn(6)
		ids := make([]bundle.FileID, k)
		for j := range ids {
			ids[j] = bundle.FileID(rng.Intn(nFiles))
		}
		cands[i] = Candidate{Bundle: bundle.New(ids...), Value: float64(1 + rng.Intn(50))}
	}
	opts := SelectOptions{
		SizeOf:   func(f bundle.FileID) bundle.Size { return sizes[f] },
		DegreeOf: func(f bundle.FileID) int { return 1 + int(f)%4 },
		Resort:   true,
	}
	return cands, 2000, opts
}
