package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"fbcache/internal/bundle"
)

// drainOrder pops the heap dry and returns the extraction order. checkOrder
// runs before every pop so fbinvariant builds audit the heap property, the
// position table and the inline-key sync at every step of every test.
func drainOrder(t *testing.T, h *rankHeap, st []candState) []int32 {
	t.Helper()
	var out []int32
	for h.len() > 0 {
		h.checkOrder(st)
		i := h.popTop()
		if i < 0 {
			t.Fatalf("popTop returned -1 with %d slots left", h.len())
		}
		out = append(out, i)
	}
	return out
}

// referenceOrder sorts the untaken candidate indices by the exact selection
// order (v desc, value desc, index asc) — the order the heap must reproduce.
func referenceOrder(st []candState) []int32 {
	var idx []int32
	for i := range st {
		if !st[i].taken {
			idx = append(idx, int32(i))
		}
	}
	slices.SortFunc(idx, func(a, b int32) int {
		ra, rb := &st[a], &st[b]
		switch {
		case ra.v > rb.v:
			return -1
		case ra.v < rb.v:
			return 1
		case ra.value > rb.value:
			return -1
		case ra.value < rb.value:
			return 1
		}
		return int(a - b)
	})
	return idx
}

// TestRankHeapExtractionOrder drives build+popTop through the edge cases the
// exact comparator has to get right: duplicate v'(r) keys falling through to
// the value tie-break, full three-way ties falling through to index order,
// and ±Inf ranks from zero-size files (denominator 0 → v'(r) = +Inf).
func TestRankHeapExtractionOrder(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name string
		st   []candState
	}{
		{
			name: "distinct ranks",
			st: []candState{
				{v: 1, value: 1}, {v: 3, value: 1}, {v: 2, value: 1},
			},
		},
		{
			name: "duplicate v prime ties broken by value",
			st: []candState{
				{v: 2, value: 1}, {v: 2, value: 5}, {v: 2, value: 3},
				{v: 7, value: 0},
			},
		},
		{
			name: "full ties broken by index",
			st: []candState{
				{v: 4, value: 2}, {v: 4, value: 2}, {v: 4, value: 2},
				{v: 4, value: 2}, {v: 4, value: 2},
			},
		},
		{
			name: "plus infinity ranks first and ties by value then index",
			st: []candState{
				{v: 9, value: 9}, {v: inf, value: 1}, {v: inf, value: 4},
				{v: inf, value: 4}, {v: 0.5, value: 2},
			},
		},
		{
			name: "taken candidates excluded from build",
			st: []candState{
				{v: 5, value: 1, taken: true}, {v: 1, value: 1},
				{v: 3, value: 1, taken: true}, {v: 2, value: 1},
			},
		},
		{
			name: "single element",
			st:   []candState{{v: 1, value: 1}},
		},
		{
			name: "empty",
			st:   nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var h rankHeap
			h.reset(len(tc.st))
			h.build(tc.st)
			got := drainOrder(t, &h, tc.st)
			want := referenceOrder(tc.st)
			if !slices.Equal(got, want) {
				t.Errorf("extraction order = %v, want %v", got, want)
			}
			if i := h.popTop(); i != -1 {
				t.Errorf("popTop on empty heap = %d, want -1", i)
			}
		})
	}
}

// TestRankHeapRootRemoval removes the current root repeatedly while checking
// that the displaced tail's position is recorded before its sift — the stale
// position table bug class popTop specifically defends against.
func TestRankHeapRootRemoval(t *testing.T) {
	st := []candState{
		{v: 10, value: 1}, {v: 9, value: 1}, {v: 8, value: 1},
		{v: 7, value: 1}, {v: 6, value: 1}, {v: 5, value: 1},
		{v: 4, value: 1}, {v: 3, value: 1},
	}
	var h rankHeap
	h.reset(len(st))
	h.build(st)
	for want := int32(0); want < int32(len(st)); want++ {
		h.checkOrder(st)
		// The heap must report every live candidate's position correctly
		// even right after a root removal moved the tail.
		for k, e := range h.heap {
			if int(h.pos[e.idx]) != k {
				t.Fatalf("pos[%d] = %d, want %d", e.idx, h.pos[e.idx], k)
			}
		}
		if got := h.popTop(); got != want {
			t.Fatalf("popTop = %d, want %d", got, want)
		}
		if h.pos[want] != -1 {
			t.Fatalf("pos[%d] = %d after pop, want -1", want, h.pos[want])
		}
	}
}

// TestRankHeapDecayReorder rewrites every candidate's keys — a full-window
// decay, the worst case for repair — and fixes each slot in place. The heap
// must converge to the new total order no matter how the rewrite permutes it.
func TestRankHeapDecayReorder(t *testing.T) {
	cases := []struct {
		name  string
		decay func(i int, row *candState)
	}{
		{
			// Uniform decay preserves relative order; no slot should move.
			name:  "uniform decay keeps order",
			decay: func(i int, row *candState) { row.v *= 0.5; row.value *= 0.5 },
		},
		{
			// Reversing the ranks forces every slot through a full sift.
			name:  "rank reversal",
			decay: func(i int, row *candState) { row.v = -row.v },
		},
		{
			// Collapsing every rank to one value exercises the index
			// tie-break across the whole window at once.
			name:  "collapse to ties",
			decay: func(i int, row *candState) { row.v = 1; row.value = 1 },
		},
		{
			// Zero-size coverage: half the window jumps to +Inf (all files
			// covered, denominator 0), the rest decays.
			name: "partial inf promotion",
			decay: func(i int, row *candState) {
				if i%2 == 0 {
					row.v = math.Inf(1)
				} else {
					row.v *= 0.25
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := []candState{
				{v: 1, value: 10}, {v: 7, value: 9}, {v: 3, value: 8},
				{v: 9, value: 7}, {v: 5, value: 6}, {v: 2, value: 5},
				{v: 8, value: 4}, {v: 6, value: 3}, {v: 4, value: 2},
			}
			var h rankHeap
			h.reset(len(st))
			h.build(st)
			for i := range st {
				tc.decay(i, &st[i])
				h.fix(st, int(h.pos[i]))
				h.checkOrder(st)
			}
			got := drainOrder(t, &h, st)
			want := referenceOrder(st)
			if !slices.Equal(got, want) {
				t.Errorf("post-decay extraction = %v, want %v", got, want)
			}
		})
	}
}

// TestRankHeapPushAfterPark re-inserts candidates after removal — the
// parking path: a popped candidate re-enters via push when a repair shrinks
// its charged size back under budget.
func TestRankHeapPushAfterPark(t *testing.T) {
	st := []candState{
		{v: 5, value: 1}, {v: 4, value: 1}, {v: 3, value: 1}, {v: 2, value: 1},
	}
	var h rankHeap
	h.reset(len(st))
	h.build(st)
	if got := h.popTop(); got != 0 {
		t.Fatalf("first pop = %d, want 0", got)
	}
	if got := h.popTop(); got != 1 {
		t.Fatalf("second pop = %d, want 1", got)
	}
	// Candidate 1 comes back with a repaired (higher) rank; candidate 0
	// comes back unchanged and must still outrank everything.
	st[1].v = 10
	h.push(st, 1)
	h.checkOrder(st)
	h.push(st, 0)
	h.checkOrder(st)
	want := []int32{1, 0, 2, 3}
	if got := drainOrder(t, &h, st); !slices.Equal(got, want) {
		t.Errorf("extraction after re-push = %v, want %v", got, want)
	}
}

// TestRankHeapRandomRepairs drives a heap several levels deep through random
// key rewrites, pops and re-pushes. Keys come from a small set, so ties on
// v'(r) and on v(r) are common and every sift leans on the index
// tie-break. After each round the remaining extraction order must equal the
// comparator's sorted order.
func TestRankHeapRandomRepairs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	keys := []float64{math.Inf(1), 8, 4, 2, 1, 0.5}
	for round := range 20 {
		st := make([]candState, 50+rng.Intn(300))
		for i := range st {
			st[i] = candState{v: keys[rng.Intn(len(keys))], value: keys[1+rng.Intn(len(keys)-1)]}
		}
		var h rankHeap
		h.reset(len(st))
		h.build(st)
		var out []int32
		for range len(st) / 2 {
			switch op := rng.Intn(3); {
			case op == 0 && h.len() > 0:
				out = append(out, h.popTop())
			case op == 1 && len(out) > 0:
				i := out[len(out)-1]
				out = out[:len(out)-1]
				st[i].v = keys[rng.Intn(len(keys))]
				h.push(st, i)
			default:
				i := rng.Intn(len(st))
				if h.pos[i] < 0 {
					continue
				}
				st[i].v = keys[rng.Intn(len(keys))]
				h.fix(st, int(h.pos[i]))
			}
			h.checkOrder(st)
		}
		for _, i := range out {
			st[i].taken = true
		}
		got := drainOrder(t, &h, st)
		if want := referenceOrder(st); !slices.Equal(got, want) {
			t.Fatalf("round %d: extraction = %v, want %v", round, got, want)
		}
	}
}

// TestFastZeroSizeFiles runs the full incremental selection over bundles of
// zero-size files: every candidate prices to denominator 0 and rank +Inf, so
// the heap must fall back to the value/index tie-breaks and still match the
// reference.
func TestFastZeroSizeFiles(t *testing.T) {
	sizes := []bundle.Size{0, 0, 4, 0}
	opts := SelectOptions{
		SizeOf:   func(f bundle.FileID) bundle.Size { return sizes[f] },
		DegreeOf: func(bundle.FileID) int { return 2 },
		Resort:   true,
	}
	cands := []Candidate{
		{Bundle: bundle.New(0, 1), Value: 3}, // all zero-size → +Inf
		{Bundle: bundle.New(1, 3), Value: 3}, // all zero-size → +Inf, same value
		{Bundle: bundle.New(0, 2), Value: 9}, // finite rank
		{Bundle: bundle.New(3), Value: 1},    // zero-size → +Inf, lowest value
	}
	for _, capacity := range []bundle.Size{0, 3, 100} {
		ref := selectResortReference(cands, capacity, opts, nil)
		fast := selectResortFast(cands, capacity, opts, nil)
		if !sameSelection(ref, fast) {
			t.Errorf("capacity %d: fast %+v != reference %+v", capacity, fast, ref)
		}
	}
}
