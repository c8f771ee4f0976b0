package core

// The incremental OptCacheSelect ranking structure (DESIGN.md §13): an
// index-tracking 4-ary max-heap over the candidate table, ordered by the
// exact selection order (v'(r) descending, v(r) descending, candidate index
// ascending). The greedy's per-round argmax becomes a pop; a pick *repairs*
// the heap — only candidates sharing a newly-covered file re-rank — instead
// of rescanning every candidate. The comparator is an exact total order
// (no epsilon), which is what makes a heap legal at all: a tolerant
// comparison is not transitive, so sift decisions made through it could
// disagree with each other and silently break the heap invariant.

import (
	"fbcache/internal/bundle"
	"fbcache/internal/invariant"
)

// heapItem is one heap slot: the candidate's ranking keys copied next to its
// index. Keeping the keys inline means every sift comparison touches only the
// contiguous heap array — no indirection into the candidate table on the
// hottest loop of the selection. fix re-copies the keys whenever a repair
// changes them.
type heapItem struct {
	v     float64 // v'(r), the primary key
	value float64 // v(r), the first tie-break
	idx   int32   // candidate index (final tie-break, ascending)
}

// rankHeap is an index-tracking 4-ary max-heap of candidates: heap holds
// (key, index) slots ordered by better, slot k's children are 4k+1..4k+4, and
// pos[i] is candidate i's heap position (-1 when i is taken or parked).
// Tracking positions is what allows repair: when a pick changes candidate
// i's rank, fix re-sifts it from pos[i] in O(log n) instead of rebuilding the
// heap. Four children per slot halve the depth a pop sifts through, at up to
// three extra comparisons per level over contiguous slots; the extraction
// order does not depend on the arity (see build).
type rankHeap struct {
	heap []heapItem
	pos  []int32
}

// reset prepares the heap for n candidates with every position cleared.
func (h *rankHeap) reset(n int) {
	h.heap = h.heap[:0]
	if cap(h.pos) < n {
		h.pos = make([]int32, n, max(n, 2*cap(h.pos)))
	}
	h.pos = h.pos[:n]
	for i := range h.pos {
		h.pos[i] = -1
	}
}

// len reports the number of candidates currently in the heap.
func (h *rankHeap) len() int { return len(h.heap) }

// better reports whether slot a outranks slot b under the exact selection
// order: higher v'(r) first, then higher v(r), then lower index. It is the
// single comparator of every sift, so it must inline and must not spill the
// slots to the heap. The comparisons are strict (> / <): fbvet's floateq
// analyzer allows ordering comparisons, and ordering is all a total order
// needs — two slots tie on a float exactly when neither strict test fires.
//
//fbvet:inline the comparator must disappear into the sift loops
//fbvet:noescape
func better(a, b *heapItem) bool {
	if a.v > b.v {
		return true
	}
	if a.v < b.v {
		return false
	}
	if a.value > b.value {
		return true
	}
	if a.value < b.value {
		return false
	}
	return a.idx < b.idx
}

// item builds candidate i's heap slot from the candidate table.
//
//fbvet:inline
//fbvet:noescape
func item(st []candState, i int32) heapItem {
	ii := int(i)
	if uint(ii) >= uint(len(st)) {
		return heapItem{idx: i}
	}
	return heapItem{v: st[ii].v, value: st[ii].value, idx: i}
}

// push inserts candidate i and sifts it up. Used when a repair brings a
// parked candidate back under budget.
//
//fbvet:noescape the insert must stay register/stack only
//fbvet:nobce the tail index is len-1 and siftUp re-proves its own accesses
func (h *rankHeap) push(st []candState, i int32) {
	h.heap = append(h.heap, item(st, i))
	h.siftUp(len(h.heap) - 1)
}

// popTop removes and returns the best-ranked candidate, or -1 when the heap
// is empty. better is a total order, so the extraction sequence is exactly
// the sorted order of the comparator.
//
//fbvet:noescape
//fbvet:nobce child indices are guarded against the new length before use
func (h *rankHeap) popTop() int32 {
	hp := h.heap
	n := len(hp) - 1
	if n < 0 {
		return -1
	}
	top := hp[0].idx
	moved := hp[n]
	hp[0] = moved
	h.heap = hp[:n]
	if ti := int(top); uint(ti) < uint(len(h.pos)) {
		h.pos[ti] = -1
	}
	if n > 0 {
		// Record the displaced tail's new root position before sifting:
		// siftDown only rewrites pos on swaps, so an already-ordered root
		// would otherwise keep its stale tail position.
		if mi := int(moved.idx); uint(mi) < uint(len(h.pos)) {
			h.pos[mi] = 0
		}
		h.siftDown(0)
	}
	return top
}

// build heapifies every untaken candidate of st in O(n): positions are
// assigned in index order, then interior nodes sift down bottom-up. The
// resulting array layout depends on the build order, but the extraction
// order does not — better is a total order, so popTop yields the same
// sequence a fresh argmax scan per round would.
func (h *rankHeap) build(st []candState) {
	h.heap = h.heap[:0]
	for i := range st {
		if st[i].taken {
			continue
		}
		h.pos[i] = int32(len(h.heap))
		h.heap = append(h.heap, item(st, int32(i)))
	}
	for k := (len(h.heap) - 2) / 4; k >= 0; k-- { // (len-2)/4: last slot with a child
		h.siftDown(k)
	}
}

// fix refreshes the keys of the slot at position k from the candidate table
// and restores the heap property around it. Repairs only ever shrink a
// candidate's denominator (covered files stop charging), which raises v'(r),
// so the up-sift almost always wins — but fix tries both directions so it
// stays correct for any rank change.
//
//fbvet:noescape
//fbvet:nobce both sifts re-prove their own accesses from the guarded k
func (h *rankHeap) fix(st []candState, k int) {
	hp := h.heap
	if uint(k) >= uint(len(hp)) {
		return
	}
	hp[k] = item(st, hp[k].idx)
	h.siftUp(k)
	h.siftDown(k)
}

// siftUp moves the element at position j toward the root while it outranks
// its parent, shifting parents down and updating pos for every displaced
// element.
//
//fbvet:noescape the sift must stay register/stack only
//fbvet:nobce parent index (j-1)/4 < j stays provably in range
func (h *rankHeap) siftUp(j int) {
	hp, pos := h.heap, h.pos
	if uint(j) >= uint(len(hp)) {
		return
	}
	e := hp[j]
	// Unsigned indices: ju starts below len and only ever moves to the
	// parent (ju-1)/4 < ju, so every access stays in range and prove can
	// drop the bounds checks.
	ju := uint(j)
	for ju > 0 && ju < uint(len(hp)) {
		iu := (ju - 1) / 4
		p := hp[iu]
		if !better(&e, &p) {
			break
		}
		hp[ju] = p
		if pi := int(p.idx); uint(pi) < uint(len(pos)) {
			pos[pi] = int32(ju)
		}
		ju = iu
	}
	if ju < uint(len(hp)) {
		hp[ju] = e
	}
	if ei := int(e.idx); uint(ei) < uint(len(pos)) {
		pos[ei] = int32(ju)
	}
}

// siftDown moves the element at position k toward the leaves while its best
// child outranks it.
//
//fbvet:noescape
//fbvet:nobce unsigned child indices are tested against un before every load
func (h *rankHeap) siftDown(k int) {
	hp, pos := h.heap, h.pos
	un := uint(len(hp))
	if uint(k) >= un {
		return
	}
	i := uint(k)
	for {
		j1 := 4*i + 1
		if j1 >= un {
			break
		}
		// Best of the up-to-four children.
		j := j1
		for c := j1 + 1; c < min(j1+4, un); c++ {
			if j < un && better(&hp[c], &hp[j]) { // j < un always; the test is the BCE proof
				j = c
			}
		}
		if j >= un || i >= un {
			break // unreachable: j < un by the child loop and i is a previous j
		}
		if !better(&hp[j], &hp[i]) {
			break
		}
		a, b := hp[i], hp[j]
		hp[i], hp[j] = b, a
		if ai := int(a.idx); uint(ai) < uint(len(pos)) {
			pos[ai] = int32(j)
		}
		if bi := int(b.idx); uint(bi) < uint(len(pos)) {
			pos[bi] = int32(i)
		}
		i = j
	}
}

// checkOrder verifies three heap invariants — every parent outranks (or ties
// by identity with) its children, pos is the exact inverse of heap, and every
// slot's inline keys agree with the candidate table. It is free unless the
// fbinvariant build tag armed the checks; run calls it after the initial
// build and after every repair round.
func (h *rankHeap) checkOrder(st []candState) {
	if invariant.Enabled {
		for k := 1; k < len(h.heap); k++ {
			parent, child := &h.heap[(k-1)/4], &h.heap[k]
			invariant.Check(!better(child, parent),
				"core: rank heap order violated: child %d at %d outranks parent %d",
				child.idx, k, parent.idx)
		}
		for k := range h.heap {
			e := &h.heap[k]
			invariant.Check(int(h.pos[e.idx]) == k,
				"core: rank heap position table stale: pos[%d]=%d, want %d",
				e.idx, h.pos[e.idx], k)
			row := &st[e.idx]
			// Strict-comparison equality: the floateq analyzer bans ==/!= on
			// floats, and "neither strictly above nor below" is the same test.
			invariant.Check(!(e.v < row.v || e.v > row.v),
				"core: rank heap key stale: slot %d has v=%g, table has %g",
				e.idx, e.v, row.v)
		}
	}
}

// fileSet is an epoch-stamped membership set over dense FileIDs: add stamps
// the file with the current generation, reset bumps the generation so the
// whole set empties in O(1). It replaces the per-run skip/chosen maps of the
// selection scratch — no hashing on the per-file hot path, no per-run
// clearing cost, no allocation once the stamp table has grown to the file
// universe.
type fileSet struct {
	stamp []uint32
	gen   uint32
}

// reset empties the set by advancing the generation; the stamp table is
// scrubbed only on the (once per 2^32 resets) generation wrap.
func (s *fileSet) reset() {
	s.gen++
	if s.gen == 0 {
		clear(s.stamp)
		s.gen = 1
	}
}

// add inserts f, growing the stamp table on first sight of a larger ID.
func (s *fileSet) add(f bundle.FileID) {
	i := int(f)
	if i >= len(s.stamp) {
		grown := make([]uint32, max(i+1, 2*len(s.stamp)))
		copy(grown, s.stamp)
		s.stamp = grown
	}
	s.stamp[i] = s.gen
}

// has reports whether f is in the set. It sits inside every per-file walk
// of the selection (build, repair, charged-size scans), so it must inline
// and must not spill its receiver.
//
//fbvet:inline per-file membership test on every selection walk
//fbvet:noescape
func (s *fileSet) has(f bundle.FileID) bool {
	i := int(f)
	return i < len(s.stamp) && s.stamp[i] == s.gen
}

// appendMembers appends the set's files to dst in ascending FileID order: a
// walk of the dense stamp table, O(largest FileID seen) with no comparisons,
// which on the selection's file counts beats sorting the members.
//
//fbvet:noescape
//fbvet:nobce range over the stamp table
func (s *fileSet) appendMembers(dst []bundle.FileID) []bundle.FileID {
	gen := s.gen
	for i, g := range s.stamp {
		if g == gen {
			dst = append(dst, bundle.FileID(i))
		}
	}
	return dst
}
