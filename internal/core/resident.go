package core

import (
	"math/bits"
	"slices"

	"fbcache/internal/bundle"
	"fbcache/internal/cache"
	"fbcache/internal/history"
)

// residentSet maintains OptFileBundle's §5.3 candidate set across
// admissions (DESIGN.md §13.6): the history entries e with
// cache.Supports(e.Bundle.Minus(b)) for the incoming bundle b. Filtering
// all of L(R) on every miss costs O(history); this set instead pays for
// what changed since the last round — the entries the history gained and
// the files the cache loaded or evicted — plus the posting lists of b's
// missing files.
//
// For each entry it keeps the count of its files that are not resident;
// the entries whose count is zero (the cache supports them) form a bitset
// over history slots. The history's order is append-only, so slots never
// move, and walking the bitset in ascending slot order gives the candidates
// in the order the history lists them. For each file it keeps how many
// supported entries contain it, so the bytes of the supported entries'
// union are known without building it, and so is which files only the
// lowest-ranked candidates hold: that is what lets certify take most of a
// round without ranking it.
//
// Residency is read, never told: sync diffs the cache's residency words
// against its own copy from the last sync, so files that tests or
// prefetching move through Cache() directly are caught the same way as the
// policy's own loads and evictions.
type residentSet struct {
	rows  []entryRow    // by history slot, one per synced entry
	files []residentRow // by FileID, for every file of a synced entry

	seen       []uint64    // the cache's residency words at the last sync
	supported  []uint64    // bit j set iff rows[j].missing == 0
	covered    []uint64    // bit f set iff files[f].cover > 0
	coverBytes bundle.Size // Σ s(f) over the covered files

	// Per-round scratch. extra holds the slots of the unsupported entries
	// whose missing files all lie in the incoming bundle, ascending;
	// extraFiles their files that no supported entry covers; order every
	// candidate's slot in index order. gen stamps the entry and file rows
	// whose per-round counts belong to this round. worst holds the
	// lowest-ranked candidates, excl the files exclusive to the tail and
	// tailCands the tail handed to the greedy (certify).
	gen        uint32
	extra      []int32
	extraFiles fileSet
	order      []int32
	worst      []tailItem
	excl       []uint64 // as long as covered
	tailCands  []Candidate
}

// entryRow is the maintained state of one history entry.
type entryRow struct {
	missing int32  // files not resident at the last sync
	hits    int32  // missing files found in this round's incoming bundle
	gen     uint32 // the round hits was counted in
}

// residentRow is the maintained state of one file, and its per-round
// counts.
type residentRow struct {
	size  bundle.Size // s(f), read once when an entry first names f
	cover int32       // supported entries that contain f
	gen   uint32      // the round extra and tail were counted in
	extra int32       // extra candidates that contain f
	tail  int32       // tail members that contain f
}

// hasBit reports whether bit i is set in words; bits past the end are unset.
// It probes every file a sync or a round's charge touches.
//
//fbvet:inline
//fbvet:noescape
func hasBit(words []uint64, i int) bool {
	w := uint(i) >> 6
	return w < uint(len(words)) && words[w]&(1<<(uint(i)&63)) != 0
}

// growWords returns words widened, zero-filled, to hold bit i.
func growWords(words []uint64, i int) []uint64 {
	if n := i>>6 + 1; n > len(words) {
		words = append(words, make([]uint64, n-len(words))...)
	}
	return words
}

// sync brings the set up to date: it adds the entries the history gained
// since the last sync, then applies the residency changes since then.
// New entries are counted against the last-seen residency first, so the
// residency diff — whose posting walks reach them too — then corrects them
// like every other entry.
func (r *residentSet) sync(h *history.History, c *cache.Cache, sizeOf bundle.SizeFunc) {
	for j := len(r.rows); j < h.Len(); j++ {
		r.addEntry(h.At(j).Bundle, sizeOf)
	}
	words := c.ResidentWords()
	r.seen = growWords(r.seen, len(words)<<6-1)
	seen := r.seen[:len(words)]
	for w, now := range words {
		diff := seen[w] ^ now
		if diff == 0 {
			continue
		}
		seen[w] = now
		base := bundle.FileID(w) << 6
		for diff != 0 {
			bit := diff & -diff
			diff &^= bit
			f := base + bundle.FileID(bits.TrailingZeros64(bit))
			if now&bit != 0 {
				r.loaded(h, f)
			} else {
				r.evicted(h, f)
			}
		}
	}
}

// addEntry appends the row of the next history slot, holding b.
func (r *residentSet) addEntry(b bundle.Bundle, sizeOf bundle.SizeFunc) {
	j := len(r.rows)
	var missing int32
	for _, f := range b {
		if i := int(f); i >= len(r.files) {
			n := max(i+1, 2*len(r.files), 64)
			grown := make([]residentRow, n)
			copy(grown, r.files)
			for k := len(r.files); k < n; k++ {
				grown[k].size = -1
			}
			r.files = grown
			r.covered = growWords(r.covered, n-1)
			r.excl = growWords(r.excl, n-1)
		}
		if r.files[f].size < 0 {
			r.files[f].size = sizeOf(f)
		}
		if !hasBit(r.seen, int(f)) {
			missing++
		}
	}
	if j == cap(r.rows) {
		grown := make([]entryRow, j, max(2*j, 64))
		copy(grown, r.rows)
		r.rows = grown
		r.supported = growWords(r.supported, cap(grown)-1)
	}
	r.rows = append(r.rows, entryRow{missing: missing})
	if missing == 0 {
		r.support(j, b)
	}
}

// loaded records that f became resident: each entry containing f misses
// one file fewer, and those that now miss none become supported.
func (r *residentSet) loaded(h *history.History, f bundle.FileID) {
	for _, j := range h.SlotsOf(f) {
		row := &r.rows[j]
		row.missing--
		if row.missing == 0 {
			r.support(int(j), h.At(int(j)).Bundle)
		}
	}
}

// evicted records that f left the cache: each entry containing f misses
// one file more, and those that were supported are no longer.
func (r *residentSet) evicted(h *history.History, f bundle.FileID) {
	for _, j := range h.SlotsOf(f) {
		row := &r.rows[j]
		if row.missing == 0 {
			r.unsupport(int(j), h.At(int(j)).Bundle)
		}
		row.missing++
	}
}

// support adds entry j, holding b, to the supported set and covers its
// files.
func (r *residentSet) support(j int, b bundle.Bundle) {
	r.supported[j>>6] |= 1 << (uint(j) & 63)
	for _, f := range b {
		row := &r.files[f]
		if row.cover == 0 {
			r.covered[f>>6] |= 1 << (uint(f) & 63)
			r.coverBytes += row.size
		}
		row.cover++
	}
}

// unsupport removes entry j, holding b, from the supported set.
func (r *residentSet) unsupport(j int, b bundle.Bundle) {
	r.supported[j>>6] &^= 1 << (uint(j) & 63)
	for _, f := range b {
		row := &r.files[f]
		row.cover--
		if row.cover == 0 {
			r.covered[f>>6] &^= 1 << (uint(f) & 63)
			r.coverBytes -= row.size
		}
	}
}

// gather finds this round's extra candidates: the unsupported entries
// whose missing files all lie in the incoming bundle. missing lists the
// bundle's non-resident files, and only their posting lists are walked:
// an entry qualifies when as many of its files turn up there as it misses.
func (r *residentSet) gather(h *history.History, missing bundle.Bundle) {
	r.gen++
	if r.gen == 0 {
		for i := range r.rows {
			r.rows[i].gen = 0
		}
		for i := range r.files {
			r.files[i].gen = 0
		}
		r.gen = 1
	}
	r.extra = r.extra[:0]
	for _, f := range missing {
		for _, j := range h.SlotsOf(f) {
			row := &r.rows[j]
			if row.gen != r.gen {
				row.gen, row.hits = r.gen, 0
			}
			row.hits++
			if row.hits == row.missing {
				r.extra = append(r.extra, j)
			}
		}
	}
	slices.Sort(r.extra)

	// List the candidates in index order: the supported entries merged
	// with the extra ones, by ascending slot.
	order := r.order[:0]
	k := 0
	for w, word := range r.supported {
		base := w << 6
		for word != 0 {
			j := int32(base + bits.TrailingZeros64(word))
			word &= word - 1
			for ; k < len(r.extra) && r.extra[k] < j; k++ {
				order = append(order, r.extra[k])
			}
			order = append(order, j)
		}
	}
	r.order = append(order, r.extra[k:]...)
}

// candidates reports the number of candidates in this round.
func (r *residentSet) candidates() int { return len(r.order) }

// appendCandidates appends this round's candidates to dst in index order.
func (r *residentSet) appendCandidates(dst []Candidate, h *history.History) []Candidate {
	for _, j := range r.order {
		e := h.At(int(j))
		dst = append(dst, Candidate{Bundle: e.Bundle, Value: e.Value})
	}
	return dst
}

// maxTail caps the tail a certified round ranks. Over ten pools of
// bench's sim-paper workload (EXPERIMENTS.md), the smallest tail that
// certifies a ranking round is 1 in 60% of them under uniform traffic and
// 32% under zipf, and 2 to 8 in another 6% and 14%. The rounds that 8 does
// not certify need tails of 15 to 35 of their ~41 candidates, where ranking
// the tail saves little of the full heap, and each tail size tried in vain
// costs a walk of the tail's bundles.
const maxTail = 8

// tailItem is one of the lowest-ranked candidates of a round: its heap
// slot under the initial key v'(r | Free = b), and its history slot.
type tailItem struct {
	key  heapItem
	slot int32
}

// certify selects this round without ranking all of it when it can prove
// what the greedy does (DESIGN.md §13.6). in holds b's files and budget is
// the capacity left after b. The tail T is the m candidates with the lowest
// initial key, m = 0, 1, …, maxTail, and R the rest. Once every pick of R
// fits (s(U(R) \ b) ≤ budget) and R's worst initial key outranks every tail
// member's key after R is covered (ordered), the greedy pops all of R
// first; R is then taken at once and the greedy runs on T alone. Step 3
// cannot win when no value exceeds Σ_R v(r). m = 0 is the round in which
// every candidate fits. certify returns the selection and m, or m = -1
// when no tail up to maxTail certifies the round and the caller must run
// the full greedy. Chosen lists the picks in index order rather than the
// greedy's pick order; Chosen and Files alias s's result scratch, like a
// run's.
func (r *residentSet) certify(s *resortState, h *history.History, b bundle.Bundle, in *fileSet, budget bundle.Size, opts SelectOptions) (Selection, int) {
	used := r.charge(h, b, in)
	if used <= budget {
		var sum float64
		for _, j := range r.order {
			sum += h.At(int(j)).Value
		}
		return r.assemble(s, 0, sum, used), 0
	}
	sum, top := r.scan(s, h, in, opts)
	for m := 1; m <= maxTail && m < len(r.order); m++ {
		t := &r.worst[m-1]
		sum -= t.key.value
		used -= r.join(h.At(int(t.slot)).Bundle, in)
		if top > sum {
			break // Step 3 might win, and Σ_R v(r) only shrinks as T grows
		}
		if used > budget || !r.ordered(s, h, m, in) {
			continue
		}
		sel := r.rankTail(s, h, b, m, budget-used, opts)
		return r.assemble(s, m, sum+sel.Value, used+sel.BudgetUsed), m
	}
	return Selection{}, -1
}

// charge returns s(U \ b), the bytes that taking every candidate of this
// round charges, where U is the union of their files and in holds b's
// files. The supported entries' part is maintained, so this costs |b| plus
// the extra entries' files. It collects those files that no supported
// entry covers in extraFiles, and counts in each file's row the extra
// entries that contain it: with cover, that is how many candidates do.
func (r *residentSet) charge(h *history.History, b bundle.Bundle, in *fileSet) bundle.Size {
	used := r.coverBytes
	for _, f := range b {
		if hasBit(r.covered, int(f)) {
			used -= r.files[f].size
		}
	}
	r.extraFiles.reset()
	clear(r.excl)
	for _, j := range r.extra {
		for _, f := range h.At(int(j)).Bundle {
			row := &r.files[f]
			if row.gen != r.gen {
				row.gen, row.extra, row.tail = r.gen, 0, 0
			}
			row.extra++
			if row.cover > 0 || r.extraFiles.has(f) {
				continue
			}
			r.extraFiles.add(f)
			if !in.has(f) {
				used += row.size
			}
		}
	}
	return used
}

// scan computes every candidate's initial key v'(r | Free = b), the key
// the greedy's heap starts from, with in holding b's files, and keeps the
// maxTail+1 lowest in r.worst, worst first, in the exact better order. It
// returns Σ v(r) and max v(r) over the round.
//
//fbvet:noescape
func (r *residentSet) scan(s *resortState, h *history.History, in *fileSet, opts SelectOptions) (sum, top float64) {
	worst := r.worst[:0]
	for i, j := range r.order {
		e := h.At(int(j))
		denom := s.denomSkip(e.Bundle, in, opts)
		sum += e.Value
		if e.Value > top {
			top = e.Value
		}
		it := tailItem{key: heapItem{v: rankOf(e.Value, denom), value: e.Value, idx: int32(i)}, slot: j}
		if len(worst) == maxTail+1 && better(&it.key, &worst[maxTail].key) {
			continue
		}
		if len(worst) < maxTail+1 {
			worst = append(worst, it)
		}
		k := len(worst) - 1
		for ; k > 0 && better(&worst[k-1].key, &it.key); k-- {
			worst[k] = worst[k-1]
		}
		worst[k] = it
	}
	r.worst = worst
	return sum, top
}

// join adds the candidate with bundle t to the tail: each of its files is
// in one more tail member, and a file whose candidates are now all in the
// tail becomes exclusive to it. It returns the bytes of the newly
// exclusive files outside b (in holds b's files), which leave s(U(R) \ b).
//
//fbvet:noescape
//fbvet:nobce
func (r *residentSet) join(t bundle.Bundle, in *fileSet) bundle.Size {
	var freed bundle.Size
	files, excl := r.files, r.excl
	for _, f := range t {
		fi := int(f)
		if uint(fi) >= uint(len(files)) {
			continue
		}
		row := &files[fi]
		if row.gen != r.gen {
			row.gen, row.extra, row.tail = r.gen, 0, 0
		}
		row.tail++
		if w := uint(fi) >> 6; row.tail == row.cover+row.extra && w < uint(len(excl)) {
			excl[w] |= 1 << (uint(fi) & 63)
			if !in.has(f) {
				freed += row.size
			}
		}
	}
	return freed
}

// ordered reports whether w, the worst candidate outside the tail
// worst[:m], outranks every tail member t's key once the rest is covered:
// hi_t = v(t) over Σ s'(f) of t's exclusive files outside b, summed in
// bundle order — exactly the denominator a repair computes for t then.
// While R is not all taken, the covered files lie in b ∪ U(R), so every
// key of R is at least its initial key and every t's key at most hi_t: a
// sum that skips non-negative terms never rounds larger. A free member,
// whose sum is 0 (hi_t = +Inf), is not tested: its exclusive files
// outside b all have size 0, so whenever it pops it fits and charges
// nothing beyond U(R), and the files it covers add only zero terms to
// any other denominator (DESIGN.md §13.6).
//
//fbvet:noescape
func (r *residentSet) ordered(s *resortState, h *history.History, m int, in *fileSet) bool {
	worst := r.worst
	if m < 0 || m >= len(worst) {
		return false
	}
	w := worst[m].key
	fsp, excl := s.fsprime, r.excl
	for _, t := range worst[:m] {
		var denom float64
		for _, f := range h.At(int(t.slot)).Bundle {
			if in.has(f) || !hasBit(excl, int(f)) {
				continue
			}
			if fi := int(f); uint(fi) < uint(len(fsp)) {
				denom += fsp[fi]
			}
		}
		if !(denom > 0) {
			continue // a free member
		}
		hi := heapItem{v: rankOf(t.key.value, denom), value: t.key.value, idx: t.key.idx}
		if !better(&w, &hi) {
			return false
		}
	}
	return true
}

// rankTail runs the greedy on the tail worst[:m] after R is taken: skip
// holds b and every tail file outside the exclusive ones, and budget is
// what R left. It returns the tail picks' Value and BudgetUsed; the picks
// are the taken rows of s.st and their files s.chosen. The tail is listed
// in index order, so the heap's index tie-break is the round's.
func (r *residentSet) rankTail(s *resortState, h *history.History, b bundle.Bundle, m int, budget bundle.Size, opts SelectOptions) Selection {
	tail := r.worst[:m]
	slices.SortFunc(tail, func(x, y tailItem) int { return int(x.key.idx - y.key.idx) })
	s.reset(m)
	for _, f := range b {
		s.skip.add(f)
	}
	cands := r.tailCands[:0]
	for _, t := range tail {
		e := h.At(int(t.slot))
		cands = append(cands, Candidate{Bundle: e.Bundle, Value: e.Value})
		for _, f := range e.Bundle {
			if !hasBit(r.excl, int(f)) {
				s.skip.add(f)
			}
		}
	}
	r.tailCands = cands
	var sel Selection
	s.greedy(cands, budget, opts, &sel)
	return sel
}

// assemble is the Selection of a round certified with an m-member tail
// whose picks rankTail left in s, taking value and charging used in all.
// Files is U minus the tail's exclusive files that no tail pick holds,
// built a word at a time; Chosen lists every candidate but the tail's
// unpicked ones, in index order.
func (r *residentSet) assemble(s *resortState, m int, value float64, used bundle.Size) Selection {
	files := s.files[:0]
	xw := r.extraFiles.words[:r.extraFiles.hi]
	for w := range max(len(r.covered), len(xw)) {
		var word, drop uint64
		if w < len(r.covered) && w < len(r.excl) {
			word, drop = r.covered[w], r.excl[w]
		}
		if w < len(xw) {
			word |= xw[w]
		}
		if w < len(s.chosen.words) {
			drop &^= s.chosen.words[w]
		}
		word &^= drop
		base := bundle.FileID(w) << 6
		for word != 0 {
			files = append(files, base+bundle.FileID(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	s.files = files

	chosen := s.chosenList[:0]
	tail := r.worst[:m]
	for i := range r.order {
		if len(tail) > 0 && int(tail[0].key.idx) == i {
			picked := s.st[m-len(tail)].taken
			tail = tail[1:]
			if !picked {
				continue
			}
		}
		chosen = append(chosen, i)
	}
	s.chosenList = chosen
	return Selection{Chosen: chosen, Files: bundle.Bundle(files), Value: value, BudgetUsed: used}
}
