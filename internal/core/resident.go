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
// union are known without building it: that is what lets a round in which
// every candidate fits skip the ranking altogether (selectAll).
//
// Residency is read, never told: sync diffs the cache's residency words
// against its own copy from the last sync, so files that tests or
// prefetching move through Cache() directly are caught the same way as the
// policy's own loads and evictions.
type residentSet struct {
	rows  []entryRow    // by history slot, one per synced entry
	files []residentRow // by FileID, for every file of a synced entry

	seen       []uint64 // the cache's residency words at the last sync
	supported  []uint64 // bit j set iff rows[j].missing == 0
	nsupported int
	covered    []uint64    // bit f set iff files[f].cover > 0
	coverBytes bundle.Size // Σ s(f) over the covered files

	// Per-round scratch. extra holds the slots of the unsupported entries
	// whose missing files all lie in the incoming bundle, ascending;
	// extraFiles their files that no supported entry covers. gen stamps
	// the rows whose hits belong to this round.
	gen        uint32
	extra      []int32
	extraFiles fileSet
}

// entryRow is the maintained state of one history entry.
type entryRow struct {
	missing int32  // files not resident at the last sync
	hits    int32  // missing files found in this round's incoming bundle
	gen     uint32 // the round hits was counted in
}

// residentRow is the maintained state of one file.
type residentRow struct {
	size  bundle.Size // s(f), read once when an entry first names f
	cover int32       // supported entries that contain f
}

// hasBit reports whether bit i is set in words; bits past the end are unset.
// It probes every file a sync or an all-fit test touches.
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
	r.nsupported++
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
	r.nsupported--
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
}

// candidates reports the number of candidates in this round.
func (r *residentSet) candidates() int { return r.nsupported + len(r.extra) }

// appendCandidates appends this round's candidates to dst in ascending
// slot order — the supported entries merged with the extra ones.
func (r *residentSet) appendCandidates(dst []Candidate, h *history.History) []Candidate {
	add := func(j int) {
		e := h.At(j)
		dst = append(dst, Candidate{Bundle: e.Bundle, Value: e.Value})
	}
	k := 0
	for w, word := range r.supported {
		base := w << 6
		for word != 0 {
			j := base + bits.TrailingZeros64(word)
			word &= word - 1
			for ; k < len(r.extra) && int(r.extra[k]) < j; k++ {
				add(int(r.extra[k]))
			}
			add(j)
		}
	}
	for ; k < len(r.extra); k++ {
		add(int(r.extra[k]))
	}
	return dst
}

// fits reports whether every candidate of this round fits budget together,
// and the bytes they charge: s(U \ b), where U is the union of their files
// and in holds b's files. The supported entries' part is maintained, so
// this costs |b| plus the extra entries' files. It collects those files in
// extraFiles, which selectAll reads.
func (r *residentSet) fits(h *history.History, b bundle.Bundle, in *fileSet, budget bundle.Size) (bundle.Size, bool) {
	used := r.coverBytes
	for _, f := range b {
		if hasBit(r.covered, int(f)) {
			used -= r.files[f].size
		}
	}
	r.extraFiles.reset()
	for _, j := range r.extra {
		for _, f := range h.At(int(j)).Bundle {
			if hasBit(r.covered, int(f)) || r.extraFiles.has(f) {
				continue
			}
			r.extraFiles.add(f)
			if !in.has(f) {
				used += r.files[f].size
			}
		}
	}
	return used, used <= budget
}

// selectAll is the selection of a round in which every candidate fits
// (fits said so, and charged used): the greedy then takes every candidate,
// never parks one, and Step 3's single request cannot beat the sum of all
// values. Files is U, ascending; Value the sum of the candidates' values,
// which are integer counts, so the sum is exact in any order; Chosen lists
// every candidate, in index order rather than the greedy's pick order.
// Chosen and Files alias s's result scratch, like a run's.
func (r *residentSet) selectAll(s *resortState, h *history.History, used bundle.Size) Selection {
	files := s.files[:0]
	xw := r.extraFiles.words[:r.extraFiles.hi]
	for w := range max(len(r.covered), len(xw)) {
		var word uint64
		if w < len(r.covered) {
			word = r.covered[w]
		}
		if w < len(xw) {
			word |= xw[w]
		}
		base := bundle.FileID(w) << 6
		for word != 0 {
			files = append(files, base+bundle.FileID(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	s.files = files

	var value float64
	for w, word := range r.supported {
		base := w << 6
		for word != 0 {
			value += h.At(base + bits.TrailingZeros64(word)).Value
			word &= word - 1
		}
	}
	for _, j := range r.extra {
		value += h.At(int(j)).Value
	}

	chosen := s.chosenList[:0]
	for i := range r.candidates() {
		chosen = append(chosen, i)
	}
	s.chosenList = chosen
	return Selection{Chosen: chosen, Files: bundle.Bundle(files), Value: value, BudgetUsed: used}
}
