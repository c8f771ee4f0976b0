// Package history implements the L(R) request-history structure from the
// paper (§3): for every distinct bundle ever requested it tracks a value
// v(r), a popularity counter, and for every file the degree
// d(f) — the number of distinct requests that need it.
//
// The paper's §5.2 "Request History Length" experiments truncate the
// candidate set handed to OptCacheSelect "while obtaining the request
// popularity and the degree of file sharing from the global history".
// History therefore always maintains global values and degrees cheaply, and
// exposes Candidates with a pluggable truncation policy.
package history

import (
	"fmt"
	"slices"

	"fbcache/internal/bundle"
)

// Entry is one distinct request in the history.
type Entry struct {
	Bundle   bundle.Bundle
	Value    float64 // v(r): the popularity counter
	LastSeen uint64  // logical time of most recent observation
}

// Truncation selects which history entries are offered to the selection
// algorithm. Global degrees and values are unaffected.
type Truncation int

const (
	// Full offers every request ever seen (the paper's default model).
	Full Truncation = iota
	// Window offers only the Limit most-recently-seen distinct requests.
	Window
	// CacheResident restricts candidates to requests currently supported by
	// the cache — the paper's §5.3 choice ("subsequent simulations were run
	// using only the truncated history limited to the requests in the
	// cache"), keeping per-admission cost constant. The filtering needs the
	// cache, so it happens in the policy (internal/core); History.Candidates
	// itself returns the full set under this mode.
	CacheResident
)

func (t Truncation) String() string {
	switch t {
	case Full:
		return "full"
	case Window:
		return "window"
	case CacheResident:
		return "cache-resident"
	}
	return fmt.Sprintf("Truncation(%d)", int(t))
}

// Config controls History behaviour.
type Config struct {
	Truncation Truncation
	// Limit bounds the candidate set under Window; the other truncations
	// ignore it. <= 0 means no bound.
	Limit int
}

// History is the L(R) structure. It is not safe for concurrent use; wrap it
// (as internal/srm does) when sharing across goroutines.
type History struct {
	cfg     Config
	entries map[string]*Entry
	order   []*Entry // every entry in insertion order; append-only
	clock   uint64

	// files is the file → entry-slot posting index, one row per FileID
	// (catalog IDs are sequential small integers, so a dense slice turns
	// every per-file lookup into a bounds-checked load instead of a map
	// probe). Row f's list holds the order indices ("slots") of the
	// entries that contain f, ascending, in postings[off:off+n]; its
	// length n is the degree d(f) of every s'(f) = s(f)/d(f) term. Rows at
	// or past len(files) have degree 0 (never seen). All lists share the
	// one postings arena: a full list moves to the arena's end with
	// double the room, so an append costs O(1) amortized, and the ranges
	// a list has used add up to less than twice its room — about four
	// times its postings.
	files    []fileRow
	postings []int32

	// keyBuf is the scratch key buffer: lookups probe entries with
	// string(keyBuf) (a no-copy map access), and only inserts materialize
	// the string. degFn is the one DegreeFunc closure, built once so
	// per-admission callers do not allocate a fresh closure per call.
	keyBuf []byte
	degFn  func(bundle.FileID) int
}

// fileRow locates one file's posting list in the arena: n slots in use
// out of room reserved at off.
type fileRow struct {
	off, n, room int32
}

// New returns an empty history with the given configuration.
func New(cfg Config) *History {
	h := &History{
		cfg:     cfg,
		entries: make(map[string]*Entry),
	}
	h.degFn = func(f bundle.FileID) int {
		if i := int(f); i < len(h.files) {
			if d := h.files[i].n; d > 0 {
				return int(d)
			}
		}
		return 1
	}
	return h
}

// Observe records one occurrence of b, incrementing its value by one, and
// returns the entry. This is the paper's "counter incremented by 1 each time
// this request appeared".
func (h *History) Observe(b bundle.Bundle) *Entry {
	h.clock++
	h.keyBuf = b.AppendKey(h.keyBuf[:0])
	e, ok := h.entries[string(h.keyBuf)]
	if !ok {
		e = &Entry{Bundle: b.Clone()}
		h.entries[string(h.keyBuf)] = e
		slot := int32(len(h.order))
		h.order = append(h.order, e)
		for _, f := range e.Bundle {
			h.post(f, slot)
		}
	}
	e.Value++
	e.LastSeen = h.clock
	return e
}

// Lookup returns the entry for b, if any.
func (h *History) Lookup(b bundle.Bundle) (*Entry, bool) {
	h.keyBuf = b.AppendKey(h.keyBuf[:0])
	e, ok := h.entries[string(h.keyBuf)]
	return e, ok
}

// Len reports the number of distinct requests recorded.
func (h *History) Len() int { return len(h.entries) }

// At returns the entry at slot i: the i-th distinct request, counted from
// 0 in first-seen order. Slots never move (the order is append-only), so a
// slot names the same entry for the history's lifetime. Entries are shared
// (do not mutate).
func (h *History) At(i int) *Entry { return h.order[i] }

// SlotsOf returns the slots of the entries that contain f, ascending; its
// length is d(f). The slice aliases the posting arena: callers must not
// modify it, and it is valid only until the next Observe that adds an entry.
func (h *History) SlotsOf(f bundle.FileID) []int32 {
	if i := int(f); i < len(h.files) {
		r := h.files[i]
		return h.postings[r.off : r.off+r.n]
	}
	return nil
}

// post appends slot to f's posting list, growing the dense table on first
// sight of a new FileID. Entries are never removed, so lists only grow.
func (h *History) post(f bundle.FileID, slot int32) {
	i := int(f)
	if i >= len(h.files) {
		h.files = append(h.files, make([]fileRow, i+1-len(h.files))...)
	}
	r := &h.files[i]
	if r.n == r.room {
		// Move the list to the arena's end with double the room; the old
		// range is left behind. The arena itself grows geometrically too,
		// so neither step reallocates per append.
		room := max(2*r.room, 4)
		off := len(h.postings)
		if need := off + int(room); need > cap(h.postings) {
			grown := make([]int32, off, max(need, 2*cap(h.postings), 256))
			copy(grown, h.postings)
			h.postings = grown
		}
		h.postings = append(h.postings, h.postings[r.off:r.off+r.n]...)
		h.postings = h.postings[:off+int(room)]
		r.off, r.room = int32(off), room
	}
	h.postings[r.off+r.n] = slot
	r.n++
}

// DegreeFunc returns the degree lookup as a closure, with a floor of 1 so the
// adjusted size s'(f) = s(f)/d(f) is defined even for unseen files. The same
// closure is returned on every call (it reads the live degree table), so
// per-admission callers allocate nothing.
func (h *History) DegreeFunc() func(bundle.FileID) int {
	return h.degFn
}

// MaxDegree reports d = max_f d(f), the constant in the paper's
// (1 − e^{−1/d}) approximation bound.
func (h *History) MaxDegree() int {
	max := int32(0)
	for _, r := range h.files {
		if r.n > max {
			max = r.n
		}
	}
	return int(max)
}

// Candidates returns the entries offered to the selection algorithm under
// the configured truncation: every entry in first-seen order, or, for a
// Window shorter than the history, the Limit most recently seen, newest
// first. The returned slice is freshly allocated; entries are shared (do not
// mutate).
func (h *History) Candidates() []*Entry {
	return h.CandidatesAppend(make([]*Entry, 0, len(h.order)))
}

// CandidatesAppend appends the truncated candidate set to dst and returns
// the extended slice — the allocation-free form of Candidates for
// per-admission callers (OptFileBundle) that reuse a scratch slice. Entries
// are shared (do not mutate).
func (h *History) CandidatesAppend(dst []*Entry) []*Entry {
	n := len(dst)
	dst = append(dst, h.order...)
	all := dst[n:]
	limit := h.cfg.Limit
	if h.cfg.Truncation != Window || limit <= 0 || limit >= len(all) {
		return dst
	}
	// slices.SortFunc, not sort.Slice: the reflection-based swapper
	// allocates per admission. LastSeen is unique (one clock tick per
	// observation), so the comparator is total and the sort's instability
	// cannot reorder equals.
	slices.SortFunc(all, func(a, b *Entry) int {
		switch {
		case a.LastSeen > b.LastSeen:
			return -1
		case a.LastSeen < b.LastSeen:
			return 1
		}
		return 0
	})
	return dst[:n+limit]
}
