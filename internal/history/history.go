// Package history implements the L(R) request-history structure from the
// paper (§3): for every distinct bundle ever requested it tracks a value
// v(r) (by default a popularity counter), and for every file the degree
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
	Value    float64 // v(r): popularity counter or externally supplied weight
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

	// degree is d(f) stored densely, indexed by FileID. Catalog IDs are
	// sequential small integers, so a slice turns the per-file degree lookup
	// on the selection hot path (every s'(f) = s(f)/d(f) term) from a map
	// probe into a bounds-checked load. Entries at or past len(degree) have
	// degree 0 (never seen).
	degree []int32

	// keyBuf is the scratch key buffer: lookups probe entries with
	// string(keyBuf) (a no-copy map access), and only inserts materialize
	// the string. degFn is the one DegreeFunc closure, built once so
	// per-admission callers do not allocate a fresh closure per call.
	keyBuf []byte
	degFn  func(bundle.FileID) int
}

// New returns an empty history with the given configuration.
func New(cfg Config) *History {
	h := &History{
		cfg:     cfg,
		entries: make(map[string]*Entry),
	}
	h.degFn = func(f bundle.FileID) int {
		if i := int(f); i < len(h.degree) {
			if d := h.degree[i]; d > 0 {
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
	return h.ObserveValued(b, 1)
}

// ObserveValued records one occurrence of b with the given value increment,
// supporting priority-weighted requests.
func (h *History) ObserveValued(b bundle.Bundle, delta float64) *Entry {
	h.clock++
	h.keyBuf = b.AppendKey(h.keyBuf[:0])
	e, ok := h.entries[string(h.keyBuf)]
	if !ok {
		e = &Entry{Bundle: b.Clone()}
		h.entries[string(h.keyBuf)] = e
		h.order = append(h.order, e)
		for _, f := range e.Bundle {
			h.degreeInc(f)
		}
	}
	e.Value += delta
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

// degreeInc adds one to d(f), growing the dense table on first sight of a
// new FileID. Entries are never removed, so degrees only grow.
func (h *History) degreeInc(f bundle.FileID) {
	i := int(f)
	if i >= len(h.degree) {
		h.degree = append(h.degree, make([]int32, i+1-len(h.degree))...)
	}
	h.degree[i]++
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
	for _, d := range h.degree {
		if d > max {
			max = d
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
