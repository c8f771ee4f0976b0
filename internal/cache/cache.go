// Package cache models the SRM's staging disk (§1.1): a byte-capacity store
// of whole files. It tracks residency, pin counts (files a running job must
// not lose), and cumulative traffic counters — the raw material of the §1.2
// byte miss ratio. Replacement *policy* lives elsewhere (internal/core,
// internal/policy); this package only enforces the mechanics — capacity,
// residency, and pinning invariants. When a tracer is installed it also
// emits one obs.LoadEvent/obs.EvictEvent per residency change, which gives
// every policy — including the classic baselines — a replayable trace for
// free.
package cache

import (
	"fmt"
	"math/bits"

	"fbcache/internal/bundle"
	"fbcache/internal/invariant"
	"fbcache/internal/obs"
)

// Cache is a fixed-capacity store of whole files. Not safe for concurrent
// use; internal/srm adds locking for the service layer.
type Cache struct {
	capacity bundle.Size
	used     bundle.Size

	// Residency and pins are dense tables indexed by FileID (catalog IDs are
	// sequential small integers): size[f] is f's resident byte size or -1
	// when absent, pins[f] its pin count. Dense storage turns the per-file
	// probes on every admission hot path (Supports, Contains, Pinned,
	// MissingAppend) into bounds-checked loads instead of map lookups, and
	// makes resident listings naturally ascending. count tracks the number
	// of resident files. size grows on first sight of a larger FileID; pins
	// grows to match only when a file is pinned, so policies and simulators
	// that never pin never allocate it, and a slot past its end reads 0.
	size  []bundle.Size
	pins  []int32
	count int

	// resident is the same residency as a bitset: bit f&63 of word f>>6 is
	// set iff size[f] >= 0. Listings and per-miss set algebra walk it a
	// word at a time, so their cost follows the resident count and the
	// catalog size over 64, not the catalog size. It grows with size.
	resident []uint64

	// Cumulative counters since New.
	bytesLoaded  bundle.Size
	bytesEvicted bundle.Size
	loads        int64
	evictions    int64

	// tracer, when non-nil, receives a Load/Evict event per file movement.
	// Events are stamped with the load/eviction ordinal — the cache has no
	// clock of any kind.
	tracer obs.Tracer
}

// New returns an empty cache with the given capacity in bytes.
// It panics if capacity is negative.
func New(capacity bundle.Size) *Cache {
	if capacity < 0 {
		panic(fmt.Sprintf("cache: negative capacity %d", capacity))
	}
	return &Cache{capacity: capacity}
}

// SetTracer installs t (nil disables tracing). Every Insert emits a
// LoadEvent and every Evict an EvictEvent, regardless of which policy drove
// the movement — classic policies get per-file tracing for free.
func (c *Cache) SetTracer(t obs.Tracer) { c.tracer = t }

// The accessors below sit inside every admission and eviction decision made
// by the policies, so they carry perf contracts (enforced by fbvet's
// contract analyzers, see internal/analyzers/contracts.go): they must inline
// into callers and must not force their receiver or arguments onto the heap.

// Capacity reports the total capacity in bytes.
//
//fbvet:inline read per admission budget computation
//fbvet:noescape
func (c *Cache) Capacity() bundle.Size { return c.capacity }

// Used reports the bytes currently occupied.
//
//fbvet:inline
//fbvet:noescape
func (c *Cache) Used() bundle.Size { return c.used }

// Free reports the unoccupied bytes.
//
//fbvet:inline read per decay-and-evict round
//fbvet:noescape
func (c *Cache) Free() bundle.Size { return c.capacity - c.used }

// Len reports the number of resident files.
//
//fbvet:inline
//fbvet:noescape
func (c *Cache) Len() int { return c.count }

// Contains reports whether file f is resident.
//
//fbvet:inline read per file on ranking and prefetch paths
//fbvet:noescape
func (c *Cache) Contains(f bundle.FileID) bool {
	i := int(f)
	return i < len(c.size) && c.size[i] >= 0
}

// SizeOf returns the resident size of f and whether it is resident.
//
//fbvet:inline
//fbvet:noescape
func (c *Cache) SizeOf(f bundle.FileID) (bundle.Size, bool) {
	if i := int(f); i < len(c.size) && c.size[i] >= 0 {
		return c.size[i], true
	}
	return 0, false
}

// Supports reports whether every file of b is resident — the paper's
// "request-hit": the cache supports r iff F(r) ⊆ F(C). It is the first
// check of every Admit.
//
//fbvet:inline
//fbvet:noescape
//fbvet:nobce
func (c *Cache) Supports(b bundle.Bundle) bool {
	sz := c.size
	for _, f := range b {
		i := int(f)
		if uint(i) >= uint(len(sz)) || sz[i] < 0 {
			return false
		}
	}
	return true
}

// Missing returns the files of b that are not resident.
func (c *Cache) Missing(b bundle.Bundle) bundle.Bundle {
	return c.MissingAppend(nil, b)
}

// MissingAppend appends the non-resident files of b to dst and returns the
// extended slice — the allocation-free form of Missing for per-admission
// callers that reuse a scratch slice.
func (c *Cache) MissingAppend(dst, b bundle.Bundle) bundle.Bundle {
	sz := c.size
	for _, f := range b {
		if i := int(f); uint(i) >= uint(len(sz)) || sz[i] < 0 {
			dst = append(dst, f)
		}
	}
	return dst
}

// Insert makes f resident with the given size. It returns an error if the
// file would not fit or is already resident (idempotent re-insertion of the
// same size is allowed and a no-op).
func (c *Cache) Insert(f bundle.FileID, size bundle.Size) error {
	if size < 0 {
		return fmt.Errorf("cache: insert %d: negative size %d", f, size)
	}
	if size > c.capacity {
		return fmt.Errorf("cache: insert %d: size %d exceeds capacity %d", f, size, c.capacity)
	}
	i := c.grow(f)
	if old := c.size[i]; old >= 0 {
		if old == size {
			return nil
		}
		return fmt.Errorf("cache: insert %d: already resident with size %d (new %d)", f, old, size)
	}
	if c.used+size > c.capacity {
		return fmt.Errorf("cache: insert %d: need %d bytes, only %d free", f, size, c.Free())
	}
	c.size[i] = size
	c.resident[uint(i)>>6] |= 1 << (uint(i) & 63)
	c.count++
	c.used += size
	c.bytesLoaded += size
	c.loads++
	if c.tracer != nil {
		c.tracer.Load(obs.LoadEvent{At: float64(c.loads), File: int64(f), Bytes: int64(size)})
	}
	if invariant.Enabled {
		invariant.Check(c.used >= 0 && c.used <= c.capacity,
			"cache: after Insert(%d, %d): used %d outside [0, capacity %d]",
			f, size, c.used, c.capacity)
	}
	return nil
}

// Evict removes f. It returns an error if f is pinned or not resident.
func (c *Cache) Evict(f bundle.FileID) error {
	i := int(f)
	if i >= len(c.size) || c.size[i] < 0 {
		return fmt.Errorf("cache: evict %d: not resident", f)
	}
	size := c.size[i]
	if i < len(c.pins) && c.pins[i] > 0 {
		return fmt.Errorf("cache: evict %d: pinned %d times", f, c.pins[i])
	}
	c.size[i] = -1
	c.resident[uint(i)>>6] &^= 1 << (uint(i) & 63)
	c.count--
	c.used -= size
	c.bytesEvicted += size
	c.evictions++
	if c.tracer != nil {
		c.tracer.Evict(obs.EvictEvent{At: float64(c.evictions), File: int64(f), Bytes: int64(size)})
	}
	if invariant.Enabled {
		invariant.Check(c.used >= 0 && c.used <= c.capacity,
			"cache: after Evict(%d): used %d outside [0, capacity %d]",
			f, c.used, c.capacity)
	}
	return nil
}

// Unpin decrements f's pin count. It returns an error if f is not pinned.
func (c *Cache) Unpin(f bundle.FileID) error {
	i := int(f)
	if i >= len(c.pins) || c.pins[i] <= 0 {
		return fmt.Errorf("cache: unpin %d: not pinned", f)
	}
	c.pins[i]--
	return nil
}

// Pinned reports whether f has a positive pin count.
//
//fbvet:inline read per file on every eviction scan
//fbvet:noescape
func (c *Cache) Pinned(f bundle.FileID) bool {
	i := int(f)
	return i < len(c.pins) && c.pins[i] > 0
}

// PinBundle pins every file of b, or pins nothing and returns an error if any
// file is absent.
func (c *Cache) PinBundle(b bundle.Bundle) error {
	if !c.Supports(b) {
		return fmt.Errorf("cache: pin bundle %v: not fully resident", b)
	}
	c.growPins()
	for _, f := range b {
		c.pins[int(f)]++
	}
	return nil
}

// UnpinBundle unpins every file of b. Errors on the first non-pinned file.
func (c *Cache) UnpinBundle(b bundle.Bundle) error {
	for _, f := range b {
		if err := c.Unpin(f); err != nil {
			return err
		}
	}
	return nil
}

// Resident returns the resident file IDs in ascending order.
func (c *Cache) Resident() bundle.Bundle {
	return c.ResidentAppend(make(bundle.Bundle, 0, c.count))
}

// ResidentAppend appends the resident file IDs to dst in ascending order
// and returns the extended slice — the allocation-free form of Resident for
// per-admission callers (eviction scans) that reuse a scratch slice. Prior
// contents of dst are kept as they are, ahead of the appended IDs; pass an
// empty dst (typically scratch[:0]) for a sorted listing.
//
//fbvet:noescape
//fbvet:nobce range over the residency words
func (c *Cache) ResidentAppend(dst bundle.Bundle) bundle.Bundle {
	// The bitset walks in ascending FileID order, so the listing is sorted
	// by construction, and empty words cost one test each.
	for w, word := range c.resident {
		base := bundle.FileID(w) << 6
		for word != 0 {
			dst = append(dst, base+bundle.FileID(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return dst
}

// ResidentWords exposes the residency bitset: bit f&63 of word f>>6 is set
// iff file f is resident, and IDs past the last word are absent. The slice
// aliases the cache's own table — callers must not modify it, and it is
// valid only until the next Insert or Evict.
func (c *Cache) ResidentWords() []uint64 { return c.resident }

// grow widens the residency tables to cover f and returns int(f). New size
// slots start at -1 (absent).
func (c *Cache) grow(f bundle.FileID) int {
	i := int(f)
	if i >= len(c.size) {
		n := max(i+1, 2*len(c.size))
		gs := make([]bundle.Size, n)
		for j := copy(gs, c.size); j < n; j++ {
			gs[j] = -1
		}
		c.size = gs
		// The words change length only every 64 IDs, so most growths of
		// the size table leave them as they are.
		if w := (n + 63) >> 6; w > len(c.resident) {
			c.resident = append(c.resident, make([]uint64, w-len(c.resident))...)
		}
	}
	return i
}

// growPins widens the pin table to the size table's length; new slots
// start at 0.
func (c *Cache) growPins() {
	if len(c.pins) < len(c.size) {
		gp := make([]int32, len(c.size))
		copy(gp, c.pins)
		c.pins = gp
	}
}

// Counters reports cumulative traffic since construction.
func (c *Cache) Counters() (bytesLoaded, bytesEvicted bundle.Size, loads, evictions int64) {
	return c.bytesLoaded, c.bytesEvicted, c.loads, c.evictions
}

// CheckInvariants verifies internal consistency (used == Σ sizes, pins only on
// resident files, used ≤ capacity, the residency bitset agreeing with the
// size table). Tests and the simulator's paranoid mode
// call this; it returns a descriptive error on the first violation. The dense
// tables walk in ascending FileID order, so the violation reported — and
// therefore any test output built from it — is deterministic.
func (c *Cache) CheckInvariants() error {
	var sum bundle.Size
	var n int
	for _, s := range c.size {
		if s >= 0 {
			sum += s
			n++
		}
	}
	if n != c.count {
		return fmt.Errorf("cache: count=%d but %d resident sizes", c.count, n)
	}
	if sum != c.used {
		return fmt.Errorf("cache: used=%d but sizes sum to %d", c.used, sum)
	}
	if len(c.resident) != (len(c.size)+63)>>6 {
		return fmt.Errorf("cache: %d residency words for %d size slots", len(c.resident), len(c.size))
	}
	// With every in-table bit matching its slot, a popcount equal to count
	// also rules out stray bits past the table's end.
	for i, s := range c.size {
		if set := c.resident[i>>6]&(1<<(uint(i)&63)) != 0; set != (s >= 0) {
			return fmt.Errorf("cache: file %d residency bit %t but size %d", i, set, s)
		}
	}
	pop := 0
	for _, word := range c.resident {
		pop += bits.OnesCount64(word)
	}
	if pop != c.count {
		return fmt.Errorf("cache: count=%d but %d residency bits set", c.count, pop)
	}
	if c.used > c.capacity {
		return fmt.Errorf("cache: used %d exceeds capacity %d", c.used, c.capacity)
	}
	for i, p := range c.pins {
		if p < 0 {
			return fmt.Errorf("cache: file %d has negative pin count %d", i, p)
		}
		if p > 0 && (i >= len(c.size) || c.size[i] < 0) {
			return fmt.Errorf("cache: file %d pinned but not resident", i)
		}
	}
	return nil
}
