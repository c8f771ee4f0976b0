// Package bundle defines the basic vocabulary of the file-bundle caching
// problem (§1.1, §2): files with sizes, bundles (the set of files a job must
// have in cache simultaneously), and requests (a bundle plus an importance
// value). Every other package — history, cache, the policies, the
// simulators — speaks in these types.
//
// A Bundle is stored in canonical form — sorted, duplicate-free — so that two
// jobs asking for the same set of files compare equal and share one history
// entry, exactly as the L(R) structure of §3 requires.
package bundle

import (
	"fmt"
	"slices"
	"strings"
)

// FileID identifies a file in a Catalog. IDs are dense small integers so the
// hot paths (degree maps, residency sets) can use slices instead of maps.
type FileID uint32

// Size is a file or transfer size in bytes.
type Size int64

// Common size units.
const (
	KB Size = 1 << 10
	MB Size = 1 << 20
	GB Size = 1 << 30
	TB Size = 1 << 40
)

func (s Size) String() string {
	switch {
	case s >= TB:
		return fmt.Sprintf("%.2fTB", float64(s)/float64(TB))
	case s >= GB:
		return fmt.Sprintf("%.2fGB", float64(s)/float64(GB))
	case s >= MB:
		return fmt.Sprintf("%.2fMB", float64(s)/float64(MB))
	case s >= KB:
		return fmt.Sprintf("%.2fKB", float64(s)/float64(KB))
	}
	return fmt.Sprintf("%dB", int64(s))
}

// File pairs a FileID with its size.
type File struct {
	ID   FileID
	Size Size
}

// Bundle is a canonical (sorted, deduplicated) set of FileIDs — the files a
// job needs in cache at the same time.
type Bundle []FileID

// New builds a canonical Bundle from the given ids. The input slice is not
// retained.
func New(ids ...FileID) Bundle {
	b := make(Bundle, len(ids))
	copy(b, ids)
	return b.normalize()
}

// FromSlice canonicalizes ids in place and returns it as a Bundle. The caller
// must not reuse ids afterwards.
func FromSlice(ids []FileID) Bundle {
	return Bundle(ids).normalize()
}

func (b Bundle) normalize() Bundle {
	if len(b) < 2 {
		return b
	}
	// slices.Sort, not sort.Slice: the reflection-based swapper allocates,
	// and normalize runs on every Bundle construction, including the
	// per-admission Loaded/Evicted scratch canonicalization.
	slices.Sort(b)
	out := b[:1]
	for _, id := range b[1:] {
		if id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return out
}

// Len reports the number of files in the bundle.
func (b Bundle) Len() int { return len(b) }

// Contains reports whether id is a member of the bundle.
// The bundle is sorted, so this is a binary search.
func (b Bundle) Contains(id FileID) bool {
	// slices.BinarySearch, not sort.Search: no closure to materialize on
	// per-file membership tests inside eviction scans.
	_, ok := slices.BinarySearch(b, id)
	return ok
}

// SubsetOf reports whether every file of b is also in other.
func (b Bundle) SubsetOf(other Bundle) bool {
	if len(b) > len(other) {
		return false
	}
	i := 0
	for _, id := range b {
		for i < len(other) && other[i] < id {
			i++
		}
		if i >= len(other) || other[i] != id {
			return false
		}
		i++
	}
	return true
}

// Equal reports whether two canonical bundles contain the same files.
func (b Bundle) Equal(other Bundle) bool {
	if len(b) != len(other) {
		return false
	}
	for i := range b {
		if b[i] != other[i] {
			return false
		}
	}
	return true
}

// Union returns a new canonical bundle with the files of both bundles.
func (b Bundle) Union(other Bundle) Bundle {
	out := make(Bundle, 0, len(b)+len(other))
	i, j := 0, 0
	for i < len(b) && j < len(other) {
		switch {
		case b[i] < other[j]:
			out = append(out, b[i])
			i++
		case b[i] > other[j]:
			out = append(out, other[j])
			j++
		default:
			out = append(out, b[i])
			i++
			j++
		}
	}
	out = append(out, b[i:]...)
	out = append(out, other[j:]...)
	return out
}

// Intersect returns the files common to both bundles.
func (b Bundle) Intersect(other Bundle) Bundle {
	var out Bundle
	i, j := 0, 0
	for i < len(b) && j < len(other) {
		switch {
		case b[i] < other[j]:
			i++
		case b[i] > other[j]:
			j++
		default:
			out = append(out, b[i])
			i++
			j++
		}
	}
	return out
}

// Minus returns the files of b that are not in other, or nil when there are
// none. The result is sized once, at the first surviving file, to len(b) —
// its upper bound — so a non-empty difference costs exactly one allocation.
func (b Bundle) Minus(other Bundle) Bundle {
	var out Bundle
	j := 0
	for _, id := range b {
		for j < len(other) && other[j] < id {
			j++
		}
		if j < len(other) && other[j] == id {
			continue
		}
		if out == nil {
			out = make(Bundle, 0, len(b))
		}
		out = append(out, id)
	}
	return out
}

// Clone returns an independent copy of the bundle.
func (b Bundle) Clone() Bundle {
	out := make(Bundle, len(b))
	copy(out, b)
	return out
}

// Key returns a compact canonical string key for use in history hash tables.
func (b Bundle) Key() string {
	if len(b) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.Grow(len(b) * 6)
	for i, id := range b {
		if i > 0 {
			sb.WriteByte(',')
		}
		// Manual uint formatting; avoids fmt in the hot path.
		sb.WriteString(utoa(uint64(id)))
	}
	return sb.String()
}

// AppendKey appends the Key representation of b to dst and returns the
// extended slice — the allocation-free form of Key for hot-path callers
// (history lookups) that reuse a scratch buffer and probe the hash table
// with string(buf), which Go compiles to a no-copy lookup.
func (b Bundle) AppendKey(dst []byte) []byte {
	for i, id := range b {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendUint(dst, uint64(id))
	}
	return dst
}

// appendUint appends the decimal digits of u to dst (utoa without the string
// allocation).
func appendUint(dst []byte, u uint64) []byte {
	if u == 0 {
		return append(dst, '0')
	}
	var buf [20]byte
	i := len(buf)
	for u > 0 {
		i--
		buf[i] = byte('0' + u%10)
		u /= 10
	}
	return append(dst, buf[i:]...)
}

func utoa(u uint64) string {
	if u == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for u > 0 {
		i--
		buf[i] = byte('0' + u%10)
		u /= 10
	}
	return string(buf[i:])
}

func (b Bundle) String() string {
	parts := make([]string, len(b))
	for i, id := range b {
		parts[i] = fmt.Sprintf("f%d", id)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Request is a job's file demand: a bundle plus a value reflecting its
// importance (in the paper, a popularity counter, but priorities work too).
type Request struct {
	Bundle Bundle
	Value  float64
}

// SizeFunc reports the size of a file. It abstracts the Catalog so algorithm
// packages need not depend on it.
type SizeFunc func(FileID) Size

// TotalSize sums the sizes of the files in b under sizeOf.
func (b Bundle) TotalSize(sizeOf SizeFunc) Size {
	var total Size
	for _, id := range b {
		total += sizeOf(id)
	}
	return total
}
