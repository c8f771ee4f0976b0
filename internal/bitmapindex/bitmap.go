// Package bitmapindex implements the bit-sliced index of the paper's third
// motivating application (§1.1, after Wu et al. [15]): each attribute's
// value range is divided into bins, each bin owns one bitmap over all rows
// (events), and every bitmap is stored in its own file. A range query ORs
// the bitmaps of the bins it touches within an attribute and ANDs across
// attributes — so evaluating a query requires a file-bundle of bin files to
// be cache-resident simultaneously.
//
// The Index registers its bin files in a bundle.Catalog so the caching
// stack (SRM, policies, simulators) can stage exactly the bundles real
// queries would demand.
package bitmapindex

import (
	"fmt"
	"math/bits"
)

// Bitmap is a fixed-length uncompressed bitset over row IDs.
type Bitmap struct {
	n     int
	words []uint64
}

// NewBitmap returns an all-zero bitmap over n rows.
func NewBitmap(n int) *Bitmap {
	if n < 0 {
		panic(fmt.Sprintf("bitmapindex: negative length %d", n))
	}
	return &Bitmap{n: n, words: make([]uint64, (n+63)/64)}
}

// Len reports the number of rows.
func (b *Bitmap) Len() int { return b.n }

// Set marks row i.
func (b *Bitmap) Set(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("bitmapindex: Set(%d) outside [0,%d)", i, b.n))
	}
	b.words[i>>6] |= 1 << (uint(i) & 63)
}

// Get reports whether row i is marked.
func (b *Bitmap) Get(i int) bool {
	if i < 0 || i >= b.n {
		return false
	}
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Count reports the number of set rows (popcount).
func (b *Bitmap) Count() int {
	total := 0
	for _, w := range b.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// OrWith unions other into b in place.
func (b *Bitmap) OrWith(other *Bitmap) {
	b.check(other)
	for i := range b.words {
		b.words[i] |= other.words[i]
	}
}

// AndWith intersects other into b in place.
func (b *Bitmap) AndWith(other *Bitmap) {
	b.check(other)
	for i := range b.words {
		b.words[i] &= other.words[i]
	}
}

// Clone returns an independent copy.
func (b *Bitmap) Clone() *Bitmap {
	out := NewBitmap(b.n)
	copy(out.words, b.words)
	return out
}

// SizeBytes reports the serialized size of the bitmap: a run-length
// estimate (8 bytes per run of consecutive set bits plus a header),
// mimicking the compression behaviour of real bitmap indices — dense,
// fragmented bins cost more than sparse or contiguous ones.
func (b *Bitmap) SizeBytes() int64 {
	const header = 16
	runs := int64(0)
	prev := false
	for _, w := range b.words {
		if w == 0 {
			prev = false
			continue
		}
		if w == ^uint64(0) {
			if !prev {
				runs++
			}
			prev = true
			continue
		}
		for bit := 0; bit < 64; bit++ {
			cur := w&(1<<uint(bit)) != 0
			if cur && !prev {
				runs++
			}
			prev = cur
		}
	}
	return header + runs*8
}

func (b *Bitmap) check(other *Bitmap) {
	if other == nil || other.n != b.n {
		panic(fmt.Sprintf("bitmapindex: length mismatch %d vs %v", b.n, other))
	}
}
