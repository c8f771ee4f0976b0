package bitmapindex

import (
	"fmt"

	"fbcache/internal/bundle"
	"fbcache/internal/floats"
)

// Attribute is one indexed column: its value range [Lo, Hi) divided into
// Bins equal-width bins, each with a bitmap and a registered file.
type Attribute struct {
	Name string
	Lo   float64
	Hi   float64
	Bins int

	bitmaps []*Bitmap
	files   []bundle.FileID
}

// binOf maps a value to its bin, clamping out-of-range values to the edges.
func (a *Attribute) binOf(v float64) int {
	if v < a.Lo {
		return 0
	}
	if v >= a.Hi {
		return a.Bins - 1
	}
	bin := int((v - a.Lo) / (a.Hi - a.Lo) * float64(a.Bins))
	if bin >= a.Bins {
		bin = a.Bins - 1
	}
	return bin
}

// Index is a bit-sliced index over a fixed number of rows. Build it with
// New + AddAttribute + SetValue, then Finalize to register the bin files in
// the catalog; afterwards queries can be planned (QueryFiles) and evaluated
// (Evaluate).
type Index struct {
	rows      int
	attrs     []*Attribute
	cat       *bundle.Catalog
	finalized bool
}

// New returns an index over `rows` rows whose bin files will be registered
// in cat.
func New(rows int, cat *bundle.Catalog) *Index {
	if rows <= 0 {
		panic(fmt.Sprintf("bitmapindex: rows must be positive, got %d", rows))
	}
	if cat == nil {
		panic("bitmapindex: nil catalog")
	}
	return &Index{rows: rows, cat: cat}
}

// Rows reports the row count.
func (ix *Index) Rows() int { return ix.rows }

// AddAttribute declares an indexed attribute and returns its position.
// It panics after Finalize or on invalid parameters.
func (ix *Index) AddAttribute(name string, lo, hi float64, bins int) int {
	if ix.finalized {
		panic("bitmapindex: AddAttribute after Finalize")
	}
	if bins <= 0 || hi <= lo {
		panic(fmt.Sprintf("bitmapindex: bad attribute %q [%v,%v) bins=%d", name, lo, hi, bins))
	}
	a := &Attribute{Name: name, Lo: lo, Hi: hi, Bins: bins}
	a.bitmaps = make([]*Bitmap, bins)
	for i := range a.bitmaps {
		a.bitmaps[i] = NewBitmap(ix.rows)
	}
	ix.attrs = append(ix.attrs, a)
	return len(ix.attrs) - 1
}

// SetValue records the value of attribute attr for row: the matching bin's
// bit is set. Call once per (row, attr).
func (ix *Index) SetValue(row, attr int, value float64) {
	if ix.finalized {
		panic("bitmapindex: SetValue after Finalize")
	}
	a := ix.attrs[attr]
	a.bitmaps[a.binOf(value)].Set(row)
}

// Finalize registers every bin's file in the catalog, sized by the
// bitmap's run-length estimate, and freezes the index.
func (ix *Index) Finalize() {
	if ix.finalized {
		return
	}
	for _, a := range ix.attrs {
		a.files = make([]bundle.FileID, a.Bins)
		for b, bm := range a.bitmaps {
			name := fmt.Sprintf("%s/bin%03d.bm", a.Name, b)
			a.files[b] = ix.cat.Add(name, bundle.Size(bm.SizeBytes()))
		}
	}
	ix.finalized = true
}

// Range is a half-open predicate Lo <= value < Hi on one attribute.
type Range struct {
	Attr int
	Lo   float64
	Hi   float64
}

// QueryFiles returns the bundle of bin files a query over the given ranges
// must have in cache — the file-bundle the SRM stages. Errors before
// Finalize or on bad ranges.
func (ix *Index) QueryFiles(ranges []Range) (bundle.Bundle, error) {
	if !ix.finalized {
		return nil, fmt.Errorf("bitmapindex: index not finalized")
	}
	var ids []bundle.FileID
	for _, r := range ranges {
		a, lo, hi, err := ix.binsOf(r)
		if err != nil {
			return nil, err
		}
		for b := lo; b <= hi; b++ {
			ids = append(ids, a.files[b])
		}
	}
	return bundle.FromSlice(ids), nil
}

// Evaluate answers the query: AND across ranges of the OR of each range's
// bin bitmaps. An empty range list matches all rows.
func (ix *Index) Evaluate(ranges []Range) (*Bitmap, error) {
	if !ix.finalized {
		return nil, fmt.Errorf("bitmapindex: index not finalized")
	}
	result := NewBitmap(ix.rows)
	if len(ranges) == 0 {
		for i := 0; i < ix.rows; i++ {
			result.Set(i)
		}
		return result, nil
	}
	for i, r := range ranges {
		a, lo, hi, err := ix.binsOf(r)
		if err != nil {
			return nil, err
		}
		or := NewBitmap(ix.rows)
		for b := lo; b <= hi; b++ {
			or.OrWith(a.bitmaps[b])
		}
		if i == 0 {
			result = or
		} else {
			result.AndWith(or)
		}
	}
	return result, nil
}

// binsOf resolves a range to its attribute and touched bin interval.
// Note: bin-aligned evaluation over-selects rows whose values share a bin
// with the range boundary — the standard bit-sliced-index candidate check
// trade-off [15]; callers needing exactness re-check candidates.
func (ix *Index) binsOf(r Range) (*Attribute, int, int, error) {
	if r.Attr < 0 || r.Attr >= len(ix.attrs) {
		return nil, 0, 0, fmt.Errorf("bitmapindex: unknown attribute %d", r.Attr)
	}
	if r.Hi <= r.Lo {
		return nil, 0, 0, fmt.Errorf("bitmapindex: empty range [%v,%v)", r.Lo, r.Hi)
	}
	a := ix.attrs[r.Attr]
	lo := a.binOf(r.Lo)
	hi := a.binOf(r.Hi)
	// Hi is exclusive: if it falls exactly on a bin boundary, the boundary
	// bin is not touched.
	if r.Hi > a.Lo && r.Hi < a.Hi {
		width := (a.Hi - a.Lo) / float64(a.Bins)
		if floats.AlmostEqual(r.Hi, a.Lo+float64(hi)*width) {
			hi--
		}
	}
	if hi < lo {
		hi = lo
	}
	return a, lo, hi, nil
}
