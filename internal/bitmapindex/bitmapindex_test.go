package bitmapindex

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fbcache/internal/bundle"
)

func TestBitmapBasics(t *testing.T) {
	b := NewBitmap(130) // spans three words
	if b.Len() != 130 || b.Count() != 0 {
		t.Fatalf("fresh bitmap: len=%d count=%d", b.Len(), b.Count())
	}
	for _, i := range []int{0, 63, 64, 129} {
		b.Set(i)
	}
	if b.Count() != 4 {
		t.Errorf("Count = %d", b.Count())
	}
	for _, i := range []int{0, 63, 64, 129} {
		if !b.Get(i) {
			t.Errorf("Get(%d) = false", i)
		}
	}
	if b.Get(1) || b.Get(128) || b.Get(-1) || b.Get(130) {
		t.Error("phantom bits")
	}
}

func TestBitmapSetPanics(t *testing.T) {
	b := NewBitmap(8)
	for _, i := range []int{-1, 8} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Set(%d) did not panic", i)
				}
			}()
			b.Set(i)
		}()
	}
}

func TestBitmapAlgebra(t *testing.T) {
	a, b := NewBitmap(100), NewBitmap(100)
	for i := 0; i < 100; i += 2 {
		a.Set(i) // evens
	}
	for i := 0; i < 100; i += 3 {
		b.Set(i) // multiples of 3
	}
	and := a.Clone()
	and.AndWith(b) // multiples of 6
	if got := and.Count(); got != 17 {
		t.Errorf("AndWith count = %d, want 17", got)
	}
	or := a.Clone()
	or.OrWith(b)
	// |evens| + |x3| - |x6| = 50 + 34 - 17 = 67
	if got := or.Count(); got != 67 {
		t.Errorf("OrWith count = %d, want 67", got)
	}
	// The operand and the cloned original are untouched.
	if a.Count() != 50 || b.Count() != 34 {
		t.Error("AndWith/OrWith mutated an operand or the clone's source")
	}
}

func TestBitmapLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewBitmap(10).AndWith(NewBitmap(11))
}

func TestBitmapSizeBytesTracksDensity(t *testing.T) {
	sparse := NewBitmap(64 * 100)
	sparse.Set(0)
	dense := NewBitmap(64 * 100)
	for i := 0; i < 64*100; i += 2 {
		dense.Set(i)
	}
	if sparse.SizeBytes() >= dense.SizeBytes() {
		t.Errorf("sparse %d >= dense %d", sparse.SizeBytes(), dense.SizeBytes())
	}
	if NewBitmap(64).SizeBytes() <= 0 {
		t.Error("empty bitmap has non-positive size")
	}
}

func buildIndex(t testing.TB, rows int) (*Index, *bundle.Catalog, []float64, []float64) {
	t.Helper()
	cat := bundle.NewCatalog()
	ix := New(rows, cat)
	energy := ix.AddAttribute("energy", 0, 100, 10)
	pt := ix.AddAttribute("pt", 0, 50, 5)
	rng := rand.New(rand.NewSource(8))
	evals := make([]float64, rows)
	pvals := make([]float64, rows)
	for r := 0; r < rows; r++ {
		evals[r] = rng.Float64() * 100
		pvals[r] = rng.Float64() * 50
		ix.SetValue(r, energy, evals[r])
		ix.SetValue(r, pt, pvals[r])
	}
	ix.Finalize()
	return ix, cat, evals, pvals
}

func TestIndexQueryMatchesScan(t *testing.T) {
	const rows = 5000
	ix, _, evals, pvals := buildIndex(t, rows)
	// Bin-aligned ranges evaluate exactly (bins: energy width 10, pt width 10).
	ranges := []Range{
		{Attr: 0, Lo: 20, Hi: 60}, // energy bins 2..5
		{Attr: 1, Lo: 10, Hi: 30}, // pt bins 1..2
	}
	got, err := ix.Evaluate(ranges)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for r := 0; r < rows; r++ {
		if evals[r] >= 20 && evals[r] < 60 && pvals[r] >= 10 && pvals[r] < 30 {
			want++
		}
	}
	if got.Count() != want {
		t.Errorf("Evaluate count = %d, scan count = %d", got.Count(), want)
	}
}

func TestIndexQueryFiles(t *testing.T) {
	ix, cat, _, _ := buildIndex(t, 1000)
	files, err := ix.QueryFiles([]Range{
		{Attr: 0, Lo: 20, Hi: 60}, // 4 energy bins
		{Attr: 1, Lo: 10, Hi: 30}, // 2 pt bins
	})
	if err != nil {
		t.Fatal(err)
	}
	if files.Len() != 6 {
		t.Errorf("QueryFiles = %d files, want 6", files.Len())
	}
	// Every file exists in the catalog with a positive size.
	for _, f := range files {
		if cat.Size(f) <= 0 {
			t.Errorf("file %d (%s) has size %d", f, cat.Name(f), cat.Size(f))
		}
	}
	// Exclusive upper bound on a bin boundary does not touch the next bin.
	files, err = ix.QueryFiles([]Range{{Attr: 0, Lo: 0, Hi: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if files.Len() != 1 {
		t.Errorf("boundary range touched %d bins, want 1", files.Len())
	}
}

func TestIndexEmptyRangesMatchAll(t *testing.T) {
	ix, _, _, _ := buildIndex(t, 100)
	bm, err := ix.Evaluate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if bm.Count() != 100 {
		t.Errorf("match-all count = %d", bm.Count())
	}
}

func TestIndexErrors(t *testing.T) {
	cat := bundle.NewCatalog()
	ix := New(10, cat)
	ix.AddAttribute("a", 0, 1, 2)
	if _, err := ix.QueryFiles([]Range{{Attr: 0, Lo: 0, Hi: 1}}); err == nil {
		t.Error("query before Finalize accepted")
	}
	ix.Finalize()
	if _, err := ix.Evaluate([]Range{{Attr: 5, Lo: 0, Hi: 1}}); err == nil {
		t.Error("unknown attribute accepted")
	}
	if _, err := ix.Evaluate([]Range{{Attr: 0, Lo: 1, Hi: 0}}); err == nil {
		t.Error("empty range accepted")
	}
	// Finalize is idempotent; mutation afterwards panics.
	ix.Finalize()
	defer func() {
		if recover() == nil {
			t.Error("SetValue after Finalize did not panic")
		}
	}()
	ix.SetValue(0, 0, 0.5)
}

// Property: for random bin-aligned single-attribute ranges, Evaluate counts
// match a linear scan.
func TestQuickBinAlignedExactness(t *testing.T) {
	const rows = 800
	ix, _, evals, _ := buildIndex(t, rows)
	f := func(loBin, width uint8) bool {
		lo := int(loBin) % 10
		w := 1 + int(width)%(10-lo)
		rlo, rhi := float64(lo*10), float64((lo+w)*10)
		bm, err := ix.Evaluate([]Range{{Attr: 0, Lo: rlo, Hi: rhi}})
		if err != nil {
			return false
		}
		want := 0
		for r := 0; r < rows; r++ {
			if evals[r] >= rlo && evals[r] < rhi {
				want++
			}
		}
		return bm.Count() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkEvaluate(b *testing.B) {
	ix, _, _, _ := buildIndex(b, 100000)
	ranges := []Range{{Attr: 0, Lo: 20, Hi: 60}, {Attr: 1, Lo: 10, Hi: 30}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Evaluate(ranges); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBinsOfDecimalRangeEnd pins the exclusive range end against a bin
// edge that is not exactly representable: on [0,1) in 10 bins, 0.3 lies on
// the edge between bins 2 and 3, but 3·0.1 computes to one ulp above 0.3.
// An exact comparison would miss the edge and read bin 3 as well.
func TestBinsOfDecimalRangeEnd(t *testing.T) {
	cat := bundle.NewCatalog()
	ix := New(1, cat)
	attr := ix.AddAttribute("x", 0, 1, 10)
	for _, r := range []Range{{Attr: attr, Lo: 0, Hi: 0.3}, {Attr: attr, Lo: 0.1, Hi: 0.3}} {
		_, lo, hi, err := ix.binsOf(r)
		if err != nil {
			t.Fatal(err)
		}
		if wantLo := int(r.Lo * 10); lo != wantLo || hi != 2 {
			t.Errorf("binsOf(%v) = bins %d..%d, want %d..2", r, lo, hi, wantLo)
		}
	}
}
