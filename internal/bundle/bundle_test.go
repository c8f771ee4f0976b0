package bundle

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewCanonicalizes(t *testing.T) {
	tests := []struct {
		name string
		in   []FileID
		want Bundle
	}{
		{"empty", nil, Bundle{}},
		{"single", []FileID{7}, Bundle{7}},
		{"sorted", []FileID{1, 2, 3}, Bundle{1, 2, 3}},
		{"reverse", []FileID{3, 2, 1}, Bundle{1, 2, 3}},
		{"dups", []FileID{5, 1, 5, 1, 5}, Bundle{1, 5}},
		{"all same", []FileID{9, 9, 9}, Bundle{9}},
		{"mixed", []FileID{4, 0, 4, 2, 0, 8}, Bundle{0, 2, 4, 8}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := New(tt.in...)
			if len(got) == 0 && len(tt.want) == 0 {
				return
			}
			if !reflect.DeepEqual(got, tt.want) {
				t.Errorf("New(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestNewDoesNotRetainInput(t *testing.T) {
	in := []FileID{3, 1, 2}
	b := New(in...)
	in[0] = 99
	if !b.Equal(Bundle{1, 2, 3}) {
		t.Errorf("Bundle mutated by caller's slice: %v", b)
	}
}

func TestContains(t *testing.T) {
	b := New(2, 4, 6, 8)
	for _, id := range []FileID{2, 4, 6, 8} {
		if !b.Contains(id) {
			t.Errorf("Contains(%d) = false, want true", id)
		}
	}
	for _, id := range []FileID{0, 1, 3, 5, 7, 9, 100} {
		if b.Contains(id) {
			t.Errorf("Contains(%d) = true, want false", id)
		}
	}
	var empty Bundle
	if empty.Contains(0) {
		t.Error("empty bundle Contains(0) = true")
	}
}

func TestSubsetOf(t *testing.T) {
	tests := []struct {
		a, b Bundle
		want bool
	}{
		{New(), New(1, 2), true},
		{New(1), New(1, 2), true},
		{New(1, 2), New(1, 2), true},
		{New(1, 3), New(1, 2, 3), true},
		{New(1, 2, 3), New(1, 2), false},
		{New(4), New(1, 2, 3), false},
		{New(1, 5), New(1, 2, 3, 4), false},
		{New(), New(), true},
	}
	for _, tt := range tests {
		if got := tt.a.SubsetOf(tt.b); got != tt.want {
			t.Errorf("%v.SubsetOf(%v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestSetOperations(t *testing.T) {
	a := New(1, 2, 3, 5)
	b := New(2, 4, 5, 6)

	if got := a.Union(b); !got.Equal(New(1, 2, 3, 4, 5, 6)) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(b); !got.Equal(New(2, 5)) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Minus(b); !got.Equal(New(1, 3)) {
		t.Errorf("Minus = %v", got)
	}
	if got := b.Minus(a); !got.Equal(New(4, 6)) {
		t.Errorf("Minus reversed = %v", got)
	}
	var empty Bundle
	if got := a.Union(empty); !got.Equal(a) {
		t.Errorf("Union with empty = %v", got)
	}
	if got := empty.Minus(a); got.Len() != 0 {
		t.Errorf("empty.Minus = %v", got)
	}
}

// TestMinusAllocatesOnce pins Minus's allocation shape: a non-empty
// difference is sized once up front instead of grown by append, and an
// empty one stays nil.
func TestMinusAllocatesOnce(t *testing.T) {
	a := New(1, 2, 3, 5, 7, 9)
	b := New(2, 9)
	if got := testing.AllocsPerRun(100, func() { _ = a.Minus(b) }); got != 1 {
		t.Errorf("Minus allocs = %v, want 1", got)
	}
	if got := a.Minus(a); got != nil {
		t.Errorf("a.Minus(a) = %#v, want nil", got)
	}
	if got := testing.AllocsPerRun(100, func() { _ = a.Minus(a) }); got != 0 {
		t.Errorf("empty Minus allocs = %v, want 0", got)
	}
}

func TestKeyUniqueAndStable(t *testing.T) {
	a := New(3, 1, 2)
	b := New(1, 2, 3)
	if a.Key() != b.Key() {
		t.Errorf("equal bundles have different keys: %q vs %q", a.Key(), b.Key())
	}
	c := New(1, 23)
	d := New(12, 3)
	if c.Key() == d.Key() {
		t.Errorf("distinct bundles share key %q", c.Key())
	}
	if New().Key() != "" {
		t.Errorf("empty bundle key = %q, want empty", New().Key())
	}
}

func TestTotalSize(t *testing.T) {
	sizes := map[FileID]Size{1: 10, 2: 20, 3: 30}
	sizeOf := func(id FileID) Size { return sizes[id] }
	if got := New(1, 2, 3).TotalSize(sizeOf); got != 60 {
		t.Errorf("TotalSize = %d, want 60", got)
	}
	if got := New().TotalSize(sizeOf); got != 0 {
		t.Errorf("TotalSize(empty) = %d, want 0", got)
	}
}

func TestSizeString(t *testing.T) {
	tests := []struct {
		s    Size
		want string
	}{
		{512, "512B"},
		{KB, "1.00KB"},
		{3 * MB / 2, "1.50MB"},
		{2 * GB, "2.00GB"},
		{5 * TB, "5.00TB"},
	}
	for _, tt := range tests {
		if got := tt.s.String(); got != tt.want {
			t.Errorf("Size(%d).String() = %q, want %q", tt.s, got, tt.want)
		}
	}
}

// Property: canonicalization is idempotent and order-insensitive.
func TestQuickCanonical(t *testing.T) {
	f := func(raw []uint32) bool {
		ids := make([]FileID, len(raw))
		for i, v := range raw {
			ids[i] = FileID(v % 64)
		}
		b1 := New(ids...)
		// Shuffle and rebuild.
		r := rand.New(rand.NewSource(42))
		r.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		b2 := New(ids...)
		if !b1.Equal(b2) {
			return false
		}
		// Sorted and unique.
		if !sort.SliceIsSorted(b1, func(i, j int) bool { return b1[i] < b1[j] }) {
			return false
		}
		for i := 1; i < len(b1); i++ {
			if b1[i] == b1[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: algebraic identities of set operations.
func TestQuickSetAlgebra(t *testing.T) {
	mk := func(raw []uint32) Bundle {
		ids := make([]FileID, len(raw))
		for i, v := range raw {
			ids[i] = FileID(v % 32)
		}
		return New(ids...)
	}
	f := func(ra, rb []uint32) bool {
		a, b := mk(ra), mk(rb)
		u := a.Union(b)
		if !a.SubsetOf(u) || !b.SubsetOf(u) {
			return false
		}
		inter := a.Intersect(b)
		if !inter.SubsetOf(a) || !inter.SubsetOf(b) {
			return false
		}
		// |A∪B| = |A| + |B| - |A∩B|
		if u.Len() != a.Len()+b.Len()-inter.Len() {
			return false
		}
		// A\B and A∩B partition A.
		diff := a.Minus(b)
		if diff.Len()+inter.Len() != a.Len() {
			return false
		}
		if diff.Intersect(b).Len() != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCatalogBasics(t *testing.T) {
	c := NewCatalog()
	if c.Len() != 0 {
		t.Fatalf("new catalog Len = %d", c.Len())
	}
	a := c.Add("alpha", 100)
	b := c.Add("beta", 200)
	if a == b {
		t.Fatal("distinct names share ID")
	}
	if got := c.Name(a); got != "alpha" {
		t.Errorf("Name(a) = %q", got)
	}
	if got := c.Size(b); got != 200 {
		t.Errorf("Size(b) = %d", got)
	}
	if id, ok := c.Lookup("alpha"); !ok || id != a {
		t.Errorf("Lookup(alpha) = %d, %v", id, ok)
	}
	if _, ok := c.Lookup("gamma"); ok {
		t.Error("Lookup(gamma) found")
	}
	// Re-adding updates size, keeps ID.
	a2 := c.Add("alpha", 150)
	if a2 != a {
		t.Errorf("re-Add changed ID: %d vs %d", a2, a)
	}
	if got := c.Size(a); got != 150 {
		t.Errorf("Size after update = %d", got)
	}
	if got := c.TotalSize(); got != 350 {
		t.Errorf("TotalSize = %d, want 350", got)
	}
	anon := c.AddAnonymous(42)
	if got := c.Size(anon); got != 42 {
		t.Errorf("anonymous size = %d", got)
	}
	files := c.Files()
	if len(files) != 3 {
		t.Fatalf("Files len = %d", len(files))
	}
	for i, f := range files {
		if f.ID != FileID(i) {
			t.Errorf("Files()[%d].ID = %d", i, f.ID)
		}
	}
}

func TestCatalogAddNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add with negative size did not panic")
		}
	}()
	NewCatalog().Add("bad", -1)
}

func TestCatalogConcurrent(t *testing.T) {
	c := NewCatalog()
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				id := c.AddAnonymous(Size(i))
				_ = c.Name(id)
				_ = c.Size(id)
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if c.Len() != 800 {
		t.Errorf("Len = %d, want 800", c.Len())
	}
}

func BenchmarkBundleKey(b *testing.B) {
	bd := New(1, 5, 9, 200, 4000, 80000, 1600000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = bd.Key()
	}
}

func BenchmarkSubsetOf(b *testing.B) {
	big := make([]FileID, 256)
	for i := range big {
		big[i] = FileID(i * 3)
	}
	super := New(big...)
	sub := New(3, 30, 300, 600)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = sub.SubsetOf(super)
	}
}
