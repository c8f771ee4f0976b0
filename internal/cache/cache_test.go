package cache

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"fbcache/internal/bundle"
)

func TestNewPanicsOnNegativeCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(-1)
}

func TestInsertEvictBasics(t *testing.T) {
	c := New(100)
	if err := c.Insert(1, 40); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(2, 60); err != nil {
		t.Fatal(err)
	}
	if c.Used() != 100 || c.Free() != 0 || c.Len() != 2 {
		t.Errorf("used=%d free=%d len=%d", c.Used(), c.Free(), c.Len())
	}
	if err := c.Insert(3, 1); err == nil {
		t.Error("over-capacity insert succeeded")
	}
	if err := c.Evict(1); err != nil {
		t.Fatal(err)
	}
	if c.Used() != 60 || c.Contains(1) {
		t.Errorf("after evict: used=%d contains(1)=%v", c.Used(), c.Contains(1))
	}
	if err := c.Evict(1); err == nil {
		t.Error("double evict succeeded")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestInsertEdgeCases(t *testing.T) {
	c := New(10)
	if err := c.Insert(1, -5); err == nil {
		t.Error("negative size insert succeeded")
	}
	if err := c.Insert(1, 11); err == nil {
		t.Error("larger-than-capacity insert succeeded")
	}
	if err := c.Insert(1, 5); err != nil {
		t.Fatal(err)
	}
	// Idempotent same-size re-insert is a no-op.
	if err := c.Insert(1, 5); err != nil {
		t.Errorf("same-size re-insert: %v", err)
	}
	if c.Used() != 5 {
		t.Errorf("used = %d after idempotent insert", c.Used())
	}
	// Different-size re-insert is an error.
	if err := c.Insert(1, 6); err == nil {
		t.Error("different-size re-insert succeeded")
	}
	// Zero-size file is legal (e.g. empty bitmap slice).
	if err := c.Insert(2, 0); err != nil {
		t.Errorf("zero-size insert: %v", err)
	}
}

func TestSupportsAndMissing(t *testing.T) {
	c := New(100)
	for f, s := range map[bundle.FileID]bundle.Size{1: 10, 3: 10, 5: 10} {
		if err := c.Insert(f, s); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Supports(bundle.New(1, 3)) {
		t.Error("Supports({1,3}) = false")
	}
	if !c.Supports(bundle.New()) {
		t.Error("Supports(empty) = false")
	}
	if c.Supports(bundle.New(1, 2)) {
		t.Error("Supports({1,2}) = true")
	}
	if got := c.Missing(bundle.New(1, 2, 4, 5)); !got.Equal(bundle.New(2, 4)) {
		t.Errorf("Missing = %v", got)
	}
}

func TestPinning(t *testing.T) {
	c := New(100)
	if err := c.PinBundle(bundle.New(1)); err == nil {
		t.Error("pin of absent file succeeded")
	}
	if err := c.Insert(1, 10); err != nil {
		t.Fatal(err)
	}
	if err := c.PinBundle(bundle.New(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.PinBundle(bundle.New(1)); err != nil {
		t.Fatal(err)
	}
	if !c.Pinned(1) {
		t.Error("Pinned(1) = false")
	}
	if err := c.Evict(1); err == nil {
		t.Error("evicted pinned file")
	}
	if err := c.Unpin(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Evict(1); err == nil {
		t.Error("evicted file still pinned once")
	}
	if err := c.Unpin(1); err != nil {
		t.Fatal(err)
	}
	if c.Pinned(1) {
		t.Error("still pinned after full unpin")
	}
	if err := c.Evict(1); err != nil {
		t.Errorf("evict after unpin: %v", err)
	}
	if err := c.Unpin(1); err == nil {
		t.Error("unpin of unpinned file succeeded")
	}
}

func TestPinBundleAtomicity(t *testing.T) {
	c := New(100)
	if err := c.Insert(1, 10); err != nil {
		t.Fatal(err)
	}
	// 2 is absent: nothing should be pinned.
	if err := c.PinBundle(bundle.New(1, 2)); err == nil {
		t.Fatal("PinBundle with absent member succeeded")
	}
	if c.Pinned(1) {
		t.Error("partial pin leaked")
	}
	if err := c.Insert(2, 10); err != nil {
		t.Fatal(err)
	}
	if err := c.PinBundle(bundle.New(1, 2)); err != nil {
		t.Fatal(err)
	}
	if !c.Pinned(1) || !c.Pinned(2) {
		t.Error("bundle not pinned")
	}
	if err := c.UnpinBundle(bundle.New(1, 2)); err != nil {
		t.Fatal(err)
	}
	if c.Pinned(1) || c.Pinned(2) {
		t.Error("bundle not unpinned")
	}
}

func TestResidentSorted(t *testing.T) {
	c := New(100)
	for _, f := range []bundle.FileID{9, 2, 7, 4} {
		if err := c.Insert(f, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Resident(); !got.Equal(bundle.New(2, 4, 7, 9)) {
		t.Errorf("Resident = %v", got)
	}
}

func TestCounters(t *testing.T) {
	c := New(100)
	c.Insert(1, 30)
	c.Insert(2, 20)
	c.Evict(1)
	loaded, evicted, loads, evs := c.Counters()
	if loaded != 50 || evicted != 30 || loads != 2 || evs != 1 {
		t.Errorf("counters = %d %d %d %d", loaded, evicted, loads, evs)
	}
}

// Property: any sequence of random inserts/evicts/pins keeps invariants.
func TestQuickInvariants(t *testing.T) {
	type op struct {
		Kind uint8
		File uint8
		Size uint16
	}
	f := func(ops []op) bool {
		c := New(1000)
		for _, o := range ops {
			f := bundle.FileID(o.File % 32)
			switch o.Kind % 4 {
			case 0:
				_ = c.Insert(f, bundle.Size(o.Size%400))
			case 1:
				_ = c.Evict(f)
			case 2:
				_ = c.PinBundle(bundle.New(f))
			case 3:
				_ = c.Unpin(f)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Logf("invariant violated: %v", err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestResidencyBitsetMatchesSizeTable drives random Inserts, Evicts and
// pins over IDs on both sides of word boundaries (0, 63, 64, 127, 128) and
// one far ID whose first sight grows every table at once. After each step
// ResidentAppend — from an empty and from a non-empty dst — must list
// exactly what a walk of the size table lists, and CheckInvariants must
// agree that each bit matches its size slot and the popcount matches Len.
func TestResidencyBitsetMatchesSizeTable(t *testing.T) {
	ids := []bundle.FileID{0, 1, 62, 63, 64, 65, 127, 128, 129, 191, 192, 5000}
	rng := rand.New(rand.NewSource(3))
	for trial := range 20 {
		c := New(1 << 20)
		for step := range 400 {
			f := ids[rng.Intn(len(ids))]
			switch rng.Intn(5) {
			case 0, 1:
				_ = c.Insert(f, bundle.Size(rng.Intn(4))) // zero sizes are resident too
			case 2:
				_ = c.Evict(f)
			case 3:
				_ = c.PinBundle(bundle.New(f))
			case 4:
				_ = c.Unpin(f)
			}
			var want bundle.Bundle
			for i, sz := range c.size {
				if sz >= 0 {
					want = append(want, bundle.FileID(i))
				}
			}
			if got := c.ResidentAppend(nil); !slices.Equal(got, want) {
				t.Fatalf("trial %d step %d: ResidentAppend = %v, size table lists %v", trial, step, got, want)
			}
			prefix := bundle.Bundle{9999, 1}
			if got := c.ResidentAppend(slices.Clone(prefix)); !slices.Equal(got, append(prefix, want...)) {
				t.Fatalf("trial %d step %d: ResidentAppend after a prefix = %v", trial, step, got)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
		}
	}
}

// TestCheckInvariantsCatchesResidencyBitDrift corrupts the bitset directly:
// a bit set for an absent file, a bit cleared for a resident one, and a bit
// past the size table's end must each fail the audit.
func TestCheckInvariantsCatchesResidencyBitDrift(t *testing.T) {
	c := New(100)
	for _, f := range []bundle.FileID{3, 64} {
		if err := c.Insert(f, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	c.resident[0] |= 1 << 5 // file 5 is absent
	if err := c.CheckInvariants(); err == nil {
		t.Error("a residency bit for an absent file passed the audit")
	}
	c.resident[0] &^= 1 << 5
	c.resident[1] &^= 1 // file 64 is resident
	if err := c.CheckInvariants(); err == nil {
		t.Error("a cleared residency bit for a resident file passed the audit")
	}
	c.resident[1] |= 1
	c.resident[len(c.resident)-1] |= 1 << 63 // past the size table's end
	if err := c.CheckInvariants(); err == nil {
		t.Error("a residency bit past the size table passed the audit")
	}
}

func BenchmarkSupports(b *testing.B) {
	c := New(1 << 30)
	for i := 0; i < 1000; i++ {
		c.Insert(bundle.FileID(i), 1<<20)
	}
	q := bundle.New(10, 200, 500, 999)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.Supports(q)
	}
}
