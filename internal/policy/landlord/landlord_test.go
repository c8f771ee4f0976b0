package landlord

import (
	"math/rand"
	"testing"

	"fbcache/internal/bundle"
)

func unit(bundle.FileID) bundle.Size { return 1 }

func TestColdMissAndHit(t *testing.T) {
	l := New(10, unit)
	res := l.Admit(bundle.New(1, 2, 3))
	if res.Hit || res.BytesLoaded != 3 {
		t.Errorf("cold: %+v", res)
	}
	res = l.Admit(bundle.New(1, 2, 3))
	if !res.Hit || res.BytesLoaded != 0 {
		t.Errorf("hit: %+v", res)
	}
}

func TestCreditsInUnitRange(t *testing.T) {
	// With cost = size, credits are exactly 1 on insert/refresh.
	l := New(10, unit)
	l.Admit(bundle.New(1, 2))
	for _, f := range []bundle.FileID{1, 2} {
		if c := l.Credit(f); c != 1 {
			t.Errorf("Credit(%d) = %v, want 1", f, c)
		}
	}
	if c := l.Credit(9); c != 0 {
		t.Errorf("Credit(absent) = %v", c)
	}
}

func TestDecayEviction(t *testing.T) {
	// Capacity 3 unit files: {1,2,3} resident, admit {4,5}: two victims decay
	// out; the refreshed file survives.
	l := New(3, unit)
	l.Admit(bundle.New(1, 2, 3))
	l.Admit(bundle.New(3)) // refresh 3's credit
	res := l.Admit(bundle.New(4, 5))
	// All three outside files share credit 1 (3 was refreshed back to 1), so
	// one decay round zeroes them all and Landlord evicts every zero-credit
	// file — at least the two needed, possibly all three.
	if res.FilesEvicted < 2 {
		t.Errorf("evicted %d, want >= 2", res.FilesEvicted)
	}
	if !l.Cache().Supports(bundle.New(4, 5)) {
		t.Error("request not serviced")
	}
	// All credits were equal (1), so all of {1,2,3} reached zero together;
	// eviction removes zero-credit files — both 1 and 2 go; 3 was also at
	// zero but was re-credited... actually 3's refresh set it to 1 again and
	// the decay subtracts the same min from every outside file, so 3 ends at
	// 0 too and may be evicted. The guarantee is only that 4,5 fit.
	if err := l.Cache().CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestRecentlyRefreshedSurvives(t *testing.T) {
	// Give file 3 a bigger credit via a non-uniform cost function so decay
	// evicts 1 and 2 first.
	cost := func(f bundle.FileID) float64 {
		if f == 3 {
			return 5
		}
		return 1
	}
	l := NewWithCost(3, unit, cost)
	l.Admit(bundle.New(1, 2, 3))
	res := l.Admit(bundle.New(4, 5))
	if res.FilesEvicted != 2 {
		t.Errorf("evicted %d, want 2", res.FilesEvicted)
	}
	if !l.Cache().Contains(3) {
		t.Errorf("high-cost file evicted; resident = %v", l.Cache().Resident())
	}
}

func TestRequestFilesNeverEvicted(t *testing.T) {
	l := New(3, unit)
	l.Admit(bundle.New(1, 2))
	// Admit {1,2,3}: needs 1 more; victims must come from outside the bundle,
	// but there are none — free space (1) suffices anyway.
	res := l.Admit(bundle.New(1, 2, 3))
	if res.FilesEvicted != 0 {
		t.Errorf("evicted %d from own bundle", res.FilesEvicted)
	}
	if !l.Cache().Supports(bundle.New(1, 2, 3)) {
		t.Error("bundle not resident")
	}
}

func TestUnserviceable(t *testing.T) {
	l := New(2, unit)
	res := l.Admit(bundle.New(1, 2, 3))
	if !res.Unserviceable || l.Cache().Len() != 0 {
		t.Errorf("res=%+v len=%d", res, l.Cache().Len())
	}
}

func TestZeroSizeFileCredit(t *testing.T) {
	sizeOf := func(f bundle.FileID) bundle.Size {
		if f == 1 {
			return 0
		}
		return 1
	}
	l := New(2, sizeOf)
	l.Admit(bundle.New(1, 2))
	if l.Credit(1) != 0 { // cost = size = 0 -> credit 0
		t.Errorf("Credit(zero-size) = %v", l.Credit(1))
	}
	if err := l.Cache().CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestFactoryProducesFreshInstances(t *testing.T) {
	f := Factory()
	a := f(10, unit)
	b := f(10, unit)
	a.Admit(bundle.New(1))
	if b.Cache().Len() != 0 {
		t.Error("factory instances share state")
	}
	if a.Name() != "landlord" {
		t.Errorf("Name = %q", a.Name())
	}
}

func TestNilSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(1, nil)
}

func TestRandomizedInvariantsAndService(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	sizes := make([]bundle.Size, 40)
	for i := range sizes {
		sizes[i] = bundle.Size(1 + rng.Intn(9))
	}
	sizeOf := func(f bundle.FileID) bundle.Size { return sizes[f] }
	l := New(50, sizeOf)
	for step := 0; step < 1000; step++ {
		n := 1 + rng.Intn(4)
		ids := make([]bundle.FileID, n)
		for i := range ids {
			ids[i] = bundle.FileID(rng.Intn(40))
		}
		b := bundle.New(ids...)
		res := l.Admit(b)
		if !res.Unserviceable && !l.Cache().Supports(b) {
			t.Fatalf("step %d: serviced bundle not resident", step)
		}
		if res.Hit && res.BytesLoaded != 0 {
			t.Fatalf("step %d: hit with traffic", step)
		}
		if err := l.Cache().CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		// Credits bounded by max cost/size = max size / size... with cost =
		// size the reset value is exactly 1 and decay only lowers it.
		for _, f := range l.Cache().Resident() {
			if c := l.Credit(f); c < -1e-9 || c > 1+1e-9 {
				t.Fatalf("step %d: credit(%d) = %v outside [0,1]", step, f, c)
			}
		}
	}
}
