package policy

import (
	"testing"

	"fbcache/internal/bundle"
	"fbcache/internal/core"
)

// *core.OptFileBundle is a Policy without an adapter.
var _ Policy = (*core.OptFileBundle)(nil)

func unit(bundle.FileID) bundle.Size { return 1 }

// TestWrapOptFileBundleIsIdentity pins that WrapOptFileBundle wraps nothing:
// callers that type-assert the concrete policy (the relative-value queue
// scheduler needs it) get it back.
func TestWrapOptFileBundleIsIdentity(t *testing.T) {
	opt := core.New(10, unit, core.DefaultOptions())
	got, ok := WrapOptFileBundle(opt).(*core.OptFileBundle)
	if !ok || got != opt {
		t.Fatalf("WrapOptFileBundle(p) = %T %p, want p itself (%p)", got, got, opt)
	}
}

// The TestAdapter* checks read OptFileBundle's Result through the Policy
// interface: every field a simulator or the SRM layer consumes must arrive
// as the policy wrote it.
func TestAdapterPreservesResultFields(t *testing.T) {
	var p Policy = core.New(4, unit, core.Options{})
	res := p.Admit(bundle.New(1, 2, 3))
	if res.Hit {
		t.Error("cold admit hit")
	}
	if res.BytesRequested != 3 || res.BytesLoaded != 3 || res.FilesLoaded != 3 {
		t.Errorf("res = %+v", res)
	}
	if !res.Loaded.Equal(bundle.New(1, 2, 3)) {
		t.Errorf("Loaded = %v", res.Loaded)
	}
	res = p.Admit(bundle.New(1, 2, 3))
	if !res.Hit || len(res.Loaded) != 0 {
		t.Errorf("hit res = %+v", res)
	}
	// Two new files with one slot free: exactly one resident file goes.
	res = p.Admit(bundle.New(4, 5))
	if res.FilesEvicted != 1 || len(res.Evicted) != 1 || !bundle.New(1, 2, 3).Contains(res.Evicted[0]) {
		t.Errorf("evicting res = %+v", res)
	}
}

func TestAdapterUnserviceable(t *testing.T) {
	var p Policy = core.New(2, unit, core.Options{})
	res := p.Admit(bundle.New(1, 2, 3))
	if !res.Unserviceable {
		t.Errorf("res = %+v", res)
	}
}

func TestAdapterNameAndCache(t *testing.T) {
	var p Policy = core.New(10, unit, core.Options{})
	if p.Name() != "optfilebundle" {
		t.Errorf("Name = %q", p.Name())
	}
	if p.Cache() == nil || p.Cache().Capacity() != 10 {
		t.Error("Cache not exposed")
	}
}

func TestFactoryIsolation(t *testing.T) {
	mk := OptFileBundleFactory(core.Options{})
	a := mk(10, unit)
	b := mk(10, unit)
	a.Admit(bundle.New(1))
	if b.Cache().Len() != 0 {
		t.Error("factory instances share cache state")
	}
}

func TestBypassPassesThroughOversizedFiles(t *testing.T) {
	sizes := map[bundle.FileID]bundle.Size{1: 1, 2: 1, 3: 8} // 3 is huge
	sizeOf := func(f bundle.FileID) bundle.Size { return sizes[f] }
	inner := core.New(10, sizeOf, core.Options{})
	p := NewBypass(inner, sizeOf, 0.5) // files > 5 bypass

	res := p.Admit(bundle.New(1, 2, 3))
	if res.Hit {
		t.Error("pass-through reported hit")
	}
	if res.BytesRequested != 10 || res.BytesLoaded != 10 {
		t.Errorf("res = %+v", res)
	}
	if p.Cache().Contains(3) {
		t.Error("oversized file was cached")
	}
	if !p.Cache().Supports(bundle.New(1, 2)) {
		t.Error("cacheable remainder not cached")
	}
	// Second request: cacheable part hits, oversized re-transfers.
	res = p.Admit(bundle.New(1, 2, 3))
	if res.Hit {
		t.Error("bundle with pass-through file reported hit")
	}
	if res.BytesLoaded != 8 {
		t.Errorf("reload = %d, want only the bypassed 8", res.BytesLoaded)
	}
	// Pure cacheable bundle still hits normally.
	if res := p.Admit(bundle.New(1, 2)); !res.Hit {
		t.Error("cacheable bundle missed")
	}
	if p.Name() != "optfilebundle+bypass" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestBypassProtectsWorkingSet(t *testing.T) {
	// Without bypass, a giant one-off file evicts the hot bundle; with
	// bypass the hot bundle survives.
	sizes := map[bundle.FileID]bundle.Size{1: 2, 2: 2, 9: 9}
	sizeOf := func(f bundle.FileID) bundle.Size { return sizes[f] }

	plain := core.New(10, sizeOf, core.Options{})
	for i := 0; i < 5; i++ {
		plain.Admit(bundle.New(1, 2))
	}
	plain.Admit(bundle.New(9)) // evicts the hot pair (needs 9 of 10)
	if res := plain.Admit(bundle.New(1, 2)); res.Hit {
		t.Skip("inner policy kept the pair anyway; scenario needs tuning")
	}

	guarded := NewBypass(core.New(10, sizeOf, core.Options{}), sizeOf, 0.5)
	for i := 0; i < 5; i++ {
		guarded.Admit(bundle.New(1, 2))
	}
	guarded.Admit(bundle.New(9)) // passes through
	if res := guarded.Admit(bundle.New(1, 2)); !res.Hit {
		t.Error("bypass failed to protect the working set")
	}
}

func TestBypassPanics(t *testing.T) {
	sizeOf := func(bundle.FileID) bundle.Size { return 1 }
	inner := core.New(10, sizeOf, core.Options{})
	for name, fn := range map[string]func(){
		"nil inner": func() { NewBypass(nil, sizeOf, 0.5) },
		"bad frac":  func() { NewBypass(inner, sizeOf, 0) },
		"frac >1":   func() { NewBypass(inner, sizeOf, 1.5) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		})
	}
}
