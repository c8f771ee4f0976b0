package fbcache

import (
	"bytes"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	cat := NewCatalog()
	energy := cat.Add("evt-energy", 2*GB)
	momentum := cat.Add("evt-momentum", 1*GB)
	particles := cat.Add("evt-particles", 3*GB)

	cache := NewCache(4*GB, cat.SizeFunc())
	res := cache.Admit(NewBundle(energy, momentum))
	if res.Hit || res.BytesLoaded != 3*GB {
		t.Errorf("cold admit: %+v", res)
	}
	if res = cache.Admit(NewBundle(momentum, energy)); !res.Hit {
		t.Error("repeat not a hit")
	}
	// particles+energy (5GB) exceeds... 3+2 = 5 > 4GB capacity: unserviceable.
	if res = cache.Admit(NewBundle(particles, energy)); !res.Unserviceable {
		t.Errorf("oversized bundle: %+v", res)
	}
	// particles alone forces replacement.
	if res = cache.Admit(NewBundle(particles)); res.BytesLoaded != 3*GB {
		t.Errorf("replacement admit: %+v", res)
	}
	if err := cache.Cache().CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestAllConstructorsProduceWorkingPolicies(t *testing.T) {
	cat := NewCatalog()
	var ids []FileID
	for i := 0; i < 8; i++ {
		ids = append(ids, cat.AddAnonymous(MB))
	}
	policies := []Policy{
		NewCache(4*MB, cat.SizeFunc()),
		NewCache(4*MB, cat.SizeFunc(), WithHistoryWindow(16)),
		NewCache(4*MB, cat.SizeFunc(), WithFullHistory()),
		NewCache(4*MB, cat.SizeFunc(), WithPrefetch(), WithLiteralEviction()),
		NewCache(4*MB, cat.SizeFunc(), WithSeededSelection(2)),
		NewCache(4*MB, cat.SizeFunc(), WithCacheResidentHistory()),
		NewLandlord(4*MB, cat.SizeFunc()),
		NewLRU(4*MB, cat.SizeFunc()),
		NewLFU(4*MB, cat.SizeFunc()),
		NewGDSF(4*MB, cat.SizeFunc()),
		NewFIFO(4*MB, cat.SizeFunc()),
		NewMRU(4*MB, cat.SizeFunc()),
		NewRandom(4*MB, cat.SizeFunc(), 1),
	}
	seen := map[string]bool{}
	for _, p := range policies {
		for step := 0; step < 40; step++ {
			b := NewBundle(ids[step%8], ids[(step*3+1)%8])
			res := p.Admit(b)
			if !res.Unserviceable && !p.Cache().Supports(b) {
				t.Fatalf("%s: admitted bundle not resident", p.Name())
			}
		}
		if err := p.Cache().CheckInvariants(); err != nil {
			t.Errorf("%s: %v", p.Name(), err)
		}
		seen[p.Name()] = true
	}
	if len(seen) < 9 {
		t.Errorf("names not distinctive enough: %v", seen)
	}
}

func TestSeededSelectionClamps(t *testing.T) {
	cat := NewCatalog()
	cat.AddAnonymous(MB)
	// k=0 clamps to 1; k=5 clamps to 2; both must build working policies.
	for _, k := range []int{0, 5} {
		p := NewCache(4*MB, cat.SizeFunc(), WithSeededSelection(k))
		p.Admit(NewBundle(0))
	}
}

func TestWorkloadSimFacade(t *testing.T) {
	spec := DefaultWorkloadSpec()
	spec.Jobs = 300
	spec.NumFiles = 60
	spec.NumRequests = 40
	spec.CacheSize = 1 * GB
	w, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	p := NewCache(spec.CacheSize, w.Catalog.SizeFunc())
	col, err := Run(w, p, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if col.Jobs() != 300 {
		t.Errorf("jobs = %d", col.Jobs())
	}

	// Trace round trip through the facade.
	var buf bytes.Buffer
	if err := WriteTraceJSON(&buf, w); err != nil {
		t.Fatal(err)
	}
	w2, err := ReadTraceJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(w2.Jobs) != len(w.Jobs) {
		t.Errorf("trace jobs = %d", len(w2.Jobs))
	}

	// Timed run.
	st, err := RunEvents(w, NewCache(spec.CacheSize, w.Catalog.SizeFunc()), EventOptions{
		ArrivalRate: 10,
		MSS:         DefaultMSSConfig(),
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Jobs != 300 {
		t.Errorf("event jobs = %d", st.Jobs)
	}
}

func TestQueuedFacade(t *testing.T) {
	spec := DefaultWorkloadSpec()
	spec.Jobs = 200
	spec.NumFiles = 60
	spec.NumRequests = 40
	spec.CacheSize = 1 * GB
	spec.Popularity = Zipf
	w, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	opt := NewOptFileBundle(spec.CacheSize, w.Catalog.SizeFunc())
	col, err := Run(w, opt, SimOptions{
		QueueLength: 10,
		Scheduler:   ScoreScheduler("relative-value", opt.RelativeValue),
	})
	if err != nil {
		t.Fatal(err)
	}
	if col.Jobs() != 200 {
		t.Errorf("jobs = %d", col.Jobs())
	}
	_ = FCFSScheduler().Name()
}

func TestSRMFacade(t *testing.T) {
	cat := NewCatalog()
	cat.Add("a", MB)
	cat.Add("b", MB)
	s := NewSRM(NewCache(4*MB, cat.SizeFunc()), cat)
	srv, err := ServeSRM(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Shutdown(0) }()
	c, err := DialSRM(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	token, _, loaded, err := c.Stage("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 2*MB {
		t.Errorf("loaded = %v", loaded)
	}
	if err := c.Release(token); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Jobs != 1 {
		t.Errorf("snapshot = %+v", snap)
	}
}

func TestExperimentFacade(t *testing.T) {
	cfg := DefaultExperimentConfig()
	if cfg.Jobs <= 0 {
		t.Error("default experiment config empty")
	}
	var tab *ResultTable // the alias must be usable
	_ = tab
}
