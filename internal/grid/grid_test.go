package grid

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"fbcache/internal/bundle"
	"fbcache/internal/mss"
)

func fastMSS(name string) mss.Config {
	return mss.Config{Name: name, LatencySec: 1, BandwidthBps: 100, Channels: 1}
}

func buildTopo(t *testing.T) (*Topology, SiteID, SiteID) {
	t.Helper()
	topo, err := NewTopology("lbl", fastMSS("local"))
	if err != nil {
		t.Fatal(err)
	}
	cern, err := topo.AddSite("cern", mss.Config{Name: "cern", LatencySec: 5, BandwidthBps: 100, Channels: 2})
	if err != nil {
		t.Fatal(err)
	}
	slac, err := topo.AddSite("slac", fastMSS("slac"))
	if err != nil {
		t.Fatal(err)
	}
	// lbl <-> cern: slow WAN; lbl <-> slac: none (unreachable).
	if err := topo.Connect(topo.Local(), cern, Link{LatencySec: 2, BandwidthBps: 50}); err != nil {
		t.Fatal(err)
	}
	return topo, cern, slac
}

func TestTransferCosts(t *testing.T) {
	topo, cern, slac := buildTopo(t)
	// Local: 1 + 100/100 = 2.
	if got := topo.TransferSeconds(topo.Local(), 100); math.Abs(got-2) > 1e-12 {
		t.Errorf("local = %v, want 2", got)
	}
	// CERN: MSS 5 + 100/100 = 6, WAN 2 + 100/50 = 4 -> 10.
	if got := topo.TransferSeconds(cern, 100); math.Abs(got-10) > 1e-12 {
		t.Errorf("cern = %v, want 10", got)
	}
	// SLAC: no link -> +Inf.
	if got := topo.TransferSeconds(slac, 100); !math.IsInf(got, 1) {
		t.Errorf("slac = %v, want +Inf", got)
	}
	// Unknown site -> +Inf.
	if got := topo.TransferSeconds(99, 100); !math.IsInf(got, 1) {
		t.Errorf("unknown = %v, want +Inf", got)
	}
}

func TestTopologyValidation(t *testing.T) {
	topo, cern, _ := buildTopo(t)
	if err := topo.Connect(cern, cern, Link{LatencySec: 1, BandwidthBps: 1}); err == nil {
		t.Error("self-link accepted")
	}
	if err := topo.Connect(0, 99, Link{LatencySec: 1, BandwidthBps: 1}); err == nil {
		t.Error("unknown site accepted")
	}
	if err := topo.Connect(0, cern, Link{LatencySec: -1, BandwidthBps: 1}); err == nil {
		t.Error("negative latency accepted")
	}
	if err := topo.Connect(0, cern, Link{LatencySec: 0, BandwidthBps: 0}); err == nil {
		t.Error("zero bandwidth accepted")
	}
	if _, err := topo.AddSite("bad", mss.Config{}); err == nil {
		t.Error("invalid MSS accepted")
	}
	if _, err := NewTopology("bad", mss.Config{}); err == nil {
		t.Error("invalid local MSS accepted")
	}
	if _, err := topo.Site(99); err == nil {
		t.Error("unknown Site accepted")
	}
	if s, err := topo.Site(cern); err != nil || s.Name != "cern" {
		t.Errorf("Site(cern) = %+v, %v", s, err)
	}
	if topo.NumSites() != 3 {
		t.Errorf("NumSites = %d", topo.NumSites())
	}
}

func TestReplicaSelection(t *testing.T) {
	topo, cern, slac := buildTopo(t)
	reps := NewReplicas()
	f := bundle.FileID(7)
	// No replicas yet.
	if _, _, ok := reps.BestSource(topo, f, 100); ok {
		t.Error("BestSource found phantom replica")
	}
	reps.Add(f, cern)
	site, cost, ok := reps.BestSource(topo, f, 100)
	if !ok || site != cern || math.Abs(cost-10) > 1e-12 {
		t.Errorf("BestSource = %v %v %v", site, cost, ok)
	}
	// A local replica beats CERN.
	reps.Add(f, topo.Local())
	site, cost, ok = reps.BestSource(topo, f, 100)
	if !ok || site != topo.Local() || math.Abs(cost-2) > 1e-12 {
		t.Errorf("BestSource with local = %v %v %v", site, cost, ok)
	}
	// Idempotent Add.
	reps.Add(f, cern)
	if got := len(reps.Sites(f)); got != 2 {
		t.Errorf("Sites = %d, want 2", got)
	}
	// Unreachable-only replica: not ok.
	g := bundle.FileID(8)
	reps.Add(g, slac)
	if _, _, ok := reps.BestSource(topo, g, 100); ok {
		t.Error("unreachable replica returned ok")
	}
}

// TestSitesReturnsCopy is the regression test for the catalog-aliasing bug:
// Sites used to hand out its internal slice, so a caller could rewrite the
// replica locations in place.
func TestSitesReturnsCopy(t *testing.T) {
	topo, cern, slac := buildTopo(t)
	reps := NewReplicas()
	f := bundle.FileID(3)
	reps.Add(f, cern)
	reps.Add(f, slac)

	got := reps.Sites(f)
	if len(got) != 2 {
		t.Fatalf("Sites = %v", got)
	}
	got[0], got[1] = 99, 99 // attempt to corrupt the catalog through the return

	if again := reps.Sites(f); again[0] != cern || again[1] != slac {
		t.Fatalf("catalog mutated through Sites' return value: %v", again)
	}
	if _, _, ok := reps.BestSource(topo, f, 100); !ok {
		t.Fatal("BestSource broken after caller scribbled on Sites' return")
	}
	if reps.Sites(bundle.FileID(404)) != nil {
		t.Error("unknown file should return nil")
	}
}

func TestRankedSources(t *testing.T) {
	topo, cern, slac := buildTopo(t)
	reps := NewReplicas()
	f := bundle.FileID(7)
	// Register in cost-descending order to prove sorting happens: cern (10),
	// local (2); slac is unreachable and must be omitted.
	reps.Add(f, cern)
	reps.Add(f, slac)
	reps.Add(f, topo.Local())

	ranked := reps.RankedSources(topo, f, 100)
	if len(ranked) != 2 {
		t.Fatalf("RankedSources = %v, want 2 reachable sources", ranked)
	}
	if ranked[0].Site != topo.Local() || math.Abs(ranked[0].Cost-2) > 1e-12 {
		t.Errorf("cheapest = %+v, want local @2", ranked[0])
	}
	if ranked[1].Site != cern || math.Abs(ranked[1].Cost-10) > 1e-12 {
		t.Errorf("second = %+v, want cern @10", ranked[1])
	}

	// The first ranked source and BestSource must always agree (failover
	// starts exactly where the fault-free path would have fetched).
	site, cost, ok := reps.BestSource(topo, f, 100)
	if !ok || site != ranked[0].Site || cost != ranked[0].Cost {
		t.Errorf("BestSource %v@%v disagrees with RankedSources[0] %+v", site, cost, ranked[0])
	}

	if got := reps.RankedSources(topo, bundle.FileID(404), 100); len(got) != 0 {
		t.Errorf("unknown file ranked = %v", got)
	}
}

// TestRankedSourcesTieOrder pins the tie-break: equal-cost replicas keep
// registration order, which is what makes the fault path bit-compatible
// with the old BestSource scan.
func TestRankedSourcesTieOrder(t *testing.T) {
	topo, err := NewTopology("lbl", fastMSS("local"))
	if err != nil {
		t.Fatal(err)
	}
	var twins []SiteID
	for _, name := range []string{"a", "b"} {
		id, err := topo.AddSite(name, fastMSS(name))
		if err != nil {
			t.Fatal(err)
		}
		if err := topo.Connect(topo.Local(), id, Link{LatencySec: 1, BandwidthBps: 100}); err != nil {
			t.Fatal(err)
		}
		twins = append(twins, id)
	}
	reps := NewReplicas()
	f := bundle.FileID(1)
	reps.Add(f, twins[1]) // register b first
	reps.Add(f, twins[0])
	ranked := reps.RankedSources(topo, f, 100)
	if len(ranked) != 2 || ranked[0].Site != twins[1] {
		t.Errorf("tie-break lost registration order: %+v", ranked)
	}
}

func TestStageBundleCost(t *testing.T) {
	topo, cern, _ := buildTopo(t)
	reps := NewReplicas()
	sizeOf := func(bundle.FileID) bundle.Size { return 100 }
	reps.Add(1, topo.Local()) // cost 2
	reps.Add(2, cern)         // cost 10
	total, bottleneck, err := reps.StageBundleCost(topo, bundle.New(1, 2), sizeOf)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(total-12) > 1e-12 || math.Abs(bottleneck-10) > 1e-12 {
		t.Errorf("total=%v bottleneck=%v", total, bottleneck)
	}
	// Missing replica -> error.
	if _, _, err := reps.StageBundleCost(topo, bundle.New(1, 3), sizeOf); err == nil {
		t.Error("missing replica accepted")
	}
}

// rankedStable is the sort.SliceStable ranking AppendRankedSources must
// reproduce.
func rankedStable(r *Replicas, t *Topology, f bundle.FileID, size bundle.Size) []Source {
	var out []Source
	for _, s := range r.Sites(f) {
		if c := t.TransferSeconds(s, size); !math.IsInf(c, 1) {
			out = append(out, Source{Site: s, Cost: c})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cost < out[j].Cost })
	return out
}

// rankingTopo builds a local site plus n remote sites whose costs repeat
// every three sites (so ties are common); every fifth site has no link.
func rankingTopo(t *testing.T, n int) *Topology {
	t.Helper()
	topo, err := NewTopology("lbl", fastMSS("local"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		id, err := topo.AddSite("s", mss.Config{Name: "s", LatencySec: float64(1 + i%3), BandwidthBps: 100, Channels: 1})
		if err != nil {
			t.Fatal(err)
		}
		if i%5 == 4 {
			continue
		}
		if err := topo.Connect(topo.Local(), id, Link{LatencySec: 1, BandwidthBps: 100}); err != nil {
			t.Fatal(err)
		}
	}
	return topo
}

func TestAppendRankedSourcesMatchesSliceStable(t *testing.T) {
	const n = 25 // past SliceStable's 20-element insertion-sort blocks
	topo := rankingTopo(t, n)
	check := func(name string, reps *Replicas, f bundle.FileID, prefix []Source) {
		t.Helper()
		dst := append(make([]Source, 0, len(prefix)+n), prefix...)
		got := reps.AppendRankedSources(dst, topo, f, 100)
		if !slices.Equal(got[:len(prefix)], prefix) {
			t.Errorf("%s: prefix changed to %v", name, got[:len(prefix)])
		}
		if want := rankedStable(reps, topo, f, 100); !slices.Equal(got[len(prefix):], want) {
			t.Errorf("%s: ranked %v, SliceStable %v", name, got[len(prefix):], want)
		}
	}

	// Cost ties keep registration order: sites 7, 4 and 1 share a cost and
	// are registered out of ID order, around the costlier site 2.
	reps := NewReplicas()
	for _, s := range []SiteID{7, 2, 4, 1} {
		reps.Add(1, s)
	}
	check("ties", reps, 1, nil)
	if got := reps.AppendRankedSources(nil, topo, 1, 100); got[0].Site != 7 || got[1].Site != 4 || got[2].Site != 1 {
		t.Errorf("ties lost registration order: %v", got)
	}

	// Unreachable (+Inf) sites are omitted: 5 and 10 have no link.
	reps.Add(2, 5)
	reps.Add(2, 10)
	if got := reps.AppendRankedSources(nil, topo, 2, 100); got != nil {
		t.Errorf("only unreachable replicas ranked %v, want nil", got)
	}
	reps.Add(2, 3)
	check("unreachable", reps, 2, nil)

	// A non-empty dst prefix, costlier than anything appended, stays put.
	check("prefix", reps, 1, []Source{{Site: 99, Cost: 1e9}, {Site: 98, Cost: 1e8}})

	// Random registration orders over up to 25 sites, with the local site.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		reps := NewReplicas()
		f := bundle.FileID(trial)
		for _, i := range rng.Perm(n)[:1+rng.Intn(n)] {
			reps.Add(f, SiteID(1+i))
		}
		if trial%2 == 0 {
			reps.Add(f, topo.Local())
		}
		check("random", reps, f, nil)
		if got, want := reps.RankedSources(topo, f, 100), rankedStable(reps, topo, f, 100); !reflect.DeepEqual(got, want) {
			t.Errorf("RankedSources %v, SliceStable %v", got, want)
		}
	}
}

func TestHasAndNumSitesOf(t *testing.T) {
	reps := NewReplicas()
	f := bundle.FileID(4)
	if reps.Has(f, 0) || reps.NumSitesOf(f) != 0 {
		t.Fatal("empty catalog reports a replica")
	}
	reps.Add(f, 0)
	reps.Add(f, 2)
	reps.Add(f, 2) // idempotent
	if !reps.Has(f, 0) || !reps.Has(f, 2) || reps.Has(f, 1) || reps.Has(5, 0) {
		t.Error("Has disagrees with the registrations")
	}
	if n := reps.NumSitesOf(f); n != 2 {
		t.Errorf("NumSitesOf = %d, want 2", n)
	}
	reps.Remove(f, 0)
	if reps.Has(f, 0) || !reps.Has(f, 2) || reps.NumSitesOf(f) != 1 {
		t.Errorf("after removing site 0: Has(0)=%v Has(2)=%v n=%d", reps.Has(f, 0), reps.Has(f, 2), reps.NumSitesOf(f))
	}
	// The last replica leaving takes the file out of the catalog.
	reps.Remove(f, 2)
	if reps.Has(f, 2) || reps.NumSitesOf(f) != 0 || reps.Sites(f) != nil {
		t.Errorf("file still catalogued after its last replica left: %v", reps.Sites(f))
	}
}
