package simulate

import (
	"testing"

	"fbcache/internal/bundle"
	"fbcache/internal/grid"
	"fbcache/internal/mss"
	"fbcache/internal/workload"
)

// buildGrid creates a two-site grid: a fast local disk archive and a slow
// remote tape archive across a WAN, and registers replicas per the split
// function (true -> local replica exists, false -> remote only).
func buildGrid(t testing.TB, w *workload.Workload, localReplica func(f bundle.FileID) bool) *GridConfig {
	t.Helper()
	topo, err := grid.NewTopology("local", mss.Config{
		Name: "local-disk", LatencySec: 0.2, BandwidthBps: 200e6, Channels: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	remote, err := topo.AddSite("remote", mss.Config{
		Name: "remote-tape", LatencySec: 8, BandwidthBps: 60e6, Channels: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.Connect(topo.Local(), remote, grid.Link{LatencySec: 0.5, BandwidthBps: 30e6}); err != nil {
		t.Fatal(err)
	}
	reps := grid.NewReplicas()
	for _, f := range w.Catalog.Files() {
		reps.Add(f.ID, remote) // the archive of record holds everything
		if localReplica(f.ID) {
			reps.Add(f.ID, topo.Local())
		}
	}
	return &GridConfig{Topology: topo, Replicas: reps}
}

func TestRunEventsGridBasics(t *testing.T) {
	w := smallWorkload(t, workload.Zipf, 300)
	p := optFactory()(w.Spec.CacheSize, w.Catalog.SizeFunc())
	cfg := buildGrid(t, w, func(f bundle.FileID) bool { return f%2 == 0 })
	st, err := RunEvents(w, p, EventOptions{ArrivalRate: 2, Grid: cfg, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.Jobs != 300 {
		t.Errorf("jobs = %d", st.Jobs)
	}
	if st.MeanResponse <= 0 || st.Throughput <= 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRunEventsGridLocalReplicasHelp(t *testing.T) {
	// Identical workload and policy; the grid with full local replication
	// must deliver clearly faster responses than the remote-only grid.
	w := smallWorkload(t, workload.Zipf, 400)
	run := func(local func(bundle.FileID) bool) EventStats {
		p := optFactory()(w.Spec.CacheSize, w.Catalog.SizeFunc())
		st, err := RunEvents(w, p, EventOptions{
			ArrivalRate: 1, Grid: buildGrid(t, w, local), Seed: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	allLocal := run(func(bundle.FileID) bool { return true })
	remoteOnly := run(func(bundle.FileID) bool { return false })
	t.Logf("mean response: all-local=%.1fs remote-only=%.1fs", allLocal.MeanResponse, remoteOnly.MeanResponse)
	if allLocal.MeanResponse >= remoteOnly.MeanResponse {
		t.Errorf("local replicas did not help: %.1f vs %.1f", allLocal.MeanResponse, remoteOnly.MeanResponse)
	}
	// Note: byte miss ratios can legitimately differ slightly — staging
	// speed changes slot contention and therefore the order in which jobs
	// reach the policy. Only the response-time ordering is asserted.
}

func TestRunEventsGridMissingReplicaFails(t *testing.T) {
	w := smallWorkload(t, workload.Uniform, 50)
	p := optFactory()(w.Spec.CacheSize, w.Catalog.SizeFunc())
	topo, err := grid.NewTopology("local", mss.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := &GridConfig{Topology: topo, Replicas: grid.NewReplicas()} // empty catalog
	if _, err := RunEvents(w, p, EventOptions{ArrivalRate: 1, Grid: cfg, Seed: 1}); err == nil {
		t.Error("missing replicas accepted")
	}
}

func TestRunEventsGridValidation(t *testing.T) {
	w := smallWorkload(t, workload.Uniform, 10)
	p := optFactory()(w.Spec.CacheSize, w.Catalog.SizeFunc())
	if _, err := RunEvents(w, p, EventOptions{ArrivalRate: 1, Grid: &GridConfig{}}); err == nil {
		t.Error("empty GridConfig accepted")
	}
}
