package replicate

import (
	"testing"

	"fbcache/internal/bundle"
	"fbcache/internal/grid"
	"fbcache/internal/history"
	"fbcache/internal/mss"
)

// benchGrid builds a 2-site topology with n files on the remote site,
// mirroring testGrid without the *testing.T plumbing.
func benchGrid(b *testing.B, n int) (*grid.Topology, *grid.Replicas) {
	b.Helper()
	topo, err := grid.NewTopology("local", mss.Config{
		Name: "disk", LatencySec: 0.1, BandwidthBps: 200e6, Channels: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	remote, err := topo.AddSite("remote", mss.Config{
		Name: "tape", LatencySec: 10, BandwidthBps: 50e6, Channels: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := topo.Connect(topo.Local(), remote, grid.Link{LatencySec: 1, BandwidthBps: 20e6}); err != nil {
		b.Fatal(err)
	}
	reps := grid.NewReplicas()
	for f := 0; f < n; f++ {
		reps.Add(bundle.FileID(f), remote)
	}
	return topo, reps
}

// BenchmarkPlan exercises the one-shot static planner over a 1000-file
// history with a budget admitting roughly half the candidates.
func BenchmarkPlan(b *testing.B) {
	const n = 1000
	topo, reps := benchGrid(b, n)
	h := history.New(history.Config{})
	for f := 0; f < n; f++ {
		h.Observe(bundle.New(bundle.FileID(f), bundle.FileID((f+1)%n)))
	}
	sizeOf := sizeConst(bundle.MB)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Plan(h, topo, reps, sizeOf, n/2*bundle.MB); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictorObserve measures the per-arrival cost of folding a
// 4-file bundle into the decayed heat table.
func BenchmarkPredictorObserve(b *testing.B) {
	p := NewPredictor(PredictorConfig{HalfLifeSec: 100})
	bun := bundle.New(1, 2, 3, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Observe(float64(i)*0.1, bun, 1)
	}
}

// BenchmarkReplan measures planner epochs over 1000 hot files.
//
// /fresh builds a new planner each iteration and resets the catalog, so
// every epoch does full work: snapshot, retirement scan, candidate
// ranking, greedy fill and catalog commit.
//
// /steady reuses one planner across epochs, as the simulator does: a few
// files warm up between epochs while the rest cool, so each epoch retires
// and plants a handful of replicas with the budget nearly full. The
// observations between epochs are part of the timed loop (they are a few
// hundred ns against an epoch's tens of µs).
//
// /full is the epoch shape sim-grid runs almost every time: no
// retirement, the budget already spent, and a dark site holding every
// tenth file alone, so the epoch can plant nothing and only reports those
// files as unreachable.
func BenchmarkReplan(b *testing.B) {
	const n = 1000
	sizeOf := sizeConst(bundle.MB)
	b.Run("fresh", func(b *testing.B) {
		topo, reps := benchGrid(b, n)
		pred := NewPredictor(PredictorConfig{HalfLifeSec: 500})
		for f := 0; f < n; f++ {
			pred.Observe(0, bundle.New(bundle.FileID(f)), float64(1+f%7))
		}
		local := topo.Local()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pl, err := NewPlanner(topo, reps, sizeOf, pred, PlannerConfig{
				Budget: n / 2 * bundle.MB, RetireBelow: 0.01, RiskHorizonSec: 10,
			})
			if err != nil {
				b.Fatal(err)
			}
			ep := pl.Replan(1, nil)
			b.StopTimer()
			for _, a := range ep.Actions {
				reps.Remove(a.File, local)
			}
			b.StartTimer()
		}
	})
	b.Run("steady", func(b *testing.B) {
		topo, reps := benchGrid(b, n)
		pred := NewPredictor(PredictorConfig{HalfLifeSec: 500})
		for f := 0; f < n; f++ {
			pred.Observe(0, bundle.New(bundle.FileID(f)), float64(1+f%7))
		}
		pl, err := NewPlanner(topo, reps, sizeOf, pred, PlannerConfig{
			Budget: n / 5 * bundle.MB, RetireBelow: 0.5, RiskHorizonSec: 10,
		})
		if err != nil {
			b.Fatal(err)
		}
		// drift warms the next four files of a rotating hot spot.
		const epochSec = 40
		now, hot := 0.0, 0
		drift := func() {
			now += epochSec
			for k := 0; k < 4; k++ {
				hot = (hot + 37) % n
				pred.Observe(now, bundle.New(bundle.FileID(hot)), 8)
			}
		}
		// Warm up until the budget has filled and retirement has started.
		for i := 0; i < 100; i++ {
			drift()
			pl.Replan(now, nil)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			drift()
			pl.Replan(now, nil)
		}
	})
	b.Run("full", func(b *testing.B) {
		topo, reps := benchGrid(b, n)
		dark, err := topo.AddSite("dark", mss.Config{
			Name: "tape", LatencySec: 10, BandwidthBps: 50e6, Channels: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := topo.Connect(topo.Local(), dark, grid.Link{LatencySec: 1, BandwidthBps: 20e6}); err != nil {
			b.Fatal(err)
		}
		for f := bundle.FileID(0); f < n; f += 10 {
			reps.Remove(f, 1)
			reps.Add(f, dark)
		}
		avail := &fuzzAvail{down: []bool{false, false, true}, risky: []bool{false, false, true}}
		pred := NewPredictor(PredictorConfig{HalfLifeSec: 500})
		for f := 0; f < n; f++ {
			pred.Observe(0, bundle.New(bundle.FileID(f)), float64(1+f%7))
		}
		pl, err := NewPlanner(topo, reps, sizeOf, pred, PlannerConfig{
			Budget: n / 5 * bundle.MB, RiskHorizonSec: 10,
		})
		if err != nil {
			b.Fatal(err)
		}
		// The first epoch spends the whole budget.
		if ep := pl.Replan(0, avail); pl.PlantedBytes() != n/5*bundle.MB || len(ep.Unreachable) == 0 {
			b.Fatalf("warm-up epoch planted %v bytes, %d unreachable", pl.PlantedBytes(), len(ep.Unreachable))
		}
		const epochSec = 40
		now, hot := 0.0, 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			now += epochSec
			for k := 0; k < 4; k++ {
				hot = (hot + 37) % n
				pred.Observe(now, bundle.New(bundle.FileID(hot)), 8)
			}
			pl.Replan(now, avail)
		}
	})
}
