package replicate

import (
	"reflect"
	"testing"

	"fbcache/internal/bundle"
	"fbcache/internal/grid"
	"fbcache/internal/history"
	"fbcache/internal/mss"
)

// fuzzBytes hands out input bytes one at a time, zeros once exhausted.
type fuzzBytes struct {
	data []byte
	i    int
}

func (r *fuzzBytes) next() byte {
	if r.i >= len(r.data) {
		return 0
	}
	b := r.data[r.i]
	r.i++
	return b
}

func (r *fuzzBytes) pick(n int) int { return int(r.next()) % n }

func (r *fuzzBytes) done() bool { return r.i >= len(r.data) }

// fuzzAvail is a mutable per-site availability schedule.
type fuzzAvail struct{ down, risky []bool }

func (a *fuzzAvail) Up(site int, at float64) bool { return !a.down[site] }
func (a *fuzzAvail) DownWithin(site int, from, horizon float64) bool {
	return a.down[site] || a.risky[site]
}

// fuzzAssoc links each file to its two ring successors with per-file
// confidences.
type fuzzAssoc struct{ conf []float64 }

func (a fuzzAssoc) pair(f bundle.FileID) ([2]bundle.FileID, [2]float64) {
	n := bundle.FileID(len(a.conf))
	c := a.conf[f%n]
	return [2]bundle.FileID{(f + 1) % n, (f + 3) % n}, [2]float64{c, c / 2}
}

func (a fuzzAssoc) Related(f bundle.FileID, k int, minConfidence float64) []bundle.FileID {
	gs, cs := a.pair(f)
	var out []bundle.FileID
	for i := range gs {
		if len(out) < k && cs[i] >= minConfidence {
			out = append(out, gs[i])
		}
	}
	return out
}

func (a fuzzAssoc) Confidence(f, g bundle.FileID) float64 {
	gs, cs := a.pair(f)
	for i := range gs {
		if gs[i] == g {
			return cs[i]
		}
	}
	return 0
}

// FuzzReplanMatchesReference drives the dense-table Predictor, Planner and
// Plan and their map-and-sort references (replan_reference_test.go)
// through one random stream of observations (with and without an
// association model), clock advances, availability and risk changes,
// catalog churn, static plans and epochs, over multi-site
// catalogs with cost ties, unreachable sites and zero-size files. Every
// epoch and plan must be deep-equal, and so must the two replica catalogs.
func FuzzReplanMatchesReference(f *testing.F) {
	f.Add([]byte("\x08\x02\x00\x01\x02\x03\x04\x05\x06\x07\x11\x13\x15\x17\x09\x0b\x01\x05\x01\x02\x01\x00\x03\x00\x02\x03\x00\x01\x06\x02\x03"))
	f.Add([]byte("\x17\x03\x01\x02\x00\x11\x22\x33\x44\x55\x66\x77\x88\x99\xaa\xbb\xcc\xdd\xee\xff\x01\x01\x03\x07\x01\x00\x05\x09\x02\x02\x03\x05\x01\x01\x03\x04\x02\x07\x03"))
	f.Add([]byte("0123456789abcdefghijklmnopqrstuvwxyz0123456789abcdefghijklmnopqrstuvwxyz"))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fuzzBytes{data: data}
		nFiles := 1 + in.pick(24)
		nRemote := 1 + in.pick(3)

		topo, err := grid.NewTopology("local", mss.Config{
			Name: "disk", LatencySec: 0.1, BandwidthBps: 200e6, Channels: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < nRemote; s++ {
			// Few distinct configurations, so equal-cost sites are common;
			// the 0.05 s one is cheaper than local for small files.
			id, err := topo.AddSite("remote", mss.Config{
				Name: "tape", LatencySec: []float64{0.05, 5, 10}[in.pick(3)],
				BandwidthBps: []float64{20e6, 50e6}[in.pick(2)], Channels: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			if in.pick(5) == 0 {
				continue // no link: the site's replicas are unreachable
			}
			link := grid.Link{LatencySec: float64(in.pick(2)), BandwidthBps: 20e6}
			if err := topo.Connect(topo.Local(), id, link); err != nil {
				t.Fatal(err)
			}
		}

		sizes := make([]bundle.Size, nFiles)
		for i := range sizes {
			sizes[i] = []bundle.Size{0, bundle.MB, 2 * bundle.MB, 3 * bundle.MB, 5 * bundle.MB}[in.pick(5)]
		}
		sizeOf := func(f bundle.FileID) bundle.Size { return sizes[f] }

		// Both catalogs receive the same registrations in the same order.
		reps, refReps := grid.NewReplicas(), grid.NewReplicas()
		add := func(f bundle.FileID, s grid.SiteID) { reps.Add(f, s); refReps.Add(f, s) }
		remove := func(f bundle.FileID, s grid.SiteID) {
			if reps.Remove(f, s) != refReps.Remove(f, s) {
				t.Fatalf("Remove(%d, %d) disagrees", f, s)
			}
		}
		for f := 0; f < nFiles; f++ {
			mask := in.next()
			rot := int(mask >> 4)
			for k := 0; k < nRemote; k++ {
				if mask&(1<<k) != 0 {
					add(bundle.FileID(f), grid.SiteID(1+(k+rot)%nRemote))
				}
			}
			if mask&8 != 0 {
				add(bundle.FileID(f), topo.Local()) // an original local copy
			}
		}

		pcfg := PredictorConfig{HalfLifeSec: []float64{10, 50, 300}[in.pick(3)]}
		if in.pick(2) == 1 {
			conf := make([]float64, nFiles)
			for i := range conf {
				conf[i] = float64(in.pick(5)) / 4
			}
			pcfg.Assoc = fuzzAssoc{conf: conf}
		}
		cfg := PlannerConfig{
			Budget:         bundle.Size(in.pick(9)) * bundle.MB,
			RetireBelow:    []float64{0, 0.05, 0.3}[in.pick(3)],
			RiskHorizonSec: []float64{0, 30}[in.pick(2)],
		}
		pred, refPred := NewPredictor(pcfg), newPredictorReference(pcfg)
		pl, err := NewPlanner(topo, reps, sizeOf, pred, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := newPlannerReference(topo, refReps, sizeOf, refPred, cfg)
		hist := history.New(history.Config{})

		fa := &fuzzAvail{down: make([]bool, nRemote+1), risky: make([]bool, nRemote+1)}
		var avail Availability
		if in.pick(4) != 0 {
			avail = fa
		}

		now := 0.0
		check := func(what string) {
			t.Helper()
			for f := 0; f < nFiles; f++ {
				if got, want := reps.Sites(bundle.FileID(f)), refReps.Sites(bundle.FileID(f)); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s at %v: catalog of file %d = %v, reference %v", what, now, f, got, want)
				}
			}
			if pl.PlantedBytes() != ref.used {
				t.Fatalf("%s at %v: planted %v, reference %v", what, now, pl.PlantedBytes(), ref.used)
			}
			if got, want := pred.Snapshot(now), refPred.Snapshot(now); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s at %v: snapshot\n got %v\nwant %v", what, now, got, want)
			}
		}
		replan := func() {
			t.Helper()
			got, want := pl.Replan(now, avail), ref.Replan(now, avail)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("epoch at %v diverged\n got %+v\nwant %+v", now, got, want)
			}
			check("replan")
		}

		for !in.done() {
			switch in.pick(8) {
			case 0, 1:
				files := make([]bundle.FileID, 1+in.pick(3))
				for i := range files {
					files[i] = bundle.FileID(in.pick(nFiles))
				}
				b := bundle.New(files...)
				v := float64(in.pick(4)) / 2 // zero-value observations included
				pred.Observe(now, b, v)
				refPred.Observe(now, b, v)
				for range 1 + int(v) { // one or two requests
					hist.Observe(b)
				}
			case 2, 4:
				now += float64(in.pick(64))
			case 3:
				replan()
			case 5:
				s := 1 + in.pick(nRemote)
				bits := in.next()
				fa.down[s], fa.risky[s] = bits&1 != 0, bits&2 != 0
			case 6:
				f := bundle.FileID(in.pick(nFiles))
				s := grid.SiteID(in.pick(nRemote + 1))
				if in.pick(2) == 0 {
					add(f, s)
				} else {
					remove(f, s)
				}
			case 7:
				budget := bundle.Size(in.pick(9)) * bundle.MB
				got, err := Plan(hist, topo, reps, sizeOf, budget)
				if err != nil {
					t.Fatal(err)
				}
				if want := planReference(hist, topo, refReps, sizeOf, budget); !reflect.DeepEqual(got, want) {
					t.Fatalf("Plan(budget %v) diverged\n got %+v\nwant %+v", budget, got, want)
				}
			}
		}
		replan()
	})
}
