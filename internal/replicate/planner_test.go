package replicate

import (
	"reflect"
	"testing"

	"fbcache/internal/bundle"
	"fbcache/internal/grid"
	"fbcache/internal/mss"
)

// fakeAvail is a static availability view for planner tests.
type fakeAvail struct {
	down  map[int]bool // Up = !down
	risky map[int]bool // DownWithin
}

func (a fakeAvail) Up(site int, at float64) bool                    { return !a.down[site] }
func (a fakeAvail) DownWithin(site int, from, horizon float64) bool { return a.risky[site] }

func newTestPlanner(t *testing.T, topo *grid.Topology, reps *grid.Replicas, pred *Predictor, cfg PlannerConfig) *Planner {
	t.Helper()
	pl, err := NewPlanner(topo, reps, sizeConst(bundle.MB), pred, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestReplanPlantsHotFilesWithinBudget(t *testing.T) {
	topo, reps := testGrid(t, []bundle.FileID{1, 2, 3})
	pred := NewPredictor(PredictorConfig{HalfLifeSec: 1000})
	for i := 0; i < 5; i++ {
		pred.Observe(0, bundle.New(1), 1) // f1 hottest
	}
	pred.Observe(0, bundle.New(2), 1)

	pl := newTestPlanner(t, topo, reps, pred, PlannerConfig{Budget: bundle.MB})
	ep := pl.Replan(10, nil)
	if len(ep.Actions) != 1 || ep.Actions[0].File != 1 {
		t.Fatalf("epoch actions = %+v, want just hot f1 within 1MB", ep.Actions)
	}
	if ep.PlannedBytes != bundle.MB || pl.PlantedBytes() != bundle.MB {
		t.Errorf("planned=%v planted=%v", ep.PlannedBytes, pl.PlantedBytes())
	}
	if !reps.Has(1, topo.Local()) {
		t.Error("action not committed to the catalog")
	}
	// Second epoch: budget full, f1 already local -> nothing to do.
	ep = pl.Replan(20, nil)
	if len(ep.Actions) != 0 {
		t.Errorf("second epoch re-planned: %+v", ep.Actions)
	}
}

func TestReplanRetiresColdReplicas(t *testing.T) {
	topo, reps := testGrid(t, []bundle.FileID{1, 2})
	pred := NewPredictor(PredictorConfig{HalfLifeSec: 10})
	pred.Observe(0, bundle.New(1), 1)

	pl := newTestPlanner(t, topo, reps, pred, PlannerConfig{Budget: 2 * bundle.MB, RetireBelow: 0.1})
	if ep := pl.Replan(1, nil); len(ep.Actions) != 1 {
		t.Fatalf("seed epoch = %+v", ep)
	}

	// Five half-lives later f1's heat is ~0.03 < RetireBelow: the planted
	// replica retires and its budget comes back.
	ep := pl.Replan(51, nil)
	if len(ep.Retired) != 1 || ep.Retired[0] != 1 || ep.RetiredBytes != bundle.MB {
		t.Fatalf("retired = %v (%v bytes), want f1 (1MB)", ep.Retired, ep.RetiredBytes)
	}
	if reps.Has(1, topo.Local()) {
		t.Error("retired replica still in the catalog")
	}
	if pl.PlantedBytes() != 0 {
		t.Errorf("planted bytes = %v after retirement", pl.PlantedBytes())
	}
}

func TestReplanNeverRetiresLastCopy(t *testing.T) {
	topo, reps := testGrid(t, []bundle.FileID{1})
	pred := NewPredictor(PredictorConfig{HalfLifeSec: 10})
	pred.Observe(0, bundle.New(1), 1)

	pl := newTestPlanner(t, topo, reps, pred, PlannerConfig{Budget: bundle.MB, RetireBelow: 0.1})
	if ep := pl.Replan(1, nil); len(ep.Actions) != 1 {
		t.Fatalf("seed epoch = %+v", ep)
	}
	// The remote original vanishes (catalog corruption, decommission): the
	// planted local replica is now the last copy and must survive retirement.
	remote := grid.SiteID(1)
	if !reps.Remove(1, remote) {
		t.Fatal("test setup: remote copy not removed")
	}
	ep := pl.Replan(51, nil)
	if len(ep.Retired) != 0 {
		t.Fatalf("retired the last copy: %v", ep.Retired)
	}
	if !reps.Has(1, topo.Local()) {
		t.Error("last copy gone from the catalog")
	}
}

func TestReplanSkipsDownSitesAndReportsUnreachable(t *testing.T) {
	topo, reps := testGrid(t, []bundle.FileID{1})
	pred := NewPredictor(PredictorConfig{HalfLifeSec: 1000})
	pred.Observe(0, bundle.New(1), 1)

	pl := newTestPlanner(t, topo, reps, pred, PlannerConfig{Budget: bundle.MB})
	// The only source (remote site 1) is dark: no action, file reported.
	ep := pl.Replan(1, fakeAvail{down: map[int]bool{1: true}})
	if len(ep.Actions) != 0 {
		t.Errorf("planned from a dark site: %+v", ep.Actions)
	}
	if len(ep.Unreachable) != 1 || ep.Unreachable[0] != 1 {
		t.Errorf("unreachable = %v, want [1]", ep.Unreachable)
	}
	// Site back up: the same file plans normally.
	ep = pl.Replan(2, fakeAvail{})
	if len(ep.Actions) != 1 || ep.Actions[0].Emergency {
		t.Errorf("post-recovery epoch = %+v", ep.Actions)
	}
}

func TestReplanEmergencyReplicatesAtRiskFiles(t *testing.T) {
	topo, reps := testGrid(t, []bundle.FileID{1, 2})
	pred := NewPredictor(PredictorConfig{HalfLifeSec: 1000})
	pred.Observe(0, bundle.New(1), 1)
	pred.Observe(0, bundle.New(2), 1)
	pred.Observe(0, bundle.New(2), 1) // f2 hotter

	pl := newTestPlanner(t, topo, reps, pred, PlannerConfig{Budget: bundle.MB, RiskHorizonSec: 60})
	// Remote site 1 is up now but scheduled to go dark within the horizon:
	// every candidate is at risk, and the 1MB budget protects the hottest.
	ep := pl.Replan(1, fakeAvail{risky: map[int]bool{1: true}})
	if ep.Emergency != 1 || len(ep.Actions) != 1 {
		t.Fatalf("epoch = %+v, want one emergency action", ep)
	}
	if a := ep.Actions[0]; a.File != 2 || !a.Emergency {
		t.Errorf("emergency picked %+v, want hottest f2", a)
	}
	// Without the risk flag the same availability plans no emergencies.
	pl2 := newTestPlanner(t, topo, grid.NewReplicas(), pred, PlannerConfig{Budget: bundle.MB, RiskHorizonSec: 60})
	_ = pl2 // separate planner: fresh catalog unused beyond construction
	ep = pl.Replan(2, fakeAvail{})
	if ep.Emergency != 0 {
		t.Errorf("calm epoch reported %d emergencies", ep.Emergency)
	}
}

// twinPlanner runs a Planner and its map-and-sort reference over one
// topology and two catalogs built alike, so every epoch can be held to
// the reference (replan_reference_test.go).
type twinPlanner struct {
	topo          *grid.Topology
	reps, refReps *grid.Replicas
	pred          *Predictor
	refPred       *predictorReference
	pl            *Planner
	ref           *plannerReference
}

// newTwinPlanner builds the local site and two remote ones, 1 and 2, both
// linked. holders[f] lists the remote sites that hold file f; sizes[f] is
// its size.
func newTwinPlanner(t *testing.T, sizes []bundle.Size, holders [][]grid.SiteID, pcfg PredictorConfig, cfg PlannerConfig) *twinPlanner {
	t.Helper()
	topo, reps := testGrid(t, nil)
	second, err := topo.AddSite("remote2", mss.Config{
		Name: "tape", LatencySec: 10, BandwidthBps: 50e6, Channels: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.Connect(topo.Local(), second, grid.Link{LatencySec: 1, BandwidthBps: 20e6}); err != nil {
		t.Fatal(err)
	}
	refReps := grid.NewReplicas()
	for f, sites := range holders {
		for _, s := range sites {
			reps.Add(bundle.FileID(f), s)
			refReps.Add(bundle.FileID(f), s)
		}
	}
	sizeOf := func(f bundle.FileID) bundle.Size { return sizes[f] }
	w := &twinPlanner{topo: topo, reps: reps, refReps: refReps,
		pred: NewPredictor(pcfg), refPred: newPredictorReference(pcfg)}
	if w.pl, err = NewPlanner(topo, reps, sizeOf, w.pred, cfg); err != nil {
		t.Fatal(err)
	}
	w.ref = newPlannerReference(topo, refReps, sizeOf, w.refPred, cfg)
	return w
}

func (w *twinPlanner) observe(now float64, f bundle.FileID, v float64) {
	w.pred.Observe(now, bundle.New(f), v)
	w.refPred.Observe(now, bundle.New(f), v)
}

// replan runs one epoch on both planners, requires deep-equal epochs and
// catalogs, and reports whether the planner took the short path: idle
// epochs leave the snapshot scratch, cleared here, untouched.
func (w *twinPlanner) replan(t *testing.T, now float64, avail Availability) (Epoch, bool) {
	t.Helper()
	w.pl.heat = nil
	got, want := w.pl.Replan(now, avail), w.ref.Replan(now, avail)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("epoch at %v\n got %+v\nwant %+v", now, got, want)
	}
	for f := range bundle.FileID(len(w.pl.planted) + 8) {
		if got, want := w.reps.Sites(f), w.refReps.Sites(f); !reflect.DeepEqual(got, want) {
			t.Fatalf("epoch at %v: catalog of file %d = %v, reference %v", now, f, got, want)
		}
	}
	return got, w.pl.heat == nil
}

// TestReplanIdleEpochReportsUnreachable: once the budget is spent, an
// epoch can plant nothing and takes the short path, which must still
// report the hot file whose one holder is dark.
func TestReplanIdleEpochReportsUnreachable(t *testing.T) {
	w := newTwinPlanner(t,
		[]bundle.Size{bundle.MB, bundle.MB, bundle.MB, bundle.MB},
		[][]grid.SiteID{{1}, {1, 2}, {2}, {1}},
		PredictorConfig{HalfLifeSec: 100}, PlannerConfig{Budget: 2 * bundle.MB, RiskHorizonSec: 30})
	for f := range bundle.FileID(4) {
		w.observe(0, f, float64(1+f))
	}
	dark := &fuzzAvail{down: []bool{false, false, true}, risky: []bool{false, false, true}}
	ep, idle := w.replan(t, 1, dark)
	if idle || len(ep.Actions) != 2 || w.pl.PlantedBytes() != 2*bundle.MB {
		t.Fatalf("first epoch (idle %v) = %+v, want two plants filling the budget", idle, ep)
	}
	ep, idle = w.replan(t, 41, dark)
	if !idle || len(ep.Actions) != 0 || !reflect.DeepEqual(ep.Unreachable, []bundle.FileID{2}) {
		t.Fatalf("full-budget epoch (idle %v) = %+v, want the short path reporting file 2", idle, ep)
	}
	// With every site up nothing is unreachable, and Unreachable stays nil.
	if ep, idle = w.replan(t, 81, nil); !idle || ep.Unreachable != nil {
		t.Fatalf("calm full-budget epoch (idle %v) = %+v", idle, ep)
	}
}

// TestReplanIdleEpochSkipsUnderflowedHeat: a tracked file whose decayed
// heat underflows to exactly 0 is not hot, whether its heat was tiny or
// its decay long (past the 512 half-lives within which the sign is proved
// without Exp2), so the short path must not report it.
func TestReplanIdleEpochSkipsUnderflowedHeat(t *testing.T) {
	w := newTwinPlanner(t,
		[]bundle.Size{bundle.MB, bundle.MB, bundle.MB},
		[][]grid.SiteID{{2}, {2}, {2}},
		PredictorConfig{HalfLifeSec: 1}, PlannerConfig{Budget: 0})
	w.observe(0, 0, 1)         // 2^-1100 at 1100: underflows
	w.observe(1000, 1, 1e-300) // 1e-300·2^-100 at 1100: underflows
	w.observe(1000, 2, 1)      // 2^-100 at 1100: hot, decay proved
	if h := w.pred.Heat(1100, 0) + w.pred.Heat(1100, 1); h != 0 {
		t.Fatalf("test setup: heats sum to %v at 1100, want an underflow to 0", h)
	}
	dark := &fuzzAvail{down: []bool{false, false, true}, risky: []bool{false, false, true}}
	ep, idle := w.replan(t, 1100, dark)
	if !idle || !reflect.DeepEqual(ep.Unreachable, []bundle.FileID{2}) {
		t.Fatalf("epoch (idle %v) = %+v, want the short path reporting file 2 only", idle, ep)
	}
}

// TestReplanZeroSizeFileTakesFullPath: a zero-size hot file fits any
// budget left, even none, so the epoch must take the full path — here it
// is planted as an emergency ahead of its holder's outage.
func TestReplanZeroSizeFileTakesFullPath(t *testing.T) {
	w := newTwinPlanner(t,
		[]bundle.Size{bundle.MB, 0},
		[][]grid.SiteID{{1}, {1}},
		PredictorConfig{HalfLifeSec: 100}, PlannerConfig{Budget: bundle.MB, RiskHorizonSec: 30})
	w.observe(0, 0, 1)
	if ep, idle := w.replan(t, 1, nil); idle || len(ep.Actions) != 1 {
		t.Fatalf("first epoch (idle %v) = %+v, want file 0 planted", idle, ep)
	}
	w.observe(10, 1, 1)
	risky := &fuzzAvail{down: []bool{false, false, false}, risky: []bool{false, true, false}}
	ep, idle := w.replan(t, 41, risky)
	if idle || ep.Emergency != 1 || len(ep.Actions) != 1 || ep.Actions[0].File != 1 {
		t.Fatalf("full-budget epoch (idle %v) = %+v, want file 1 planted as an emergency", idle, ep)
	}
}
