package replicate

import (
	"testing"

	"fbcache/internal/bundle"
	"fbcache/internal/grid"
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
