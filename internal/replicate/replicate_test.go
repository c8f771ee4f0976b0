package replicate

import (
	"reflect"
	"slices"
	"testing"

	"fbcache/internal/bundle"
	"fbcache/internal/grid"
	"fbcache/internal/history"
	"fbcache/internal/mss"
)

// testGrid: local fast site + slow remote site holding everything.
func testGrid(t *testing.T, files []bundle.FileID) (*grid.Topology, *grid.Replicas) {
	t.Helper()
	topo, err := grid.NewTopology("local", mss.Config{
		Name: "disk", LatencySec: 0.1, BandwidthBps: 200e6, Channels: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	remote, err := topo.AddSite("remote", mss.Config{
		Name: "tape", LatencySec: 10, BandwidthBps: 50e6, Channels: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.Connect(topo.Local(), remote, grid.Link{LatencySec: 1, BandwidthBps: 20e6}); err != nil {
		t.Fatal(err)
	}
	reps := grid.NewReplicas()
	for _, f := range files {
		reps.Add(f, remote)
	}
	return topo, reps
}

func sizeConst(s bundle.Size) bundle.SizeFunc {
	return func(bundle.FileID) bundle.Size { return s }
}

func TestPlanPrefersHotFiles(t *testing.T) {
	topo, reps := testGrid(t, []bundle.FileID{1, 2, 3})
	h := history.New(history.Config{})
	for i := 0; i < 10; i++ {
		h.Observe(bundle.New(1)) // f1 hot
	}
	h.Observe(bundle.New(2)) // f2 lukewarm
	h.Observe(bundle.New(3))

	// Budget for exactly one file.
	res, err := Plan(h, topo, reps, sizeConst(100*bundle.MB), 100*bundle.MB)
	if err != nil {
		t.Fatal(err)
	}
	plan := res.Actions
	if len(plan) != 1 {
		t.Fatalf("plan = %+v", plan)
	}
	if plan[0].File != 1 {
		t.Errorf("replicated f%d, want hot f1", plan[0].File)
	}
	if plan[0].Heat != 10 || plan[0].SavingsSec <= 0 {
		t.Errorf("action = %+v", plan[0])
	}
}

func TestPlanRespectsBudget(t *testing.T) {
	topo, reps := testGrid(t, []bundle.FileID{1, 2, 3, 4})
	h := history.New(history.Config{})
	h.Observe(bundle.New(1, 2, 3, 4))
	res, err := Plan(h, topo, reps, sizeConst(bundle.MB), 2*bundle.MB+bundle.MB/2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Actions) != 2 {
		t.Fatalf("plan length = %d, want 2 within 2.5MB budget", len(res.Actions))
	}
	if TotalBytes(res.Actions) > 2*bundle.MB+bundle.MB/2 {
		t.Errorf("plan overruns budget: %v", TotalBytes(res.Actions))
	}
	// Zero budget -> empty plan.
	res, err = Plan(h, topo, reps, sizeConst(bundle.MB), 0)
	if err != nil || len(res.Actions) != 0 {
		t.Errorf("zero budget plan = %v, %v", res.Actions, err)
	}
}

func TestPlanSkipsAlreadyLocal(t *testing.T) {
	topo, reps := testGrid(t, []bundle.FileID{1, 2})
	reps.Add(1, topo.Local())
	h := history.New(history.Config{})
	for i := 0; i < 5; i++ {
		h.Observe(bundle.New(1, 2))
	}
	res, err := Plan(h, topo, reps, sizeConst(bundle.MB), 10*bundle.MB)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Actions) != 1 || res.Actions[0].File != 2 {
		t.Errorf("plan = %+v, want only f2", res.Actions)
	}
}

func TestPlanReportsUnreachable(t *testing.T) {
	topo, reps := testGrid(t, []bundle.FileID{1})
	h := history.New(history.Config{})
	h.Observe(bundle.New(1, 9)) // f9 not in any catalog
	h.Observe(bundle.New(7))    // f7 also unknown
	res, err := Plan(h, topo, reps, sizeConst(bundle.MB), 10*bundle.MB)
	if err != nil {
		t.Fatalf("missing replica must degrade, not abort: %v", err)
	}
	// The reachable hot file is still planned.
	if len(res.Actions) != 1 || res.Actions[0].File != 1 {
		t.Errorf("actions = %+v, want f1 planned despite unreachable peers", res.Actions)
	}
	// The unreachable files are reported, sorted.
	want := []bundle.FileID{7, 9}
	if !reflect.DeepEqual(res.Unreachable, want) {
		t.Errorf("unreachable = %v, want %v", res.Unreachable, want)
	}
}

func TestPlanNilInputs(t *testing.T) {
	if _, err := Plan(nil, nil, nil, nil, 1); err == nil {
		t.Error("nil inputs accepted")
	}
}

func TestApplyAndSavings(t *testing.T) {
	topo, reps := testGrid(t, []bundle.FileID{1, 2})
	h := history.New(history.Config{})
	for i := 0; i < 4; i++ {
		h.Observe(bundle.New(1, 2))
	}
	res, err := Plan(h, topo, reps, sizeConst(bundle.MB), 10*bundle.MB)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Actions) == 0 {
		t.Fatal("no actions planned")
	}
	for _, a := range res.Actions {
		if a.Heat*a.SavingsSec <= 0 {
			t.Errorf("action %+v reports no savings", a)
		}
	}
	Apply(res.Actions, topo, reps)
	for _, f := range []bundle.FileID{1, 2} {
		ranked := reps.AppendRankedSources(nil, topo, f, bundle.MB)
		if len(ranked) == 0 || ranked[0].Site != topo.Local() {
			t.Errorf("f%d ranked sources = %v after Apply", f, ranked)
		}
	}
	// Re-planning now yields nothing.
	res, err = Plan(h, topo, reps, sizeConst(bundle.MB), 10*bundle.MB)
	if err != nil || len(res.Actions) != 0 {
		t.Errorf("second plan = %v, %v", res.Actions, err)
	}
}

func TestPlanEmptyHistory(t *testing.T) {
	topo, reps := testGrid(t, []bundle.FileID{1})
	h := history.New(history.Config{})
	res, err := Plan(h, topo, reps, sizeConst(bundle.MB), bundle.MB)
	if err != nil || len(res.Actions) != 0 {
		t.Errorf("plan = %v, %v", res.Actions, err)
	}
}

// Regression for the greedy loop fixes: the scan stops once the budget is
// exactly consumed, and equal-density ties prefer the larger Size so
// zero-size files cannot starve large high-saving candidates.
func TestGreedyBudgetStopAndSizeTieBreak(t *testing.T) {
	// Two candidates with identical density (same heat, saving and size) and
	// one with a distinct larger size at the same per-byte density.
	mk := func(f bundle.FileID, size bundle.Size, heat, saving float64) Action {
		return Action{File: f, Size: size, Heat: heat, SavingsSec: saving}
	}
	// density = heat*saving/size: a (2MB) and b (1MB) both at density 8.
	a := mk(1, 2*bundle.MB, 4, float64(4*bundle.MB))
	b := mk(2, bundle.MB, 4, float64(2*bundle.MB))
	plan := greedyActions([]Action{b, a}, 2*bundle.MB)
	if len(plan) != 1 || plan[0].File != 1 {
		t.Errorf("equal density must prefer larger size first: %+v", plan)
	}

	// Exact-fit budget: once used == budget the scan must stop, not keep
	// walking the tail (which an overrun candidate list would pollute).
	c := mk(3, bundle.MB, 100, 1e6)
	d := mk(4, bundle.MB, 1, 1e6)
	plan = greedyActions([]Action{c, d}, bundle.MB)
	if len(plan) != 1 || plan[0].File != 3 {
		t.Errorf("exact-fit budget plan = %+v, want just f3", plan)
	}

	// Zero-size files rank first (density +Inf) but consume no budget, so
	// the large candidate still lands.
	z := mk(5, 0, 1, 1)
	plan = greedyActions([]Action{d, z}, bundle.MB)
	if len(plan) != 2 || plan[0].File != 5 || plan[1].File != 4 {
		t.Errorf("zero-size + large plan = %+v", plan)
	}
}

// greedyActions runs greedy over plain actions.
func greedyActions(acts []Action, budget bundle.Size) []Action {
	cands := make([]candidate, len(acts))
	for i, a := range acts {
		cands[i] = newCandidate(a)
	}
	return greedy(nil, cands, budget)
}

// When no candidate fits the budget on its own, or the budget is zero,
// greedy returns its dst unchanged without sorting: the plan is empty in
// any order.
func TestGreedySkipsSortWhenNothingFits(t *testing.T) {
	mk := func(f bundle.FileID, size bundle.Size, heat float64) candidate {
		return newCandidate(Action{File: f, Size: size, Heat: heat, SavingsSec: 1})
	}
	for _, c := range []struct {
		name   string
		budget bundle.Size
		cands  []candidate
	}{
		{"all too large", bundle.MB, []candidate{mk(1, 2*bundle.MB, 1), mk(2, 3*bundle.MB, 9)}},
		{"zero budget", 0, []candidate{mk(1, bundle.MB, 1), mk(2, 0, 9)}},
	} {
		orig := slices.Clone(c.cands)
		dst := []Action{{File: 7}}
		got := greedy(dst, c.cands, c.budget)
		if !reflect.DeepEqual(got, dst) {
			t.Errorf("%s: plan = %+v, want dst unchanged", c.name, got)
		}
		if !reflect.DeepEqual(c.cands, orig) {
			t.Errorf("%s: candidates reordered without a possible pick", c.name)
		}
	}
}
