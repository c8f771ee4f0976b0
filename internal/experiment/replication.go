package experiment

import (
	"fmt"
	"math"

	"fbcache/internal/bundle"
	"fbcache/internal/faults"
	"fbcache/internal/grid"
	"fbcache/internal/metrics"
	"fbcache/internal/mss"
	"fbcache/internal/simulate"
	"fbcache/internal/workload"
)

// studyGrid builds the experiments' 2-site data grid: a fast local disk
// archive and a slow remote tape archive across a WAN. The remote site is
// the archive of record (every file), and localReplica selects which files
// additionally start with a local copy.
func studyGrid(w *workload.Workload, localReplica func(bundle.FileID) bool) (*simulate.GridConfig, error) {
	topo, err := grid.NewTopology("local", mss.Config{
		Name: "local-disk", LatencySec: 0.2, BandwidthBps: 200e6, Channels: 4,
	})
	if err != nil {
		return nil, err
	}
	remote, err := topo.AddSite("remote", mss.Config{
		Name: "remote-tape", LatencySec: 8, BandwidthBps: 60e6, Channels: 2,
	})
	if err != nil {
		return nil, err
	}
	if err := topo.Connect(topo.Local(), remote, grid.Link{LatencySec: 0.5, BandwidthBps: 30e6}); err != nil {
		return nil, err
	}
	reps := grid.NewReplicas()
	for _, f := range w.Catalog.Files() {
		reps.Add(f.ID, remote)
		if localReplica != nil && localReplica(f.ID) {
			reps.Add(f.ID, topo.Local())
		}
	}
	return &simulate.GridConfig{Topology: topo, Replicas: reps}, nil
}

// firstRecovery reduces a run's recovery records to the table columns:
// recovery time (NaN when the run never recovered — renders as "-") and the
// time-weighted post-outage mean of the windowed local-service ratio.
func firstRecovery(recs []metrics.Recovery) (recoverySec, postMean float64) {
	if len(recs) == 0 {
		return math.NaN(), math.NaN()
	}
	r := recs[0]
	if !r.Recovered {
		return math.NaN(), r.PostMeanRatio
	}
	return r.RecoverySec, r.PostMeanRatio
}

// ReplicationStudy sweeps the adaptive planner's byte budget over a seeded
// mid-run outage of the remote archive — the PR's self-healing experiment.
// Row 0 is the static grid (no re-planning); each following row arms the
// epoch re-planner with a rising budget. Columns report the recovery time
// of the windowed local-service ratio (from outage start; "-" when the run
// ends unrecovered), the time-weighted post-outage mean of that ratio, the
// bytes the planner moved, its emergency-replication count, and the run's
// makespan. Fully deterministic per Config.Seed.
func (c Config) ReplicationStudy() (*Table, error) {
	w, err := workload.Generate(c.baseSpec(workload.Zipf, 0.05))
	if err != nil {
		return nil, err
	}

	const arrivalRate = 2.0
	// The outage darkens the archive of record for a tenth of the expected
	// horizon, a quarter of the way in — late enough for heat to accumulate,
	// early enough that recovery is observable.
	horizon := float64(c.Jobs) / arrivalRate
	outage := faults.Window{Start: 0.25 * horizon, End: 0.35 * horizon}
	epoch := horizon / 50

	budgets := []bundle.Size{0, c.CacheSize, 4 * c.CacheSize, 16 * c.CacheSize}
	t := &Table{
		ID:       "replication",
		Title:    "Self-healing grid: recovery from a remote-archive outage vs replication budget",
		ColLabel: "budget",
		Series:   []string{"recovery sec", "post-outage ratio", "rerepl GB", "emergency", "makespan"},
	}

	for _, budget := range budgets {
		sc := faults.Scenario{Sites: map[int]faults.SiteFaults{
			1: {Outages: []faults.Window{outage}},
		}}
		var repl *simulate.ReplicationConfig
		label := "static"
		if budget > 0 {
			repl = &simulate.ReplicationConfig{
				EpochSec: epoch, Budget: budget, RiskHorizonSec: 2 * epoch,
			}
			label = fmt.Sprintf("%.0fxCache", float64(budget)/float64(c.CacheSize))
		}
		// Remote-only replicas: every miss crosses the WAN, so the outage is
		// load-bearing and the planner's copies are what keep service local.
		cfg, err := studyGrid(w, nil)
		if err != nil {
			return nil, err
		}
		p := optFactory()(c.CacheSize, w.Catalog.SizeFunc())
		st, err := simulate.RunEvents(w, p, simulate.EventOptions{
			ArrivalRate: arrivalRate,
			Grid:        cfg,
			Seed:        c.Seed,
			Faults:      &sc,
			Replication: repl,

			RecoveryWindowJobs: maxInt(20, c.Jobs/8),
			RecoveryEpsilon:    0.08,
		})
		if err != nil {
			return nil, err
		}
		rec, post := firstRecovery(st.Recoveries)
		t.AddRow(label, float64(budget)/float64(bundle.GB),
			rec, post, float64(st.Replication.Bytes)/float64(bundle.GB),
			float64(st.Replication.Emergency), st.Makespan)
		c.progress("replication: %s recovery=%.1fs post=%.3f rerepl=%.2fGB emergencies=%d",
			label, rec, post, float64(st.Replication.Bytes)/float64(bundle.GB),
			st.Replication.Emergency)
	}
	t.Notes = append(t.Notes,
		"recovery sec counts from outage start until the windowed local-service ratio re-enters (and stays within) eps of its pre-outage baseline; '-' = never recovered before the run ended",
		"post-outage ratio is the time-weighted mean of that windowed ratio from outage end to the last completion",
		fmt.Sprintf("outage: remote archive dark over [%.0fs, %.0fs); re-plan epoch %.0fs, risk horizon %.0fs", outage.Start, outage.End, epoch, 2*epoch),
		"reproduce: go run ./cmd/fbbench -experiment replication   (add -jobs/-seed to rescale; table is deterministic per seed)")
	return t, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
