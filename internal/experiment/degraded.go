package experiment

import (
	"fmt"
	"math"

	"fbcache/internal/bundle"
	"fbcache/internal/faults"
	"fbcache/internal/policy"
	"fbcache/internal/policy/classic"
	"fbcache/internal/policy/landlord"
	"fbcache/internal/simulate"
	"fbcache/internal/workload"
)

// degradedFailureRates is the per-transfer failure probability sweep of the
// degraded-mode experiment; 0 is the fault-free-transfer reference row.
var degradedFailureRates = []float64{0, 0.05, 0.1, 0.2, 0.3}

// DegradedMode re-runs the paper's policy comparison with the grid
// misbehaving: the timed simulator stages misses across a 2-site data grid
// whose remote archive suffers a mid-run outage, under a rising per-transfer
// failure probability (retries with capped exponential backoff, bounded
// requeues), with the epoch re-planner healing around the outage. For each
// policy it tables the request hit ratio, the mean job slowdown — mean
// response time divided by the same policy's zero-failure-rate mean response
// — the recovery time of the windowed local-service ratio after the outage
// ("-" when the run never recovered), and the bytes the re-planner moved.
// Fully deterministic: fault draws come from a seeded injector (seed derived
// from Config.Seed), so the table is bit-reproducible for a given config.
func (c Config) DegradedMode() (*Table, error) {
	factories := []struct {
		name string
		mk   policy.Factory
	}{
		{"opt", optFactory()},
		{"landlord", landlord.Factory()},
		{"gdsf", classic.GDSFFactory()},
	}

	w, err := workload.Generate(c.baseSpec(workload.Zipf, 0.05))
	if err != nil {
		return nil, err
	}

	const arrivalRate = 2.0
	horizon := float64(c.Jobs) / arrivalRate
	outage := faults.Window{Start: 0.25 * horizon, End: 0.35 * horizon}
	epoch := horizon / 50

	series := make([]string, 0, 4*len(factories))
	for _, f := range factories {
		series = append(series, f.name+" hit", f.name+" slowdown",
			f.name+" recovery", f.name+" rerepl GB")
	}
	t := &Table{
		ID:       "degraded",
		Title:    "Degraded mode: hit ratio, slowdown, outage recovery and re-replication vs transfer failure rate",
		ColLabel: "failure prob",
		Series:   series,
	}

	baseline := make([]float64, len(factories)) // zero-rate mean response per policy
	for _, rate := range degradedFailureRates {
		vals := make([]float64, 0, len(series))
		for i, f := range factories {
			sc := faults.Scenario{
				Seed:                c.Seed + 1000, // independent of the workload seed
				TransferFailureProb: rate,
				Sites: map[int]faults.SiteFaults{
					1: {Outages: []faults.Window{outage}},
				},
				MaxJobAttempts: 3,
			}
			// Half the catalog starts with a local replica; the other half
			// rides the WAN, so the outage and the failure rate both bite.
			cfg, err := studyGrid(w, func(f bundle.FileID) bool { return f%2 == 0 })
			if err != nil {
				return nil, err
			}
			p := f.mk(c.CacheSize, w.Catalog.SizeFunc())
			st, err := simulate.RunEvents(w, p, simulate.EventOptions{
				ArrivalRate: arrivalRate,
				Grid:        cfg,
				Seed:        c.Seed,
				Faults:      &sc,
				Replication: &simulate.ReplicationConfig{
					EpochSec: epoch, Budget: 4 * c.CacheSize, RiskHorizonSec: 2 * epoch,
				},

				RecoveryWindowJobs: maxInt(20, c.Jobs/8),
				RecoveryEpsilon:    0.08,
			})
			if err != nil {
				return nil, err
			}
			if rate == 0 { //fbvet:allow floateq — the literal 0 in the sweep, not a computed float
				baseline[i] = st.MeanResponse
			}
			slowdown := math.NaN()
			if baseline[i] > 0 {
				slowdown = st.MeanResponse / baseline[i]
			}
			rec, _ := firstRecovery(st.Recoveries)
			rerepl := float64(st.Replication.Bytes) / float64(bundle.GB)
			vals = append(vals, st.HitRatio, slowdown, rec, rerepl)
			c.progress("degraded: p=%.2f %s hit=%.4f slowdown=%.2f recovery=%.1fs rerepl=%.2fGB (resilience %v)",
				rate, f.name, st.HitRatio, slowdown, rec, rerepl, st.Resilience)
		}
		t.AddRow(fmt.Sprintf("p=%.2f", rate), rate, vals...)
	}
	t.Notes = append(t.Notes,
		"slowdown = mean response / the same policy's zero-failure-rate mean response (row p=0.00 is 1 by construction)",
		"recovery = seconds from outage start until the windowed local-service ratio re-enters (and stays within) eps of its pre-outage baseline; '-' = never recovered",
		fmt.Sprintf("every row includes a remote-archive outage over [%.0fs, %.0fs) with the epoch re-planner armed (budget 4x cache)", outage.Start, outage.End),
		"reproduce: go run ./cmd/fbbench -experiment degraded   (add -jobs/-seed to rescale; table is deterministic per seed)")
	return t, nil
}
