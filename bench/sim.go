package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"fbcache/internal/bundle"
	"fbcache/internal/core"
	"fbcache/internal/experiment"
	"fbcache/internal/faults"
	"fbcache/internal/grid"
	"fbcache/internal/history"
	"fbcache/internal/mss"
	"fbcache/internal/obs"
	"fbcache/internal/policy"
	"fbcache/internal/simulate"
	"fbcache/internal/workload"
)

// simWorkload is a trace replayed through one of the simulators. A pass
// replays the whole trace through a fresh policy; a run repeats passes.
type simWorkload struct {
	spec   workload.Spec // Seed is set per pool; Jobs is the pass length
	grid   bool          // RunEvents on the 2-site grid instead of Run
	warmup int           // jobs of each pool's warm-up pass
	pools  int           // pools per run; passes cycle through them
}

// Grid traffic: the replication study's 2-site grid at a rate the remote
// tape sustains (the study's 2 jobs/s overloads it and makes runtime
// superlinear in the job count).
const (
	gridArrivalRate = 0.2
	gridOutageSec   = 2000
	gridEpochSec    = 40
	gridRiskSec     = 80
)

var (
	// simPaper: the paper's §5.1 default workload through the trace-driven
	// simulator — core, history, cache and bundle work only.
	simPaper = simWorkload{spec: paperSpec(), warmup: 5000, pools: 10}
	// simGrid: the timed grid simulator with a remote outage and the
	// adaptive re-planner — event heap, failover staging and replan epochs.
	// Under zipf traffic a pool's few popular requests set its cost, so
	// sim-grid averages over more, shorter pools.
	simGrid = simWorkload{spec: gridSpec(), grid: true, warmup: 2000, pools: 20}
)

func paperSpec() workload.Spec {
	s := workload.DefaultSpec()
	s.Jobs = 40000
	return s
}

func gridSpec() workload.Spec {
	c := experiment.DefaultConfig()
	return workload.Spec{
		CacheSize: c.CacheSize, NumFiles: c.NumFiles, MinFileSize: bundle.MB, MaxFilePct: 0.05,
		NumRequests: c.NumRequests, MaxBundleFiles: 6, MaxBundleFrac: 0.25,
		Popularity: workload.Zipf, ZipfS: 1, Jobs: 25000,
	}
}

// optPolicy builds OptFileBundle as experiment.optFactory and cmd/srmd do.
func optPolicy(capacity bundle.Size, sizeOf bundle.SizeFunc) policy.Policy {
	return policy.WrapOptFileBundle(core.New(capacity, sizeOf,
		core.Options{History: history.Config{Truncation: history.CacheResident}}))
}

// simStack holds a run's traces, one per pool, ready to replay.
type simStack struct {
	wl     simWorkload
	traces []*workload.Workload
	seeds  []int64
	jobs   int
	clk    jobClock
}

// addTrace generates the trace of one pool and serves its warm-up pass.
func (s *simStack) addTrace(seed int64, warmup int) error {
	spec := s.wl.spec
	spec.Seed, spec.Jobs = seed, s.jobs
	w, err := workload.Generate(spec)
	if err != nil {
		return err
	}
	s.traces, s.seeds = append(s.traces, w), append(s.seeds, seed)
	if warmup > 0 {
		if _, err := s.pass(len(s.traces)-1, warmup, nil); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// passResult is one replay: its wall time, the §1.2 quality of its output
// and, for grid runs, what the re-planner did.
type passResult struct {
	pool    int
	wall    time.Duration
	mallocs uint64
	quality map[string]float64
	p95     float64
	repl    simulate.ReplicationStats
	failed  int64
}

// pass replays the first n jobs of trace k through a fresh policy (wrapped
// by tp when tracing) and checks the cache afterwards.
func (s *simStack) pass(k, n int, tp *timedPolicy) (passResult, error) {
	w := s.traces[k]
	pol := optPolicy(w.Spec.CacheSize, w.Catalog.SizeFunc())
	if tp != nil {
		pol = tp.wrap(pol)
	}
	r := passResult{pool: k}
	if !s.wl.grid {
		s.clk.start()
		t0 := time.Now()
		col, err := simulate.Run(w, pol, simulate.Options{MaxJobs: n, Tracer: &s.clk})
		r.wall = time.Since(t0)
		if err != nil {
			return r, err
		}
		if col.Jobs() != int64(n) {
			return r, fmt.Errorf("simulate: %d of %d jobs recorded", col.Jobs(), n)
		}
		r.quality = map[string]float64{"hit_ratio": col.HitRatio(), "byte_miss_ratio": col.ByteMissRatio()}
	} else {
		cfg, err := gridConfig(w)
		if err != nil {
			return r, err
		}
		// One outage of the archive of record, a quarter of the way into the
		// nominal horizon of a full pass.
		start := 0.25 * float64(s.jobs) / gridArrivalRate
		sc := faults.Scenario{Sites: map[int]faults.SiteFaults{
			1: {Outages: []faults.Window{{Start: start, End: start + gridOutageSec}}},
		}}
		s.clk.start()
		t0 := time.Now()
		st, err := simulate.RunEvents(w, pol, simulate.EventOptions{
			ArrivalRate: gridArrivalRate,
			Grid:        cfg,
			Seed:        s.seeds[k],
			MaxJobs:     n,
			Faults:      &sc,
			Replication: &simulate.ReplicationConfig{
				EpochSec: gridEpochSec, Budget: 4 * w.Spec.CacheSize, RiskHorizonSec: gridRiskSec,
			},
			Tracer:             &s.clk,
			RecoveryWindowJobs: max(20, s.jobs/8),
			RecoveryEpsilon:    0.08,
		})
		r.wall = time.Since(t0)
		if err != nil {
			return r, err
		}
		r.failed = st.Resilience.FailedJobs + st.UnservedOversized
		if st.Jobs+r.failed != int64(n) {
			return r, fmt.Errorf("simulate: %d served + %d failed of %d jobs", st.Jobs, r.failed, n)
		}
		r.quality = map[string]float64{
			"hit_ratio": st.HitRatio, "byte_miss_ratio": st.ByteMissRatio, "mean_response_s": st.MeanResponse,
		}
		r.p95, r.repl = st.P95Response, st.Replication
	}
	if err := pol.Cache().CheckInvariants(); err != nil {
		return r, fmt.Errorf("cache invariants after %d jobs: %w", n, err)
	}
	return r, nil
}

// gridConfig rebuilds the replication study's 2-site grid: a fast local
// disk and a slow remote tape that holds every file, across a WAN. The
// re-planner adds replicas, so every pass starts from a fresh catalog.
func gridConfig(w *workload.Workload) (*simulate.GridConfig, error) {
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
	}
	return &simulate.GridConfig{Topology: topo, Replicas: reps}, nil
}

// simRun is the outcome of a sequence of passes.
type simRun struct {
	pools   int
	passes  []passResult
	quality []map[string]float64 // per pool, from its first pass
	blockUs []float64            // wall µs per job of every block of every pass
}

// replay runs full passes, cycling through the pools, until d has elapsed
// and every pool has run once. Every pass of a pool must reproduce that
// pool's quality bit for bit.
func (s *simStack) replay(d time.Duration, tp *timedPolicy) (*simRun, error) {
	run := simRun{pools: len(s.traces), quality: make([]map[string]float64, len(s.traces))}
	var m0, m1 runtime.MemStats
	for start := time.Now(); len(run.passes) < len(s.traces) || time.Since(start) < d; {
		k := len(run.passes) % len(s.traces)
		runtime.ReadMemStats(&m0)
		r, err := s.pass(k, s.jobs, tp)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, err
		}
		r.mallocs = m1.Mallocs - m0.Mallocs
		if run.quality[k] == nil {
			run.quality[k] = r.quality
		} else if err := sameQuality(run.quality[k], r.quality); err != nil {
			return nil, err
		}
		run.blockUs = append(run.blockUs, s.clk.blocks...)
		run.passes = append(run.passes, r)
	}
	return &run, nil
}

func sameQuality(a, b map[string]float64) error {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			return fmt.Errorf("replay not deterministic: %s %v then %v", k, a[k], b[k])
		}
	}
	return nil
}

// outcome reduces a run to its end-to-end metrics, weighting every pool
// equally whatever number of passes it got: throughput is the pools' jobs
// over the sum of each pool's median pass time, allocations likewise; job
// times are quantiles over blocks; quality is the mean over pools.
func (run *simRun) outcome(jobs int) *outcome {
	secs := make([][]float64, run.pools)
	mallocs := make([][]float64, run.pools)
	var failed int64
	for _, p := range run.passes {
		secs[p.pool] = append(secs[p.pool], p.wall.Seconds())
		mallocs[p.pool] = append(mallocs[p.pool], float64(p.mallocs))
		failed += p.failed
	}
	var total, allocs float64
	var rates []float64
	for k := range secs {
		t := quantiles(secs[k], 0.5)[0]
		total += t
		allocs += quantiles(mallocs[k], 0.5)[0]
		rates = append(rates, float64(jobs)/t)
	}
	rate := medianOf("jobs/s", rates, len(run.passes)) // min and max over pools
	rate.Value = float64(jobs*run.pools) / total
	q := quantiles(run.blockUs, 0.5, 0.99)
	quality := map[string]float64{}
	for _, tq := range run.quality {
		for k, v := range tq {
			quality[k] += v / float64(run.pools)
		}
	}
	return &outcome{
		Attempted: int64(jobs) * int64(len(run.passes)),
		Failed:    failed,
		Metrics: map[string]metric{
			"jobs_per_s":     rate,
			"job_p50_us":     {Value: q[0], Unit: "us", Samples: len(run.blockUs)},
			"job_p99_us":     {Value: q[1], Unit: "us", Samples: len(run.blockUs)},
			"allocs_per_job": single("count", allocs/float64(jobs*run.pools)),
		},
		Quality: quality,
	}
}

// blockJobs is the number of consecutive job completions a simulator job
// time averages over. The simulators finish jobs in bursts (a completion
// event can free several queued jobs), so single intervals between
// completions say more about event order than about cost.
const blockJobs = 500

// jobClock times the simulator loop from outside: it receives the
// simulator's per-job completion event and records the wall time per job
// of every block of blockJobs completions.
type jobClock struct {
	obs.NopTracer
	n      int
	last   time.Time
	blocks []float64 // µs per job
}

func (c *jobClock) start() {
	c.n, c.blocks = 0, c.blocks[:0]
	c.last = time.Now()
}

func (c *jobClock) JobServed(obs.JobServedEvent) {
	if c.n++; c.n%blockJobs == 0 {
		now := time.Now()
		c.blocks = append(c.blocks, float64(now.Sub(c.last))/1e3/blockJobs)
		c.last = now
	}
}
