package simulate

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"fbcache/internal/bundle"
	"fbcache/internal/faults"
	"fbcache/internal/grid"
	"fbcache/internal/metrics"
	"fbcache/internal/mss"
	"fbcache/internal/obs"
	"fbcache/internal/policy"
	"fbcache/internal/replicate"
	"fbcache/internal/stats"
	"fbcache/internal/workload"
)

// EventOptions configures the discrete-event simulation.
type EventOptions struct {
	// ArrivalRate is the mean job arrival rate (jobs/second); arrivals are
	// Poisson. Must be positive.
	ArrivalRate float64
	// ProcessSeconds is the compute time of a job once its bundle is staged
	// and pinned; nil means a fixed 1 second.
	ProcessSeconds func(b bundle.Bundle) float64
	// MSS describes the archive misses are fetched from. Ignored when Grid
	// is set.
	MSS mss.Config
	// Grid, when non-nil, replaces the single MSS with a multi-site fetch
	// model: each file is pulled from its cheapest reachable replica,
	// queueing on that site's MSS channels and paying the WAN transfer on
	// top (§2's data-grid setting).
	Grid *GridConfig
	// Slots bounds concurrently executing jobs (default 4).
	Slots int
	// Seed drives the arrival process.
	Seed int64
	// MaxJobs truncates the workload when > 0.
	MaxJobs int
	// Faults, when non-nil, arms the deterministic fault injector:
	// scheduled MSS outages, WAN link-down windows, bandwidth brownouts and
	// seeded per-transfer failures, answered by capped-exponential-backoff
	// retries, ranked-replica failover and per-job staging budgets. A
	// zero-valued scenario reproduces the fault-free simulation bit for
	// bit; see internal/faults.
	Faults *faults.Scenario
	// Tracer, when non-nil, receives Stage (start/retry/failover/done),
	// JobServed and ReplicaPlan events stamped with sim-time seconds. Policy-
	// and cache-level events are installed separately via SetTracer on the
	// policy.
	Tracer obs.Tracer
	// Replication, when non-nil, arms the adaptive epoch re-planner
	// (grid runs only): every EpochSec of sim-time the replica plan is
	// recomputed against the current catalog and fault state — cold
	// planner-installed replicas retire, down sites are skipped as sources,
	// and files whose every live source is about to go dark are
	// emergency-replicated ahead of the outage. See internal/replicate.
	Replication *ReplicationConfig
	// RecoveryWindowJobs and RecoveryEpsilon tune the per-outage recovery
	// measurement armed alongside fault windows: the windowed hit ratio uses
	// the last RecoveryWindowJobs completions (default 50), and recovery is
	// declared when it returns within RecoveryEpsilon (default 0.02) of the
	// pre-outage baseline. See metrics.RecoveryTracker.
	RecoveryWindowJobs int
	RecoveryEpsilon    float64
}

// ReplicationConfig tunes the adaptive replication subsystem of RunEvents.
type ReplicationConfig struct {
	// EpochSec is the re-planning interval in sim seconds (required > 0).
	EpochSec float64
	// Budget is the local replica space the planner may occupy (bytes). A
	// zero budget runs the epochs without ever copying — useful to prove the
	// machinery itself perturbs nothing.
	Budget bundle.Size
	// HalfLifeSec is the predictor's EWMA half-life (default 4×EpochSec).
	HalfLifeSec float64
	// RetireBelow retires a planner-installed replica whose decayed heat
	// falls under it (<= 0 never retires).
	RetireBelow float64
	// RiskHorizonSec is the emergency-replication lookahead (default
	// EpochSec): copy a file now when all its live sources go dark within it.
	RiskHorizonSec float64
	// Assoc, when non-nil, sharpens the predictor with co-occurrence
	// predictions (e.g. *prefetch.Model).
	Assoc replicate.Associations
}

// ReplicationStats summarizes the epoch re-planner's work over a run. All
// zero unless EventOptions.Replication was set.
type ReplicationStats struct {
	// Epochs is how many re-plans ran.
	Epochs int64
	// Actions is the number of committed replications, of which Emergency
	// were planned to outrun a scheduled outage.
	Actions   int64
	Emergency int64
	// Bytes is the re-replication traffic moved to the local site.
	Bytes bundle.Size
	// Retired counts cold planner replicas removed, freeing RetiredBytes.
	Retired      int64
	RetiredBytes bundle.Size
	// Unreachable counts hot files that had no live source at some epoch.
	Unreachable int64
}

// GridConfig wires a topology and replica catalog into the simulation.
type GridConfig struct {
	Topology *grid.Topology
	Replicas *grid.Replicas
}

// stageOutcome is one bundle's staging result: the finish time on success,
// or the moment staging was abandoned (retries, failovers and budget
// exhausted) on failure. remote records whether any file came from a
// non-local site — the recovery tracker's "locally served" flag is its
// negation.
type stageOutcome struct {
	at     float64
	ok     bool
	remote bool
}

// stager models where miss traffic comes from and how long it takes.
type stager interface {
	// stage schedules transfers for job's files at time now and reports when
	// the last one lands in the cache — or that staging failed and when.
	// job only labels trace events.
	stage(now float64, job int, files bundle.Bundle, sizeOf bundle.SizeFunc) (stageOutcome, error)
	// utilization reports mean transfer-channel utilization over [0, horizon].
	utilization(horizon float64) float64
}

// resilient is the retry/failover engine shared by both stagers. With a
// zero scenario every transfer succeeds on its first attempt against the
// cheapest source, so the timing math reduces exactly to the fault-free
// model.
type resilient struct {
	inj    *faults.Injector
	budget float64 // per-job staging budget (seconds; 0 = unlimited)
	res    metrics.Resilience
	tr     obs.Tracer // nil unless EventOptions.Tracer was set
}

func (r *resilient) deadline(now float64) float64 {
	if r.budget > 0 {
		return now + r.budget
	}
	return math.Inf(1)
}

// stageFile schedules one file's transfer: bounded retries per source
// (capped exponential backoff, jitter from the injector's seeded RNG),
// failover across srcs cheapest-first, and bounded waits for the grid to
// recover when every source is dark. fetch schedules one attempt against
// srcs[k] at time t and returns its landing time; a failed attempt still
// occupied its MSS channel — the transfer broke, it wasn't free.
func (r *resilient) stageFile(now, deadline float64, job int, srcs []int, fetch func(k int, t float64) float64) (float64, bool) {
	retry := r.inj.Retry()
	t := now
	// One outer round per recovery wait; bounded so a permanently dark grid
	// cannot spin the event loop.
	for round := 0; round < retry.MaxAttempts; round++ {
		attempted := false
		for k, site := range srcs {
			if !r.inj.Up(site, t) {
				continue
			}
			attempted = true
			if k > 0 {
				// Staging moved past the cheapest replica — whether it was
				// down or its attempts were exhausted.
				r.res.Failovers++
				if r.tr != nil {
					r.tr.Stage(obs.StageEvent{
						At: t, Phase: obs.StageFailover, Job: job, Site: fmt.Sprint(site),
					})
				}
			}
			for attempt := 0; attempt < retry.MaxAttempts; attempt++ {
				done := fetch(k, t)
				if done > deadline {
					r.res.Timeouts++
					return deadline, false
				}
				if !r.inj.TransferFails() {
					return done, true
				}
				r.res.Retries++
				if r.tr != nil {
					r.tr.Stage(obs.StageEvent{
						At: done, Phase: obs.StageRetry, Job: job, Site: fmt.Sprint(site),
					})
				}
				t = done + retry.Backoff(attempt, r.inj.RNG())
				if t > deadline {
					r.res.Timeouts++
					return deadline, false
				}
			}
		}
		if attempted {
			// Every reachable replica exhausted its attempt budget.
			return t, false
		}
		// Grid dark at t: wait for the earliest recovery among the sources.
		next := math.Inf(1)
		for _, site := range srcs {
			if u := r.inj.NextUp(site, t); u < next {
				next = u
			}
		}
		if math.IsInf(next, 1) {
			return t, false
		}
		if next > deadline {
			r.res.Timeouts++
			return deadline, false
		}
		t = next
	}
	return t, false
}

// mssStager is the single-archive model (site index 0 in fault scenarios).
type mssStager struct {
	sys *mss.System
	rs  *resilient
}

var mssOnlySource = []int{0}

func (s *mssStager) stage(now float64, job int, files bundle.Bundle, sizeOf bundle.SizeFunc) (stageOutcome, error) {
	deadline := s.rs.deadline(now)
	finish := now
	// The single-MSS model has no local replica tier: any staging is a trip
	// to the archive.
	remote := len(files) > 0
	for _, f := range files {
		size := sizeOf(f)
		at, ok := s.rs.stageFile(now, deadline, job, mssOnlySource, func(_ int, t float64) float64 {
			return s.sys.Fetch(t, size)
		})
		if !ok {
			if at < finish {
				at = finish
			}
			return stageOutcome{at: at, remote: remote}, nil
		}
		if at > finish {
			finish = at
		}
	}
	return stageOutcome{at: finish, ok: true, remote: remote}, nil
}

func (s *mssStager) utilization(h float64) float64 { return s.sys.Utilization(h) }

// gridStager pulls each file from its cheapest reachable replica: the
// source site's MSS channels queue the read; the WAN hop adds latency +
// size/bandwidth on top (WAN links are modelled as uncontended). Under
// faults, staging retries against a source with backoff and fails over
// along Replicas.AppendRankedSources when a site is down or its attempts are
// exhausted.
type gridStager struct {
	topo  *grid.Topology
	reps  *grid.Replicas
	sites []*mss.System // indexed by SiteID
	rs    *resilient

	// ranked and srcs are the ranked-source scratch reused across stage
	// calls (one ranking happens per staged file; stageFile only reads the
	// slices).
	ranked []grid.Source
	srcs   []int
}

// siteAvailability adapts the injector's per-site schedule (outages,
// brownouts) to the mss.Availability hook. Link-down windows are handled by
// the failover walk instead — an unreachable site is skipped, not queued on.
type siteAvailability struct {
	inj  *faults.Injector
	site int
}

func (a siteAvailability) NextUp(at float64) float64   { return a.inj.SiteNextUp(a.site, at) }
func (a siteAvailability) Slowdown(at float64) float64 { return a.inj.Slowdown(a.site, at) }

func newGridStager(cfg *GridConfig, rs *resilient, armed bool) (*gridStager, error) {
	if cfg.Topology == nil || cfg.Replicas == nil {
		return nil, fmt.Errorf("simulate: GridConfig needs Topology and Replicas")
	}
	g := &gridStager{topo: cfg.Topology, reps: cfg.Replicas, rs: rs}
	for i := 0; i < cfg.Topology.NumSites(); i++ {
		site, err := cfg.Topology.Site(grid.SiteID(i))
		if err != nil {
			return nil, err
		}
		sys, err := mss.NewSystem(site.MSS)
		if err != nil {
			return nil, err
		}
		if armed {
			sys.SetAvailability(siteAvailability{inj: rs.inj, site: i})
		}
		g.sites = append(g.sites, sys)
	}
	return g, nil
}

func (g *gridStager) stage(now float64, job int, files bundle.Bundle, sizeOf bundle.SizeFunc) (stageOutcome, error) {
	deadline := g.rs.deadline(now)
	finish := now
	remote := false
	local := g.topo.Local()
	for _, f := range files {
		size := sizeOf(f)
		g.ranked = g.reps.AppendRankedSources(g.ranked[:0], g.topo, f, size)
		ranked := g.ranked
		if len(ranked) == 0 {
			return stageOutcome{}, fmt.Errorf("simulate: no reachable replica for file %d", f)
		}
		g.srcs = g.srcs[:0]
		for _, s := range ranked {
			g.srcs = append(g.srcs, int(s.Site))
		}
		// fetched tracks the site of the last attempt; on success that is the
		// source the file actually came from.
		fetched := local
		at, ok := g.rs.stageFile(now, deadline, job, g.srcs, func(k int, t float64) float64 {
			site := ranked[k].Site
			fetched = site
			return g.sites[site].Fetch(t, size) + g.wanSeconds(site, size)
		})
		if fetched != local {
			remote = true
		}
		if !ok {
			if at < finish {
				at = finish
			}
			return stageOutcome{at: at, remote: remote}, nil
		}
		if at > finish {
			finish = at
		}
	}
	return stageOutcome{at: finish, ok: true, remote: remote}, nil
}

func (g *gridStager) wanSeconds(from grid.SiteID, size bundle.Size) float64 {
	if from == g.topo.Local() {
		return 0
	}
	// TransferSeconds = MSS + WAN; subtract the MSS part to isolate WAN.
	total := g.topo.TransferSeconds(from, size)
	site, err := g.topo.Site(from)
	if err != nil {
		return 0
	}
	return total - site.MSS.TransferSeconds(size)
}

func (g *gridStager) utilization(h float64) float64 {
	if len(g.sites) == 0 || h <= 0 {
		return 0
	}
	total := 0.0
	for _, s := range g.sites {
		total += s.Utilization(h)
	}
	return total / float64(len(g.sites))
}

// EventStats summarizes a discrete-event run.
type EventStats struct {
	Jobs              int64
	Makespan          float64 // seconds from first arrival to last completion
	Throughput        float64 // jobs per second
	MeanResponse      float64 // arrival -> completion
	P95Response       float64
	MeanStaging       float64 // arrival -> bundle fully staged
	HitRatio          float64
	ByteMissRatio     float64
	BytesLoaded       bundle.Size
	MSSUtilization    float64
	UnservedOversized int64

	// Resilience counts the fault-handling work done during the run
	// (retries, failovers, timeouts, requeues, failed jobs). All zero in
	// fault-free runs.
	Resilience metrics.Resilience
	// SiteDowntime is per-site unusable seconds (MSS outage or link down)
	// over [0, Makespan]; nil unless the run was a grid run with faults
	// armed.
	SiteDowntime []float64
	// Replication summarizes the adaptive epoch re-planner's work; all zero
	// unless EventOptions.Replication was set.
	Replication ReplicationStats
	// Recoveries holds one per-outage recovery record (time for the windowed
	// hit ratio to return to its pre-outage baseline; see
	// metrics.RecoveryTracker). Nil unless faults with outage or link-down
	// windows were armed.
	Recoveries []metrics.Recovery
}

type eventKind int

const (
	evArrival eventKind = iota
	evCompletion
	evFailed // a job's staging was abandoned; its slot frees and it requeues or fails
	evReplan // periodic adaptive-replication epoch; job field unused
)

type event struct {
	at   float64
	kind eventKind
	job  int // index into jobs (arrival) or running-job handle (completion)
}

// eventQueue is a binary min-heap of events ordered by time. It replaces
// container/heap, whose interface{} Push/Pop boxed one event per queue
// operation — two heap allocations per simulated event. The sift loops
// reproduce container/heap's comparison order exactly, so the relative order
// of equal-timestamp events — and therefore golden traces and the
// determinism gates — is unchanged.
type eventQueue struct {
	ev []event
}

func (q *eventQueue) len() int { return len(q.ev) }

// running is the in-flight record of one dispatched job: what RunEvents
// needs at completion time to unpin, account and emit the JobServed event.
type running struct {
	bundleRef bundle.Bundle
	arrival   float64
	jobIdx    int  // index into jobs, for trace events
	hit       bool // request-hit on this (final) dispatch
	// localServe is the recovery tracker's health flag: the job was
	// served from the cache or staged entirely from the local site —
	// nothing crossed the WAN.
	localServe bool
	staged     float64 // when the bundle was fully staged
	loaded     bundle.Size
}

// runScratch is the pooled per-run storage of RunEvents (DESIGN.md §13):
// the event array, the per-job tables, the FIFO, and the response/staging
// records. One run owns one instance for its whole duration and returns it
// emptied, so sweeps and benchmarks that call RunEvents in a loop stop
// paying the per-run slice and map churn that used to dominate the
// allocation profile.
type runScratch struct {
	ev         []event
	arrivals   []float64
	waiting    []int
	responses  []float64
	stagings   []float64
	attempts   []int
	firstStage []float64
	inFlight   map[int]running
	restage    map[int]bundle.Bundle
}

// runPool recycles runScratch instances across RunEvents calls.
var runPool = sync.Pool{New: func() any {
	return &runScratch{
		inFlight: make(map[int]running),
		restage:  make(map[int]bundle.Bundle),
	}
}}

// getRunScratch returns pooled run storage with the indexed per-job tables
// sized for n jobs (attempts zeroed; firstStage left for the caller's -1
// fill) and every append-driven slice empty.
func getRunScratch(n int) *runScratch {
	sc := runPool.Get().(*runScratch)
	if cap(sc.attempts) < n {
		sc.attempts = make([]int, n)
	}
	sc.attempts = sc.attempts[:n]
	clear(sc.attempts)
	if cap(sc.firstStage) < n {
		sc.firstStage = make([]float64, n)
	}
	sc.firstStage = sc.firstStage[:n]
	return sc
}

// push inserts e, sifting it up. One push happens per simulated event, so it
// carries perf contracts (the sift holds e and shifts parents down, which
// performs the same comparisons as container/heap's swap loop and leaves the
// same array).
//
//fbvet:noescape
//fbvet:nobce parent index (j-1)/2 < j stays provably in range
func (q *eventQueue) push(e event) {
	q.ev = append(q.ev, e)
	ev := q.ev
	// Unsigned indices: j starts at len-1 < len and only ever moves to the
	// parent (j-1)/2 < j, so every access stays in range and prove can drop
	// the bounds checks.
	j := uint(len(ev) - 1)
	for j > 0 && j < uint(len(ev)) {
		i := (j - 1) / 2 // parent
		if !(e.at < ev[i].at) {
			break
		}
		ev[j] = ev[i]
		j = i
	}
	if j < uint(len(ev)) {
		ev[j] = e
	}
}

// pop removes and returns the earliest event, sifting the displaced tail
// element down with container/heap's exact comparison order. Calling pop on
// an empty queue returns the zero event (the run loop guards on len).
//
//fbvet:noescape
//fbvet:nobce child indices are guarded against n before use
func (q *eventQueue) pop() event {
	ev := q.ev
	n := len(ev) - 1
	if n < 0 {
		return event{}
	}
	ev[0], ev[n] = ev[n], ev[0]
	// Unsigned child indices: 2*i+1 can overflow a signed int, which is why
	// container/heap carries a j1 < 0 guard; with uint arithmetic the wrap
	// lands above un and the same >= test covers it, so prove can drop the
	// bounds checks inside the loop.
	un := uint(n)
	i := uint(0)
	for {
		j1 := 2*i + 1
		if j1 >= un {
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < un && ev[j2].at < ev[j1].at {
			j = j2 // right child is earlier
		}
		if j >= un || i >= un {
			break // unreachable: j ∈ {j1, j2} < un and i is a previous j
		}
		if !(ev[j].at < ev[i].at) {
			break
		}
		ev[i], ev[j] = ev[j], ev[i]
		i = j
	}
	e := ev[n]
	q.ev = ev[:n]
	return e
}

// RunEvents runs the timed data-grid simulation: jobs arrive (Poisson),
// queue for an execution slot, have their bundle admitted by the policy,
// stage missing files through the MSS transfer channels, pin their bundle
// while processing, and release it on completion. Response time spans
// arrival to completion, so both cache misses and slot contention show up —
// the throughput view of "optimal service" from §2.
func RunEvents(w *workload.Workload, p policy.Policy, opts EventOptions) (EventStats, error) {
	if w == nil || p == nil {
		return EventStats{}, fmt.Errorf("simulate: nil workload or policy")
	}
	if opts.ArrivalRate <= 0 {
		return EventStats{}, fmt.Errorf("simulate: ArrivalRate must be positive")
	}
	if opts.Slots <= 0 {
		opts.Slots = 4
	}
	proc := opts.ProcessSeconds
	if proc == nil {
		proc = func(bundle.Bundle) float64 { return 1 }
	}
	var scenario faults.Scenario
	if opts.Faults != nil {
		scenario = *opts.Faults
	}
	inj, err := faults.NewInjector(scenario)
	if err != nil {
		return EventStats{}, err
	}
	rs := &resilient{inj: inj, budget: inj.Scenario().StageBudgetSec, tr: opts.Tracer}
	armed := opts.Faults != nil

	// Arm per-outage recovery measurement when the scenario schedules any
	// unusable windows. A zero scenario has none, so fault-free runs carry
	// nil Recoveries and stay bit-identical.
	var recovery *metrics.RecoveryTracker
	if armed {
		siteIDs := make([]int, 0, len(inj.Scenario().Sites))
		for s := range inj.Scenario().Sites {
			siteIDs = append(siteIDs, s)
		}
		sort.Ints(siteIDs)
		var outs []metrics.Outage
		for _, s := range siteIDs {
			for _, win := range inj.UnusableWindows(s) {
				outs = append(outs, metrics.Outage{Site: s, Start: win.Start, End: win.End})
			}
		}
		if len(outs) > 0 {
			recovery = metrics.NewRecoveryTracker(outs, opts.RecoveryWindowJobs, opts.RecoveryEpsilon)
		}
	}
	var archive stager
	var gridArchive *gridStager
	if opts.Grid != nil {
		g, err := newGridStager(opts.Grid, rs, armed)
		if err != nil {
			return EventStats{}, err
		}
		archive, gridArchive = g, g
	} else {
		sys, err := mss.NewSystem(opts.MSS)
		if err != nil {
			return EventStats{}, err
		}
		if armed {
			sys.SetAvailability(siteAvailability{inj: inj, site: 0})
		}
		archive = &mssStager{sys: sys, rs: rs}
	}

	jobs := w.Jobs
	if opts.MaxJobs > 0 && opts.MaxJobs < len(jobs) {
		jobs = jobs[:opts.MaxJobs]
	}
	if len(jobs) == 0 {
		return EventStats{}, nil
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	sizeOf := w.Catalog.SizeFunc()
	capacity := p.Cache().Capacity()

	// Per-run bookkeeping comes from the run-scratch pool (see runScratch):
	// repeated runs — sweeps, benchmarks, srmbench load loops — reuse the
	// event array, the per-job tables and the response/staging records
	// instead of reallocating them per run.
	sc := getRunScratch(len(jobs))

	// Pre-draw arrival times.
	arrivals := sc.arrivals
	t := 0.0
	for range jobs {
		t += rng.ExpFloat64() / opts.ArrivalRate
		arrivals = append(arrivals, t)
	}
	var (
		h           eventQueue
		waiting     = sc.waiting
		inFlight    = sc.inFlight
		nextHandle  int
		slotsFree   = opts.Slots
		pinnedBytes bundle.Size

		responses = sc.responses
		stagings  = sc.stagings
		hits      int64
		bytesReq  bundle.Size
		bytesMiss bundle.Size
		oversized int64
		lastDone  float64
		stageErr  error

		// attempts counts dispatches per job so repeat Admits after a failed
		// staging don't distort the demand-side stats; restage carries the
		// files a failed attempt loaded but never finished transferring, so
		// the retry stages them again even though they look resident.
		attempts = sc.attempts
		restage  = sc.restage
		// firstStage records when each job first won a slot (its bundle's
		// first Admit); requeued attempts keep the original stamp so the
		// JobServed critical path separates queue wait from retry churn.
		firstStage = sc.firstStage
	)
	h.ev = sc.ev
	defer func() {
		// Return the (possibly grown) backing storage to the pool, emptied.
		sc.ev = h.ev[:0]
		sc.arrivals = arrivals[:0]
		sc.waiting = waiting[:0]
		sc.responses = responses[:0]
		sc.stagings = stagings[:0]
		sc.attempts = attempts[:0]
		sc.firstStage = firstStage[:0]
		clear(sc.inFlight)
		clear(sc.restage)
		runPool.Put(sc)
	}()
	for i := range firstStage {
		firstStage[i] = -1
	}
	maxJobAttempts := inj.Scenario().MaxJobAttempts

	// All arrivals are known up front; one backing array sized for them plus
	// the in-flight completions and the single pending replan epoch serves
	// the whole run.
	for i := range jobs {
		h.push(event{at: arrivals[i], kind: evArrival, job: i})
	}

	// Adaptive replication: a predictor fed by arriving bundles and an epoch
	// planner re-run against the live catalog and fault state. At most one
	// replan event is pending at a time; it stops rescheduling once the rest
	// of the queue drains, so the loop always terminates.
	var (
		pred      *replicate.Predictor
		planner   *replicate.Planner
		replStats ReplicationStats
		epochN    int // trace-facing epoch ordinal; replStats.Epochs mirrors it
	)
	if rc := opts.Replication; rc != nil {
		if opts.Grid == nil {
			return EventStats{}, fmt.Errorf("simulate: Replication requires Grid")
		}
		if rc.EpochSec <= 0 {
			return EventStats{}, fmt.Errorf("simulate: Replication.EpochSec must be positive")
		}
		halfLife := rc.HalfLifeSec
		if halfLife <= 0 {
			halfLife = 4 * rc.EpochSec
		}
		horizon := rc.RiskHorizonSec
		if horizon <= 0 {
			horizon = rc.EpochSec
		}
		pred = replicate.NewPredictor(replicate.PredictorConfig{
			HalfLifeSec: halfLife, Assoc: rc.Assoc,
		})
		planner, err = replicate.NewPlanner(opts.Grid.Topology, opts.Grid.Replicas, sizeOf, pred, replicate.PlannerConfig{
			Budget: rc.Budget, RetireBelow: rc.RetireBelow, RiskHorizonSec: horizon,
		})
		if err != nil {
			return EventStats{}, err
		}
		h.push(event{at: rc.EpochSec, kind: evReplan})
	}

	dispatch := func(now float64) {
		for slotsFree > 0 && len(waiting) > 0 {
			// Find the first waiting job whose bundle can coexist with the
			// currently pinned bytes (otherwise the policy could be forced
			// to evict pinned files). FIFO among eligible jobs.
			pick := -1
			for i, j := range waiting {
				b := w.Requests[jobs[j]]
				if b.TotalSize(sizeOf)+pinnedBytes <= capacity {
					pick = i
					break
				}
			}
			if pick < 0 {
				return
			}
			j := waiting[pick]
			waiting = append(waiting[:pick], waiting[pick+1:]...)
			if firstStage[j] < 0 {
				firstStage[j] = now
			}

			b := w.Requests[jobs[j]]
			res := p.Admit(b)
			if attempts[j] == 0 {
				bytesReq += res.BytesRequested
				bytesMiss += res.BytesLoaded
				if res.Unserviceable {
					oversized++
					continue
				}
				if res.Hit {
					hits++
				}
			} else {
				// A retried job's demand was already counted; only new miss
				// traffic (evicted between attempts) adds to the byte flow.
				bytesMiss += res.BytesLoaded
				if res.Unserviceable {
					oversized++
					continue
				}
			}
			toStage := res.Loaded
			if carry, ok := restage[j]; ok {
				toStage = toStage.Union(carry)
				delete(restage, j)
			}
			staged := now
			localServe := true
			if len(toStage) > 0 {
				if opts.Tracer != nil {
					opts.Tracer.Stage(obs.StageEvent{
						At: now, Phase: obs.StageStart, Job: j,
						Files: len(toStage), Bytes: int64(toStage.TotalSize(sizeOf)),
					})
				}
				out, err := archive.stage(now, j, toStage, sizeOf)
				if err != nil {
					stageErr = err
					return
				}
				if !out.ok {
					if opts.Tracer != nil {
						opts.Tracer.Stage(obs.StageEvent{
							At: out.at, Phase: obs.StageDone, Job: j, Files: len(toStage),
						})
					}
					// Staging abandoned: hold the slot until the failure is
					// discovered, then requeue or fail the job from evFailed.
					// Clone: toStage may alias the policy's Result scratch,
					// which the next Admit overwrites.
					restage[j] = toStage.Clone()
					slotsFree--
					h.push(event{at: out.at, kind: evFailed, job: j})
					continue
				}
				staged = out.at
				localServe = !out.remote
				if opts.Tracer != nil {
					opts.Tracer.Stage(obs.StageEvent{
						At: staged, Phase: obs.StageDone, Job: j,
						Files: len(toStage), OK: true,
					})
				}
			}
			stagings = append(stagings, staged-arrivals[j])

			if err := p.Cache().PinBundle(b); err != nil {
				// The eligibility check above should prevent this.
				panic(fmt.Sprintf("simulate: pin failed: %v", err))
			}
			pinnedBytes += b.TotalSize(sizeOf)
			slotsFree--
			done := staged + proc(b)
			handle := nextHandle
			nextHandle++
			inFlight[handle] = running{
				bundleRef: b, arrival: arrivals[j],
				jobIdx: j, hit: res.Hit, localServe: localServe,
				staged: staged, loaded: res.BytesLoaded,
			}
			h.push(event{at: done, kind: evCompletion, job: handle})
		}
	}

	for h.len() > 0 && stageErr == nil {
		e := h.pop()
		switch e.kind {
		case evArrival:
			if pred != nil {
				pred.Observe(e.at, w.Requests[jobs[e.job]], 1)
			}
			waiting = append(waiting, e.job)
			dispatch(e.at)
		case evCompletion:
			r := inFlight[e.job]
			delete(inFlight, e.job)
			if err := p.Cache().UnpinBundle(r.bundleRef); err != nil {
				panic(fmt.Sprintf("simulate: unpin failed: %v", err))
			}
			pinnedBytes -= r.bundleRef.TotalSize(sizeOf)
			slotsFree++
			if opts.Tracer != nil {
				opts.Tracer.JobServed(obs.JobServedEvent{
					At: e.at, Job: r.jobIdx, Hit: r.hit,
					ResponseSec:    e.at - r.arrival,
					StagingSec:     r.staged - r.arrival,
					QueuedAt:       r.arrival,
					FirstStageAt:   firstStage[r.jobIdx],
					BytesRequested: int64(r.bundleRef.TotalSize(sizeOf)),
					BytesLoaded:    int64(r.loaded),
				})
			}
			responses = append(responses, e.at-r.arrival)
			if recovery != nil {
				// The tracker's "hit" is the local-service flag: outages hurt
				// by forcing (or stalling) WAN staging, and that is exactly
				// what this ratio watches.
				recovery.ObserveJob(e.at, r.localServe)
			}
			if e.at > lastDone {
				lastDone = e.at
			}
			dispatch(e.at)
		case evFailed:
			slotsFree++
			attempts[e.job]++
			if attempts[e.job] < maxJobAttempts {
				rs.res.Requeues++
				waiting = append(waiting, e.job)
			} else {
				rs.res.FailedJobs++
				delete(restage, e.job)
				if e.at > lastDone {
					lastDone = e.at
				}
			}
			dispatch(e.at)
		case evReplan:
			if h.len() == 0 {
				// Everything else has drained: the run is over and a fresh
				// plan has nothing left to serve. Not rescheduling here is
				// what terminates the loop.
				break
			}
			ep := planner.Replan(e.at, inj)
			epochN++
			replStats.Epochs++
			replStats.Actions += int64(len(ep.Actions))
			replStats.Emergency += int64(ep.Emergency)
			replStats.Bytes += ep.PlannedBytes
			replStats.Retired += int64(len(ep.Retired))
			replStats.RetiredBytes += ep.RetiredBytes
			replStats.Unreachable += int64(len(ep.Unreachable))
			if opts.Tracer != nil {
				opts.Tracer.ReplicaPlan(obs.ReplicaPlanEvent{
					At: e.at, Epoch: epochN,
					Actions: len(ep.Actions), Emergency: ep.Emergency,
					Bytes:   int64(ep.PlannedBytes),
					Retired: len(ep.Retired), RetiredBytes: int64(ep.RetiredBytes),
					Unreachable: len(ep.Unreachable),
				})
			}
			h.push(event{at: e.at + opts.Replication.EpochSec, kind: evReplan})
		}
	}

	st := EventStats{
		Jobs:              int64(len(responses)),
		Makespan:          lastDone,
		BytesLoaded:       bytesMiss,
		UnservedOversized: oversized,
		Resilience:        rs.res,
		Replication:       replStats,
	}
	if recovery != nil {
		st.Recoveries = recovery.Finish()
	}
	if stageErr != nil {
		return EventStats{}, stageErr
	}
	if armed && gridArchive != nil {
		st.SiteDowntime = make([]float64, len(gridArchive.sites))
		for i := range st.SiteDowntime {
			st.SiteDowntime[i] = inj.DowntimeSeconds(i, lastDone)
		}
	}
	if lastDone > 0 {
		st.Throughput = float64(len(responses)) / lastDone
		st.MSSUtilization = archive.utilization(lastDone)
	}
	if len(responses) > 0 {
		var sum stats.Summary
		for _, r := range responses {
			sum.Add(r)
		}
		st.MeanResponse = sum.Mean()
		st.P95Response = stats.Quantile(responses, 0.95)
		st.HitRatio = float64(hits) / float64(len(responses))
	}
	if len(stagings) > 0 {
		var sum stats.Summary
		for _, s := range stagings {
			sum.Add(s)
		}
		st.MeanStaging = sum.Mean()
	}
	if bytesReq > 0 {
		st.ByteMissRatio = float64(bytesMiss) / float64(bytesReq)
	}
	sort.Float64s(responses) // determinism of downstream consumers
	return st, nil
}
