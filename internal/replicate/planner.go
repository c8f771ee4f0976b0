package replicate

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"fbcache/internal/bundle"
	"fbcache/internal/grid"
)

// Availability is the planner's view of the fault state: which sites can
// serve as copy sources right now, and which are scheduled to go dark soon.
// *faults.Injector satisfies it; a nil Availability means every site is up
// forever.
type Availability interface {
	// Up reports whether the site is usable as a transfer source at time at.
	Up(site int, at float64) bool
	// DownWithin reports whether the site is scheduled to become unusable at
	// any point in [from, from+horizon).
	DownWithin(site int, from, horizon float64) bool
}

// PlannerConfig tunes the epoch re-planner.
type PlannerConfig struct {
	// Budget is the local replica space the planner may occupy (bytes).
	Budget bundle.Size
	// RetireBelow retires a planner-installed local replica when its decayed
	// heat falls below this threshold, reclaiming budget. <= 0 never retires.
	RetireBelow float64
	// RiskHorizonSec is the lookahead for emergency replication: a file whose
	// every live source goes dark within this horizon is copied now,
	// bypassing the heat ranking. <= 0 disables emergencies.
	RiskHorizonSec float64
}

// Epoch is the outcome of one Replan call.
type Epoch struct {
	// At is the sim-time the epoch ran.
	At float64
	// Actions are the replications applied this epoch (already committed to
	// the catalog), emergencies first.
	Actions []Action
	// Retired lists planner-installed replicas removed for coldness, sorted
	// by file ID.
	Retired []bundle.FileID
	// Unreachable lists hot files with no live source this epoch, sorted.
	Unreachable []bundle.FileID
	// Emergency counts Actions planned to outrun a scheduled outage.
	Emergency int
	// PlannedBytes and RetiredBytes are the byte totals moved and reclaimed.
	PlannedBytes bundle.Size
	RetiredBytes bundle.Size
}

// Planner re-plans replication each epoch against the current replica
// catalog and fault state. It owns a byte budget of local replica space:
// replicas it installs are tracked, cold ones are retired to reclaim budget,
// and an original (non-planted) replica is never removed — retirement can
// only undo the planner's own copies. Not safe for concurrent use.
type Planner struct {
	topo   *grid.Topology
	reps   *grid.Replicas
	sizeOf bundle.SizeFunc
	pred   *Predictor
	cfg    PlannerConfig
	// planted is dense, indexed by FileID; present marks a planted replica
	// (zero-size files can be planted, so size alone cannot).
	planted []plantedReplica
	used    bundle.Size

	// Per-epoch scratch, reused across Replan calls. None of it is handed
	// out: an Epoch's slices are always appended fresh.
	heat        []FileHeat
	ranked      []grid.Source
	emergencies []Action
	normal      []candidate
}

type plantedReplica struct {
	size    bundle.Size
	present bool
}

// NewPlanner wires a planner over the live topology, catalog and predictor.
func NewPlanner(topo *grid.Topology, reps *grid.Replicas, sizeOf bundle.SizeFunc, pred *Predictor, cfg PlannerConfig) (*Planner, error) {
	if topo == nil || reps == nil || sizeOf == nil || pred == nil {
		return nil, fmt.Errorf("replicate: nil planner input")
	}
	if cfg.Budget < 0 {
		cfg.Budget = 0
	}
	return &Planner{topo: topo, reps: reps, sizeOf: sizeOf, pred: pred, cfg: cfg}, nil
}

// PlantedBytes reports the budget currently occupied by planner replicas.
func (pl *Planner) PlantedBytes() bundle.Size { return pl.used }

// Replan runs one epoch at sim-time now: retire cold planted replicas,
// emergency-replicate files whose every live source is about to go dark,
// then fill the remaining budget densest-first from the predictor's decayed
// heat. Down sites are skipped as sources; files with no live source are
// reported, not fatal. The returned epoch's actions are already applied to
// the replica catalog.
func (pl *Planner) Replan(now float64, avail Availability) Epoch {
	ep := Epoch{At: now}
	pl.heat = pl.pred.appendSnapshot(pl.heat[:0], now)
	local := pl.topo.Local()

	// Retirement first, so the reclaimed budget is available this epoch.
	// The dense table is walked in file-ID order, so Retired is sorted.
	if pl.cfg.RetireBelow > 0 {
		for i := range pl.planted {
			p := &pl.planted[i]
			f := bundle.FileID(i)
			if !p.present || !(pl.pred.Heat(now, f) < pl.cfg.RetireBelow) {
				continue
			}
			// Never drop the last copy: planted replicas are copies of a
			// remote original, but guard against a catalog that lost it.
			if pl.reps.NumSitesOf(f) <= 1 {
				continue
			}
			pl.reps.Remove(f, local)
			pl.used -= p.size
			ep.Retired = append(ep.Retired, f)
			ep.RetiredBytes += p.size
			*p = plantedReplica{}
		}
	}

	// Candidates: hot, not yet local, with a live source. The snapshot is
	// in file-ID order, so the scan is deterministic and Unreachable sorted.
	pl.emergencies, pl.normal = pl.emergencies[:0], pl.normal[:0]
	for _, fh := range pl.heat {
		f := fh.File
		if fh.Heat <= 0 || pl.reps.Has(f, local) {
			continue
		}
		// Hysteresis: a file too cold to keep is too cold to plant, or the
		// same epoch would retire it and copy it straight back.
		if pl.cfg.RetireBelow > 0 && fh.Heat < pl.cfg.RetireBelow {
			continue
		}
		size := pl.sizeOf(f)
		// Rank once; the live-source pick and the risk test read the same
		// buffer.
		pl.ranked = pl.reps.AppendRankedSources(pl.ranked[:0], pl.topo, f, size)
		src, cost, live := bestLiveSource(pl.ranked, now, avail)
		if !live {
			// No registered replica, or every holder is dark right now.
			ep.Unreachable = append(ep.Unreachable, f)
			continue
		}
		a := Action{File: f, From: src, Size: size, Heat: fh.Heat}
		localCost := pl.topo.TransferSeconds(local, size)
		if !math.IsInf(cost, 0) && !math.IsInf(localCost, 0) {
			a.SavingsSec = cost - localCost
		}
		if pl.atRisk(pl.ranked, now, avail) {
			a.Emergency = true
			pl.emergencies = append(pl.emergencies, a)
			continue
		}
		// Normal candidates must actually save staging time.
		if a.SavingsSec <= 0 {
			continue
		}
		pl.normal = append(pl.normal, newCandidate(a))
	}

	// Emergencies bypass the heat ranking: hottest first so the budget
	// protects the files that hurt most to lose, ties on file ID.
	slices.SortFunc(pl.emergencies, hottestFirst)
	remaining := pl.cfg.Budget - pl.used
	for _, a := range pl.emergencies {
		if a.Size > remaining {
			continue
		}
		remaining -= a.Size
		ep.Actions = append(ep.Actions, a)
		ep.Emergency++
	}

	ep.Actions = greedy(ep.Actions, pl.normal, remaining)

	// Commit: the epoch's actions become planted local replicas.
	for _, a := range ep.Actions {
		pl.reps.Add(a.File, local)
		pl.plant(a.File, a.Size)
		pl.used += a.Size
		ep.PlannedBytes += a.Size
	}
	return ep
}

// plant records a planner-installed replica of f, growing the dense table
// (amortized geometrically by append) on first sight of a larger ID.
func (pl *Planner) plant(f bundle.FileID, size bundle.Size) {
	if int(f) >= len(pl.planted) {
		pl.planted = append(pl.planted, make([]plantedReplica, int(f)+1-len(pl.planted))...)
	}
	pl.planted[f] = plantedReplica{size: size, present: true}
}

// hottestFirst orders emergencies by heat descending, then file ID. The
// order is total over distinct files, so any sort gives one result.
func hottestFirst(x, y Action) int {
	if x.Heat != y.Heat { //fbvet:allow floateq — strict ordering only; ties fall through to file ID
		if x.Heat > y.Heat {
			return -1
		}
		return 1
	}
	return cmp.Compare(x.File, y.File)
}

// bestLiveSource picks the cheapest ranked source that is up at now.
func bestLiveSource(ranked []grid.Source, now float64, avail Availability) (grid.SiteID, float64, bool) {
	for _, s := range ranked {
		if avail == nil || avail.Up(int(s.Site), now) {
			return s.Site, s.Cost, true
		}
	}
	return 0, 0, false
}

// atRisk reports whether every currently-live ranked source is scheduled to
// go dark within the risk horizon — the emergency-replication trigger.
func (pl *Planner) atRisk(ranked []grid.Source, now float64, avail Availability) bool {
	if avail == nil || pl.cfg.RiskHorizonSec <= 0 {
		return false
	}
	anyLive := false
	for _, s := range ranked {
		if !avail.Up(int(s.Site), now) {
			continue
		}
		anyLive = true
		if !avail.DownWithin(int(s.Site), now, pl.cfg.RiskHorizonSec) {
			return false // at least one source rides out the horizon
		}
	}
	return anyLive
}
