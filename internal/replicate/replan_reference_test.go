package replicate

import (
	"math"
	"sort"

	"fbcache/internal/bundle"
	"fbcache/internal/floats"
	"fbcache/internal/grid"
	"fbcache/internal/history"
)

// This file keeps the map-and-sort predictor and planners that the dense
// tables replaced, verbatim apart from names, as a test-only oracle:
// FuzzReplanMatchesReference drives them and the production code through
// the same streams and requires identical epochs, plans and catalogs.

// rankedSourcesReference is the sort.SliceStable ranking that
// Replicas.AppendRankedSources replaced.
func rankedSourcesReference(reps *grid.Replicas, t *grid.Topology, f bundle.FileID, size bundle.Size) []grid.Source {
	var out []grid.Source
	for _, s := range reps.Sites(f) {
		c := t.TransferSeconds(s, size)
		if math.IsInf(c, 1) {
			continue
		}
		out = append(out, grid.Source{Site: s, Cost: c})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cost < out[j].Cost })
	return out
}

func hasLocalReference(reps *grid.Replicas, f bundle.FileID, local grid.SiteID) bool {
	for _, s := range reps.Sites(f) {
		if s == local {
			return true
		}
	}
	return false
}

// predictorReference is the map-backed Predictor.
type predictorReference struct {
	cfg  PredictorConfig
	heat map[bundle.FileID]heatState
}

func newPredictorReference(cfg PredictorConfig) *predictorReference {
	return &predictorReference{cfg: cfg.withDefaults(), heat: make(map[bundle.FileID]heatState)}
}

func (p *predictorReference) decayTo(s heatState, now float64) heatState {
	dt := now - s.last
	if dt > 0 {
		s.heat *= math.Exp2(-dt / p.cfg.HalfLifeSec)
		s.last = now
	}
	return s
}

func (p *predictorReference) add(now float64, f bundle.FileID, v float64) {
	s := p.decayTo(p.heat[f], now)
	s.heat += v
	if s.last < now {
		s.last = now
	}
	p.heat[f] = s
}

func (p *predictorReference) Observe(now float64, b bundle.Bundle, value float64) {
	for _, f := range b {
		p.add(now, f, value)
	}
	if p.cfg.Assoc == nil {
		return
	}
	for _, f := range b {
		for _, g := range p.cfg.Assoc.Related(f, p.cfg.AssocFanOut, p.cfg.AssocMinConfidence) {
			p.add(now, g, p.cfg.AssocBoost*p.cfg.Assoc.Confidence(f, g)*value)
		}
	}
}

func (p *predictorReference) Heat(now float64, f bundle.FileID) float64 {
	return p.decayTo(p.heat[f], now).heat
}

func (p *predictorReference) Snapshot(now float64) []FileHeat {
	var out []FileHeat
	for f, s := range p.heat {
		out = append(out, FileHeat{File: f, Heat: p.decayTo(s, now).heat})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].File < out[j].File })
	return out
}

// plannerReference is the map-backed Planner.
type plannerReference struct {
	topo    *grid.Topology
	reps    *grid.Replicas
	sizeOf  bundle.SizeFunc
	pred    *predictorReference
	cfg     PlannerConfig
	planted map[bundle.FileID]bundle.Size
	used    bundle.Size
}

func newPlannerReference(topo *grid.Topology, reps *grid.Replicas, sizeOf bundle.SizeFunc, pred *predictorReference, cfg PlannerConfig) *plannerReference {
	if cfg.Budget < 0 {
		cfg.Budget = 0
	}
	return &plannerReference{
		topo: topo, reps: reps, sizeOf: sizeOf, pred: pred, cfg: cfg,
		planted: make(map[bundle.FileID]bundle.Size),
	}
}

func (pl *plannerReference) Replan(now float64, avail Availability) Epoch {
	ep := Epoch{At: now}
	heat := pl.pred.Snapshot(now)
	local := pl.topo.Local()

	if pl.cfg.RetireBelow > 0 {
		var retire []bundle.FileID
		for f := range pl.planted {
			if pl.pred.Heat(now, f) < pl.cfg.RetireBelow {
				retire = append(retire, f)
			}
		}
		sort.Slice(retire, func(i, j int) bool { return retire[i] < retire[j] })
		for _, f := range retire {
			if len(pl.reps.Sites(f)) <= 1 {
				continue
			}
			pl.reps.Remove(f, local)
			size := pl.planted[f]
			delete(pl.planted, f)
			pl.used -= size
			ep.Retired = append(ep.Retired, f)
			ep.RetiredBytes += size
		}
	}

	var emergencies, normal []Action
	for _, fh := range heat {
		f := fh.File
		if fh.Heat <= 0 || hasLocalReference(pl.reps, f, local) {
			continue
		}
		if pl.cfg.RetireBelow > 0 && fh.Heat < pl.cfg.RetireBelow {
			continue
		}
		size := pl.sizeOf(f)
		src, cost, live := pl.bestLiveSource(f, size, now, avail)
		if !live {
			ep.Unreachable = append(ep.Unreachable, f)
			continue
		}
		a := Action{File: f, From: src, Size: size, Heat: fh.Heat}
		localCost := pl.topo.TransferSeconds(local, size)
		if !math.IsInf(cost, 0) && !math.IsInf(localCost, 0) {
			a.SavingsSec = cost - localCost
		}
		if pl.atRisk(f, size, now, avail) {
			a.Emergency = true
			emergencies = append(emergencies, a)
			continue
		}
		if a.SavingsSec <= 0 {
			continue
		}
		normal = append(normal, a)
	}

	sort.Slice(emergencies, func(i, j int) bool {
		if emergencies[i].Heat != emergencies[j].Heat { //fbvet:allow floateq — strict ordering only; ties fall through to file ID
			return emergencies[i].Heat > emergencies[j].Heat
		}
		return emergencies[i].File < emergencies[j].File
	})
	remaining := pl.cfg.Budget - pl.used
	for _, a := range emergencies {
		if a.Size > remaining {
			continue
		}
		remaining -= a.Size
		ep.Actions = append(ep.Actions, a)
		ep.Emergency++
	}

	ep.Actions = append(ep.Actions, greedyReference(normal, remaining)...)

	for _, a := range ep.Actions {
		pl.reps.Add(a.File, local)
		pl.planted[a.File] = a.Size
		pl.used += a.Size
		ep.PlannedBytes += a.Size
	}
	return ep
}

func (pl *plannerReference) bestLiveSource(f bundle.FileID, size bundle.Size, now float64, avail Availability) (grid.SiteID, float64, bool) {
	for _, s := range rankedSourcesReference(pl.reps, pl.topo, f, size) {
		if avail == nil || avail.Up(int(s.Site), now) {
			return s.Site, s.Cost, true
		}
	}
	return 0, 0, false
}

func (pl *plannerReference) atRisk(f bundle.FileID, size bundle.Size, now float64, avail Availability) bool {
	if avail == nil || pl.cfg.RiskHorizonSec <= 0 {
		return false
	}
	anyLive := false
	for _, s := range rankedSourcesReference(pl.reps, pl.topo, f, size) {
		if !avail.Up(int(s.Site), now) {
			continue
		}
		anyLive = true
		if !avail.DownWithin(int(s.Site), now, pl.cfg.RiskHorizonSec) {
			return false
		}
	}
	return anyLive
}

// planReference is the map-and-sort static Plan.
func planReference(hist *history.History, topo *grid.Topology, reps *grid.Replicas, sizeOf bundle.SizeFunc, budget bundle.Size) Result {
	if budget < 0 {
		budget = 0
	}
	heat := make(map[bundle.FileID]float64)
	for _, e := range hist.Candidates() {
		for _, f := range e.Bundle {
			heat[f] += e.Value
		}
	}

	var res Result
	local := topo.Local()
	files := make([]bundle.FileID, 0, len(heat))
	for f := range heat {
		files = append(files, f)
	}
	sort.Slice(files, func(i, j int) bool { return files[i] < files[j] })
	var candidates []Action
	for _, f := range files {
		h := heat[f]
		size := sizeOf(f)
		if hasLocalReference(reps, f, local) {
			continue
		}
		ranked := rankedSourcesReference(reps, topo, f, size)
		if len(ranked) == 0 {
			res.Unreachable = append(res.Unreachable, f)
			continue
		}
		src, cost := ranked[0].Site, ranked[0].Cost
		localCost := topo.TransferSeconds(local, size)
		saving := cost - localCost
		if saving <= 0 || math.IsInf(saving, 0) {
			continue
		}
		candidates = append(candidates, Action{
			File: f, From: src, Size: size,
			SavingsSec: saving, Heat: h,
		})
	}
	sort.Slice(res.Unreachable, func(i, j int) bool { return res.Unreachable[i] < res.Unreachable[j] })

	res.Actions = greedyReference(candidates, budget)
	return res
}

// greedyReference is the sort.Slice greedy fill, density recomputed on
// every comparison.
func greedyReference(candidates []Action, budget bundle.Size) []Action {
	sort.Slice(candidates, func(i, j int) bool {
		di := density(candidates[i])
		dj := density(candidates[j])
		if !floats.AlmostEqual(di, dj) {
			return di > dj
		}
		if candidates[i].Size != candidates[j].Size {
			return candidates[i].Size > candidates[j].Size
		}
		return candidates[i].File < candidates[j].File
	})

	var plan []Action
	var used bundle.Size
	for _, a := range candidates {
		if used == budget {
			break
		}
		if used+a.Size > budget {
			continue
		}
		used += a.Size
		plan = append(plan, a)
	}
	return plan
}
