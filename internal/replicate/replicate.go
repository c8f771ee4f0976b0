// Package replicate implements the "strategic data replication" building
// block of §1: given the observed request history, the grid topology and
// the current replica catalog, it plans which files to copy to the local
// site so that future staging is cheap — greedy by expected transfer-time
// savings per replicated byte, under a replication-space budget.
//
// Two planning modes are provided. Plan is the original offline pass over a
// request history's cumulative heat. Planner runs the same greedy core
// online: an EWMA Predictor replaces raw cumulative heat so popularity
// drift shows up, each epoch re-plans against the current replica catalog
// and fault state (down sites are skipped as sources), cold planner-installed
// replicas are retired to reclaim budget, and files whose every live source
// is about to go dark are emergency-replicated ahead of the outage.
//
// The planners are advisory: Plan returns actions, Apply commits them to
// the replica catalog (Planner.Replan applies its own epoch directly).
// Deployments would run them periodically off the SRM's history.
package replicate

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"fbcache/internal/bundle"
	"fbcache/internal/floats"
	"fbcache/internal/grid"
	"fbcache/internal/history"
)

// Action is one planned replication: copy File from From to the local site.
type Action struct {
	File bundle.FileID
	From grid.SiteID
	Size bundle.Size
	// SavingsSec is the expected staging-time saving per future access.
	SavingsSec float64
	// Heat is the file's observed access weight (sum of request values of
	// the history entries using it, or the predictor's decayed heat).
	Heat float64
	// Emergency marks an action planned to outrun a scheduled outage rather
	// than won on heat×savings density (see Planner.Replan).
	Emergency bool
}

// Result is a computed replication plan plus its diagnostics.
type Result struct {
	// Actions is the planned copy list, densest-first.
	Actions []Action
	// Unreachable lists hot files that currently have no reachable replica,
	// sorted by file ID. Mid-outage planning must degrade, not abort: such
	// files are skipped and reported so the caller can decide — they become
	// candidates again once a holder resurfaces.
	Unreachable []bundle.FileID
}

// Plan computes a replication plan within `budget` bytes of local replica
// space. Files already replicated locally are skipped; files without any
// reachable replica are skipped and reported in Result.Unreachable.
func Plan(hist *history.History, topo *grid.Topology, reps *grid.Replicas, sizeOf bundle.SizeFunc, budget bundle.Size) (Result, error) {
	if hist == nil || topo == nil || reps == nil || sizeOf == nil {
		return Result{}, fmt.Errorf("replicate: nil input")
	}
	if budget < 0 {
		budget = 0
	}

	// File heat: Σ value of history entries using the file, accumulated
	// into a dense table so the candidate scan walks it in file-ID order.
	type fileHeat struct {
		sum  float64
		seen bool // zero-value entries still count as observed
	}
	var heat []fileHeat
	for _, e := range hist.Candidates() {
		for _, f := range e.Bundle {
			if int(f) >= len(heat) {
				heat = append(heat, make([]fileHeat, int(f)+1-len(heat))...)
			}
			heat[f].sum += e.Value
			heat[f].seen = true
		}
	}

	var res Result
	local := topo.Local()
	var ranked []grid.Source
	var candidates []candidate
	for i, fh := range heat {
		if !fh.seen {
			continue
		}
		f := bundle.FileID(i)
		size := sizeOf(f)
		if reps.Has(f, local) {
			continue
		}
		ranked = reps.AppendRankedSources(ranked[:0], topo, f, size)
		if len(ranked) == 0 {
			res.Unreachable = append(res.Unreachable, f)
			continue
		}
		localCost := topo.TransferSeconds(local, size)
		saving := ranked[0].Cost - localCost
		if saving <= 0 || math.IsInf(saving, 0) {
			continue
		}
		candidates = append(candidates, newCandidate(Action{
			File: f, From: ranked[0].Site, Size: size,
			SavingsSec: saving, Heat: fh.sum,
		}))
	}

	res.Actions = greedy(nil, candidates, budget)
	return res, nil
}

// candidate is an Action with its greedy sort key computed once, not on
// every comparison.
type candidate struct {
	Action
	density float64
}

func newCandidate(a Action) candidate { return candidate{Action: a, density: density(a)} }

// greedy fills the byte budget densest-first, appending the picks to dst.
// Ties on density go to the larger Size first (equal per-byte efficiency,
// more absolute saving — and zero-size files, whose density is +Inf,
// cannot starve large high-saving candidates of their budget), then to the
// smaller FileID.
//
// candidates is sorted in place, and only when the plan could be
// non-empty: a zero budget stops the fill before its first pick, and a
// candidate larger than the whole budget never fits, so if none fits the
// plan is empty in any order. The tolerant density test (AlmostEqual) is
// not transitive, so the order is whatever pdqsort makes of it;
// slices.SortFunc runs the same pdqsort as the sort.Slice it replaced
// (DESIGN.md §12.1).
func greedy(dst []Action, candidates []candidate, budget bundle.Size) []Action {
	if !anyFits(candidates, budget) {
		return dst
	}
	slices.SortFunc(candidates, byDensity)

	var used bundle.Size
	for i := range candidates {
		a := &candidates[i].Action
		if used == budget {
			break // budget exactly consumed; no candidate can fit
		}
		if used+a.Size > budget {
			continue
		}
		used += a.Size
		dst = append(dst, *a)
	}
	return dst
}

// anyFits reports whether greedy could pick anything from candidates.
func anyFits(candidates []candidate, budget bundle.Size) bool {
	if budget == 0 {
		return false
	}
	for i := range candidates {
		if candidates[i].Size <= budget {
			return true
		}
	}
	return false
}

// byDensity orders candidates for greedy: density descending (tolerant),
// then Size descending, then FileID ascending. Its negative results are
// exactly the less function the pdqsort decisions read.
func byDensity(x, y candidate) int {
	if !floats.AlmostEqual(x.density, y.density) {
		if x.density > y.density {
			return -1
		}
		return 1
	}
	if x.Size != y.Size {
		if x.Size > y.Size {
			return -1
		}
		return 1
	}
	return cmp.Compare(x.File, y.File)
}

// density is heat-weighted saving per byte; zero-size files rank first.
func density(a Action) float64 {
	total := a.Heat * a.SavingsSec
	if a.Size <= 0 {
		return math.Inf(1)
	}
	return total / float64(a.Size)
}

// Apply commits a plan to the replica catalog (adds local replicas).
func Apply(plan []Action, topo *grid.Topology, reps *grid.Replicas) {
	for _, a := range plan {
		reps.Add(a.File, topo.Local())
	}
}

// TotalBytes reports the replica space a plan consumes.
func TotalBytes(plan []Action) bundle.Size {
	var total bundle.Size
	for _, a := range plan {
		total += a.Size
	}
	return total
}
