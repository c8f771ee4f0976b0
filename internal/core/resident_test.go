package core

import (
	"fmt"
	"math/rand"
	"testing"

	"fbcache/internal/bundle"
	"fbcache/internal/invariant"
)

// TestMaintainedCandidatesMatchDefinition holds the maintained §5.3
// candidate set to its definition, cache.Supports(e.Bundle.Minus(b)) over
// every history entry, in history order, after random sequences of
// admissions, history observations that bypass Admit, and loads and
// evictions made directly on Cache(). It also holds the set's charge for
// taking every candidate to s(U \ b) recounted from the union U, and a
// round that fits to the greedy's selection on every field the policy
// reads. File IDs range past one residency word and include zero-size
// files.
func TestMaintainedCandidatesMatchDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := range 300 {
		universe := 1 + rng.Intn(90)
		sizes := make([]bundle.Size, universe)
		for f := range sizes {
			sizes[f] = bundle.Size(rng.Intn(5))
		}
		sizeOf := func(f bundle.FileID) bundle.Size { return sizes[f] }
		randomBundle := func() bundle.Bundle {
			ids := make([]bundle.FileID, rng.Intn(6))
			for j := range ids {
				ids[j] = bundle.FileID(rng.Intn(universe))
			}
			return bundle.New(ids...)
		}
		p := New(bundle.Size(1+rng.Intn(3*universe)), sizeOf, DefaultOptions())
		c, h := p.Cache(), p.History()
		for step := range 200 {
			switch op := rng.Intn(10); {
			case op < 4:
				p.Admit(randomBundle())
			case op < 6:
				f := bundle.FileID(rng.Intn(universe))
				_ = c.Insert(f, sizes[f]) // may not fit: no change then
			case op < 8:
				_ = c.Evict(bundle.FileID(rng.Intn(universe))) // may be absent
			case op < 9:
				h.Observe(randomBundle())
			default:
				checkMaintainedRound(t, rng, p, randomBundle(), fmt.Sprintf("trial %d step %d", trial, step))
			}
		}
	}
}

// checkMaintainedRound runs the maintained set's part of a replacement
// round for incoming bundle b, under a random budget around the union's
// charge, and compares each answer with its definition.
func checkMaintainedRound(t *testing.T, rng *rand.Rand, p *OptFileBundle, b bundle.Bundle, where string) {
	t.Helper()
	c, h, rs := p.Cache(), p.History(), &p.resident
	var in fileSet
	for _, f := range b {
		in.add(f)
	}
	rs.sync(h, c, p.sizeOf)
	rs.gather(h, c.Missing(b))
	got := rs.appendCandidates(nil, h)

	var want []Candidate
	union := map[bundle.FileID]bool{}
	for j := range h.Len() {
		e := h.At(j)
		if c.Supports(e.Bundle.Minus(b)) {
			want = append(want, Candidate{Bundle: e.Bundle, Value: e.Value})
			for _, f := range e.Bundle {
				union[f] = true
			}
		}
	}
	if len(got) != len(want) || rs.candidates() != len(want) {
		t.Fatalf("%s: maintained set has %d candidates (count %d), definition %d",
			where, len(got), rs.candidates(), len(want))
	}
	for i := range want {
		if !got[i].Bundle.Equal(want[i].Bundle) || got[i].Value != want[i].Value {
			t.Fatalf("%s: candidate %d is %v (v=%v), definition %v (v=%v)",
				where, i, got[i].Bundle, got[i].Value, want[i].Bundle, want[i].Value)
		}
	}

	var charge bundle.Size
	for f := range union {
		if !b.Contains(f) {
			charge += p.sizeOf(f)
		}
	}
	budget := bundle.Size(rng.Intn(int(charge) + 2))
	used, ok := rs.fits(h, b, &in, budget)
	if used != charge || ok != (charge <= budget) {
		t.Fatalf("%s: fits reports %d bytes (ok %t) under budget %d, union charges %d",
			where, used, ok, budget, charge)
	}
	if !ok {
		return
	}
	sel := rs.selectAll(&p.selScratch, h, used)
	ref := Select(want, budget, SelectOptions{SizeOf: p.sizeOf, DegreeOf: h.DegreeFunc(), Resort: true, Free: b})
	if !sel.Files.Equal(ref.Files) || sel.Value != ref.Value || sel.BudgetUsed != ref.BudgetUsed ||
		len(sel.Chosen) != len(ref.Chosen) || sel.SingleWinner != ref.SingleWinner {
		t.Fatalf("%s: all-fit selection %+v, greedy %+v", where, sel, ref)
	}
}

// TestCacheResidentMissAllocatesNothing pins the steady-state cost of the
// shipped configuration: cache-resident admits that miss, run OptCacheSelect
// and evict allocate nothing once the scratch has grown. One measured run of
// four whole passes makes the count exact.
func TestCacheResidentMissAllocatesNothing(t *testing.T) {
	if invariant.Enabled {
		t.Skip("armed invariant checks box their format arguments")
	}
	p, bundles := warmAdmitLoop(missCapacity, missOptions, nil)
	misses, evicted := 0, 0
	allocs := testing.AllocsPerRun(1, func() {
		for range 4 {
			for _, bd := range bundles {
				res := p.Admit(bd)
				if !res.Hit {
					misses++
				}
				evicted += res.FilesEvicted
			}
		}
	})
	if misses == 0 || evicted == 0 {
		t.Fatalf("passes ran %d misses and %d evictions; want both > 0", misses, evicted)
	}
	if allocs != 0 {
		t.Errorf("steady-state cache-resident passes allocate %v times, want 0", allocs)
	}
}
