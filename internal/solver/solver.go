// Package solver provides exact reference algorithms for the File-Bundle
// Caching (FBC) problem of §4: a branch-and-bound optimal solver for small
// instances, a 0/1 knapsack dynamic program for the special case where each
// file belongs to exactly one request, and the Dense-k-Subgraph reduction
// used in the paper's NP-hardness proof.
//
// These exist to validate the OptCacheSelect approximation bound
// (Theorem 4.1) experimentally; they are exponential/pseudo-polynomial and
// intended for instances of at most a few dozen requests.
package solver

import (
	"fmt"
	"math"
	"sort"

	"fbcache/internal/bundle"
	"fbcache/internal/core"
)

// Solution is an exact optimum of an FBC instance.
type Solution struct {
	Value  float64
	Chosen []int // candidate indices, ascending
	Files  bundle.Bundle
}

// MaxExactRequests bounds the instance size SolveExact accepts.
const MaxExactRequests = 40

// SolveExact computes the optimal request subset by branch and bound.
// It panics if the instance exceeds MaxExactRequests (the search is
// exponential in the worst case).
func SolveExact(cands []core.Candidate, capacity bundle.Size, sizeOf bundle.SizeFunc) Solution {
	if len(cands) > MaxExactRequests {
		panic(fmt.Sprintf("solver: %d requests exceeds MaxExactRequests=%d", len(cands), MaxExactRequests))
	}
	if sizeOf == nil {
		panic("solver: nil SizeFunc")
	}
	if capacity < 0 {
		capacity = 0
	}

	// Order candidates by value density so good solutions are found early and
	// pruning bites. Keep original indices for the answer.
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	density := func(i int) float64 {
		s := cands[i].Bundle.TotalSize(sizeOf)
		if s <= 0 {
			// A zero-size bundle occupies no capacity: any positive value makes
			// it infinitely dense, and a worthless one sorts last. Dividing
			// would yield NaN/±Inf by accident; make the ordering explicit.
			if cands[i].Value > 0 {
				return math.Inf(1)
			}
			return 0
		}
		return cands[i].Value / float64(s)
	}
	sort.SliceStable(order, func(a, b int) bool { return density(order[a]) > density(order[b]) })

	// suffixValue[k] = total value of order[k:], an admissible upper bound.
	suffixValue := make([]float64, len(order)+1)
	for k := len(order) - 1; k >= 0; k-- {
		suffixValue[k] = suffixValue[k+1] + cands[order[k]].Value
	}

	best := Solution{}
	chosenFiles := make(map[bundle.FileID]bool)
	var chosen []int
	var used bundle.Size

	var dfs func(k int, value float64)
	dfs = func(k int, value float64) {
		if value > best.Value {
			best.Value = value
			best.Chosen = append([]int(nil), chosen...)
			files := make([]bundle.FileID, 0, len(chosenFiles))
			for f := range chosenFiles {
				files = append(files, f)
			}
			sort.Slice(files, func(i, j int) bool { return files[i] < files[j] })
			best.Files = bundle.FromSlice(files)
		}
		if k == len(order) || value+suffixValue[k] <= best.Value {
			return
		}
		idx := order[k]
		// Branch 1: include, if the incremental files fit.
		var inc bundle.Size
		var added []bundle.FileID
		for _, f := range cands[idx].Bundle {
			if !chosenFiles[f] {
				inc += sizeOf(f)
				added = append(added, f)
			}
		}
		if used+inc <= capacity {
			for _, f := range added {
				chosenFiles[f] = true
			}
			used += inc
			chosen = append(chosen, idx)
			dfs(k+1, value+cands[idx].Value)
			chosen = chosen[:len(chosen)-1]
			used -= inc
			for _, f := range added {
				delete(chosenFiles, f)
			}
		}
		// Branch 2: exclude.
		dfs(k+1, value)
	}
	dfs(0, 0)
	sort.Ints(best.Chosen)
	return best
}

// KnapsackItem is one item of a 0/1 knapsack instance.
type KnapsackItem struct {
	Value  float64
	Weight int64
}

// maxDPCapacity bounds the Knapsack DP table. The solver is pseudo-polynomial
// in the capacity; past ~1 GiB of table the exact DP is the wrong tool anyway.
const maxDPCapacity = 1 << 30

// Knapsack solves 0/1 knapsack exactly by dynamic programming over capacity.
// It returns the optimal value and the chosen item indices (ascending).
// Negative-weight items are rejected with a panic; zero-weight items are
// always taken when their value is positive.
func Knapsack(items []KnapsackItem, capacity int64) (float64, []int) {
	if capacity < 0 {
		capacity = 0
	}
	for i, it := range items {
		if it.Weight < 0 {
			panic(fmt.Sprintf("solver: item %d has negative weight", i))
		}
	}
	if capacity > maxDPCapacity {
		panic(fmt.Sprintf("solver: knapsack capacity %d exceeds %d; the pseudo-polynomial DP table would not fit", capacity, maxDPCapacity))
	}
	w := int(capacity)
	dp := make([]float64, w+1)
	take := make([][]bool, len(items))
	for i, it := range items {
		take[i] = make([]bool, w+1)
		if it.Weight > capacity {
			continue
		}
		wt := int(it.Weight)
		for c := w; c >= wt; c-- {
			if cand := dp[c-wt] + it.Value; cand > dp[c] {
				dp[c] = cand
				take[i][c] = true
			}
		}
	}
	// Recover choices.
	var chosen []int
	c := w
	for i := len(items) - 1; i >= 0; i-- {
		if take[i][c] {
			chosen = append(chosen, i)
			c -= int(items[i].Weight)
		}
	}
	sort.Ints(chosen)
	return dp[w], chosen
}

// Edge is an undirected graph edge for the DKS reduction.
type Edge struct{ U, V int }

// DKSToFBC performs the paper's §4 reduction from Dense-k-Subgraph to FBC:
// each vertex becomes a unit-size file, each edge a 2-file request of value
// 1, and the cache capacity is k. A solution to the FBC instance of value m
// selects k vertices inducing m edges.
func DKSToFBC(numVertices int, edges []Edge, k int) ([]core.Candidate, bundle.Size, bundle.SizeFunc) {
	cands := make([]core.Candidate, 0, len(edges))
	for _, e := range edges {
		if e.U < 0 || e.V < 0 || e.U >= numVertices || e.V >= numVertices || e.U == e.V {
			panic(fmt.Sprintf("solver: bad edge %+v for %d vertices", e, numVertices))
		}
		cands = append(cands, core.Candidate{
			Bundle: bundle.New(bundle.FileID(e.U), bundle.FileID(e.V)),
			Value:  1,
		})
	}
	return cands, bundle.Size(k), func(bundle.FileID) bundle.Size { return 1 }
}

// MaxDegree computes d — the largest number of candidates sharing one file —
// the constant in the Theorem 4.1 bound.
func MaxDegree(cands []core.Candidate) int {
	deg := make(map[bundle.FileID]int)
	max := 0
	for _, c := range cands {
		for _, f := range c.Bundle {
			deg[f]++
			if deg[f] > max {
				max = deg[f]
			}
		}
	}
	return max
}
