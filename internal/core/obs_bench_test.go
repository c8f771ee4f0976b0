package core

import (
	"math/rand"
	"testing"

	"fbcache/internal/bundle"
	"fbcache/internal/obs"
)

// BenchmarkOptCacheSelect measures the steady-state Admit loop with and
// without a tracer installed, in two cache configurations:
//
//   - /baseline and /nop: a 1 000-unit cache that holds every bundle, so
//     after the warm-up every admit is a request-hit (history update only;
//     OptCacheSelect never runs).
//   - /miss/baseline and /miss/nop: the shipped configuration — §5.3
//     cache-resident history — over a 100-unit cache, so most admits miss
//     and run the candidate filter, an OptCacheSelect round and eviction.
//
// Each variant reports its request-hit share as hits/op. The /baseline and
// /nop twins must report identical allocs/op: the emit sites are a
// nil-interface check when untraced and event structs are built only inside
// that guard, so the no-op tracer costs a few empty dynamic calls per
// admission. CI's bench-guard job gates that, and gates /miss at 0 allocs/op.
func BenchmarkOptCacheSelect(b *testing.B) {
	run := func(b *testing.B, tracer obs.Tracer, capacity bundle.Size, opts Options) {
		p, bundles := warmAdmitLoop(capacity, opts, tracer)
		hits := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if p.Admit(bundles[i%len(bundles)]).Hit {
				hits++
			}
		}
		b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
	}
	b.Run("baseline", func(b *testing.B) { run(b, nil, 1000, Options{}) })
	b.Run("nop", func(b *testing.B) { run(b, obs.NopTracer{}, 1000, Options{}) })
	b.Run("miss/baseline", func(b *testing.B) { run(b, nil, missCapacity, missOptions) })
	b.Run("miss/nop", func(b *testing.B) { run(b, obs.NopTracer{}, missCapacity, missOptions) })
}

// missCapacity and missOptions are the /miss configuration: the shipped
// §5.3 cache-resident history over a cache a tenth the size of the hit
// variant's, small enough that about 71% of admits miss.
const missCapacity = 100

var missOptions = DefaultOptions()

// warmAdmitLoop builds a unit-size policy and the 256 bundles (1–5 files out
// of 2 000) it cycles through, then runs four warm-up passes: first-time
// observations insert history entries (Entry, bundle clone, map growth), and
// the selection scratch — per-file posting lists above all — grows toward its
// steady size over the first passes of the miss variant. That is one-time
// setup cost. What follows is the steady state, which must be 0 allocs/op
// (DESIGN.md §13).
func warmAdmitLoop(capacity bundle.Size, opts Options, tracer obs.Tracer) (*OptFileBundle, []bundle.Bundle) {
	rng := rand.New(rand.NewSource(7))
	p := New(capacity, unitSize, opts)
	if tracer != nil {
		p.SetTracer(tracer)
	}
	bundles := make([]bundle.Bundle, 256)
	for i := range bundles {
		ids := make([]bundle.FileID, 1+rng.Intn(5))
		for j := range ids {
			ids[j] = bundle.FileID(rng.Intn(2000))
		}
		bundles[i] = bundle.New(ids...)
	}
	for range 4 {
		for _, bd := range bundles {
			p.Admit(bd)
		}
	}
	return p, bundles
}
