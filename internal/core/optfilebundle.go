package core

import (
	"fmt"
	"math"
	"slices"

	"fbcache/internal/bundle"
	"fbcache/internal/cache"
	"fbcache/internal/floats"
	"fbcache/internal/history"
	"fbcache/internal/invariant"
	"fbcache/internal/obs"
)

// Options configures an OptFileBundle policy instance.
type Options struct {
	// History configures the L(R) structure (truncation, limits).
	History history.Config
	// Resort enables the "Note" variant of OptCacheSelect (default in all
	// constructors; the literal Algorithm 1 is used when false).
	Resort bool
	// Prefetch enables the literal Algorithm 2 Step 3: files of selected
	// historical requests that are not resident are fetched eagerly
	// (F(Opt) \ F(C)). When false (the default), the selection only decides
	// which resident files to keep — no speculative traffic.
	Prefetch bool
	// SeedK, when > 0, uses SelectSeeded with this k on every replacement
	// decision. Expensive; intended for small candidate sets and the bound
	// ablation.
	SeedK int
	// LiteralEvict evicts every resident file outside the keep-set even when
	// the incoming request would fit without those evictions (the literal
	// cache rebuild of Algorithm 2). When false (default) eviction is lazy:
	// non-keep files leave only until enough space is free, lowest file
	// degree first.
	LiteralEvict bool
	// DecayEvery, when > 0, ages the history every N admissions by
	// multiplying all request values by DecayFactor (default 0.5), dropping
	// entries below 0.01. The paper's counters never forget; aging lets a
	// long-running cache follow workload drift.
	DecayEvery  int
	DecayFactor float64
}

// Result reports what one Admit call did.
type Result struct {
	// Hit is the request-hit indicator: every file was already resident.
	Hit bool
	// BytesRequested is the total size of the request's bundle.
	BytesRequested bundle.Size
	// BytesLoaded is the miss traffic this admission caused (including
	// prefetch traffic when enabled). The byte miss ratio of a run is
	// Σ BytesLoaded / Σ BytesRequested.
	BytesLoaded bundle.Size
	// FilesLoaded and FilesEvicted count file movements.
	FilesLoaded  int
	FilesEvicted int
	// Loaded lists the files fetched by this admission (demand + prefetch),
	// so timed simulators can schedule the actual transfers. It aliases
	// per-policy scratch: valid until the next Admit on the same policy —
	// callers that retain it across admissions must Clone (the SRM layer
	// does exactly that before releasing its lock).
	Loaded bundle.Bundle
	// Evicted lists the files this admission pushed out, so store-backed
	// deployments can delete the bytes. Same scratch lifetime as Loaded.
	Evicted bundle.Bundle
	// Unserviceable marks requests whose bundle exceeds the cache capacity;
	// no loading is attempted for them.
	Unserviceable bool
}

// OptFileBundle is the paper's replacement policy (Algorithm 2) bound to a
// cache and a request history. Create instances with New; the zero value is
// not usable.
type OptFileBundle struct {
	cache  *cache.Cache
	hist   *history.History
	sizeOf bundle.SizeFunc
	opts   Options

	// Per-Admit scratch, written by replace. OptFileBundle is
	// single-goroutine by contract (the SRM layer serializes).
	lastEvicted      int
	lastEvictedFiles []bundle.FileID
	prefetchBytes    bundle.Size
	prefetchFiles    int
	prefetched       []bundle.FileID
	admissions       int64

	// Selection and eviction scratch reused across admissions, so the
	// steady-state Admit path allocates nothing (DESIGN.md §13); the perf
	// contracts on the selector internals keep it that way.
	selScratch      resortState
	candScratch     []Candidate
	entriesScratch  []*history.Entry
	missScratch     bundle.Bundle
	loadedScratch   []bundle.FileID
	keepScratch     fileSet
	residentScratch bundle.Bundle
	evictScratch    bundle.Bundle

	// tracer, when non-nil, receives an AdmitEvent per Admit and a
	// SelectRoundEvent per OptCacheSelect run, stamped with the admission
	// ordinal (the policy has no clock).
	tracer obs.Tracer
}

// New builds an OptFileBundle policy over a fresh cache of the given
// capacity. sizeOf must report the size of every file that can be requested.
func New(capacity bundle.Size, sizeOf bundle.SizeFunc, opts Options) *OptFileBundle {
	if sizeOf == nil {
		panic("core: nil SizeFunc")
	}
	opts.Resort = true // constructors default to the practical variant
	return &OptFileBundle{
		cache:  cache.New(capacity),
		hist:   history.New(opts.History),
		sizeOf: sizeOf,
		opts:   opts,
	}
}

// NewWithOptions is like New but honours opts.Resort as given, allowing the
// literal Algorithm 1 greedy to be selected for ablation studies.
func NewWithOptions(capacity bundle.Size, sizeOf bundle.SizeFunc, opts Options) *OptFileBundle {
	if sizeOf == nil {
		panic("core: nil SizeFunc")
	}
	return &OptFileBundle{
		cache:  cache.New(capacity),
		hist:   history.New(opts.History),
		sizeOf: sizeOf,
		opts:   opts,
	}
}

// Name identifies the policy in experiment output.
func (p *OptFileBundle) Name() string {
	if p.opts.SeedK > 0 {
		return fmt.Sprintf("optfilebundle-k%d", p.opts.SeedK)
	}
	if !p.opts.Resort {
		return "optfilebundle-literal"
	}
	return "optfilebundle"
}

// Cache exposes the underlying cache (read-mostly; used by the SRM layer and
// tests).
func (p *OptFileBundle) Cache() *cache.Cache { return p.cache }

// SetTracer installs t on the policy and its cache (nil disables tracing).
// The policy emits Admit and SelectRound events; the cache emits per-file
// Load and Evict events.
func (p *OptFileBundle) SetTracer(t obs.Tracer) {
	p.tracer = t
	p.cache.SetTracer(t)
}

// emitAdmit publishes one AdmitEvent for res, stamped with the admission
// ordinal (Admit bumps it via maybeDecay before returning).
func (p *OptFileBundle) emitAdmit(res Result, files int) {
	p.tracer.Admit(obs.AdmitEvent{
		At:             float64(p.admissions),
		Policy:         p.Name(),
		Files:          files,
		BytesRequested: int64(res.BytesRequested),
		BytesLoaded:    int64(res.BytesLoaded),
		FilesLoaded:    res.FilesLoaded,
		FilesEvicted:   res.FilesEvicted,
		Hit:            res.Hit,
		Unserviceable:  res.Unserviceable,
	})
}

// History exposes the underlying L(R) structure.
func (p *OptFileBundle) History() *history.History { return p.hist }

// Admit processes one job request (Algorithm 2). On a request-hit nothing
// moves. On a miss the policy reserves space for the bundle, re-selects the
// most valuable historical requests for the remaining capacity via
// OptCacheSelect, evicts accordingly, and loads the missing files.
func (p *OptFileBundle) Admit(b bundle.Bundle) Result {
	res := Result{BytesRequested: b.TotalSize(p.sizeOf)}

	if res.BytesRequested > p.cache.Capacity() {
		res.Unserviceable = true
		p.hist.Observe(b) // the request still informs popularity
		p.maybeDecay()
		if p.tracer != nil {
			p.emitAdmit(res, len(b))
		}
		return res
	}

	if p.cache.Supports(b) {
		res.Hit = true
		p.hist.Observe(b)
		p.maybeDecay()
		if p.tracer != nil {
			p.emitAdmit(res, len(b))
		}
		return res
	}

	p.missScratch = p.cache.MissingAppend(p.missScratch[:0], b)
	missing := p.missScratch
	needed := missing.TotalSize(p.sizeOf)

	// Reset the per-admission scratch here, not in replace(): a miss with
	// enough free space skips replace entirely, and without the reset it
	// would report the previous admission's evictions and prefetches.
	p.lastEvicted = 0
	p.lastEvictedFiles = p.lastEvictedFiles[:0]
	p.prefetchBytes = 0
	p.prefetchFiles = 0
	p.prefetched = p.prefetched[:0]
	p.loadedScratch = p.loadedScratch[:0]

	if p.cache.Free() < needed || p.opts.LiteralEvict {
		p.replace(b, needed)
	}

	for _, f := range missing {
		if err := p.cache.Insert(f, p.sizeOf(f)); err != nil {
			// Space was sized above; an error here means pinned files block
			// the replacement. Surface loudly: the SRM layer must serialize.
			panic(fmt.Sprintf("core: load after replacement failed: %v", err))
		}
		res.FilesLoaded++
		res.BytesLoaded += p.sizeOf(f)
		p.loadedScratch = append(p.loadedScratch, f)
	}
	res.FilesEvicted = p.lastEvicted
	// FromSlice canonicalizes the scratch in place — no copy; Result
	// documents the aliasing.
	res.Evicted = bundle.FromSlice(p.lastEvictedFiles)

	if p.opts.Prefetch {
		res.BytesLoaded += p.prefetchBytes
		res.FilesLoaded += p.prefetchFiles
		p.loadedScratch = append(p.loadedScratch, p.prefetched...)
	}
	res.Loaded = bundle.FromSlice(p.loadedScratch)

	if invariant.Enabled {
		// All-or-nothing admission: a serviceable miss ends with the whole
		// bundle resident — Algorithm 2 never leaves a partial request behind.
		invariant.Check(p.cache.Supports(b),
			"core: Admit left bundle %v partially resident (missing %v)",
			b, p.cache.Missing(b))
		invariant.Check(p.cache.Used() <= p.cache.Capacity(),
			"core: Admit overfilled the cache: used %d > capacity %d",
			p.cache.Used(), p.cache.Capacity())
	}

	// Step 4: update L(R) after the replacement decision, as printed.
	p.hist.Observe(b)
	p.maybeDecay()
	if p.tracer != nil {
		p.emitAdmit(res, len(b))
	}
	return res
}

// maybeDecay ages the history on the configured cadence.
func (p *OptFileBundle) maybeDecay() {
	p.admissions++
	if p.opts.DecayEvery <= 0 || p.admissions%int64(p.opts.DecayEvery) != 0 {
		return
	}
	factor := p.opts.DecayFactor
	if factor <= 0 || factor > 1 {
		factor = 0.5
	}
	p.hist.Decay(factor, 0.01)
}

// replace frees space for an incoming bundle b whose missing files need
// `needed` bytes, using OptCacheSelect to decide what to keep.
func (p *OptFileBundle) replace(b bundle.Bundle, needed bundle.Size) {
	// The keep-set starts as the incoming bundle, which is also the set the
	// cache-resident filter tests against; the selection's files join it
	// after the round.
	keep := &p.keepScratch
	keep.reset()
	for _, f := range b {
		keep.add(f)
	}
	sel := p.runSelection(b, keep)
	for _, f := range sel.Files {
		keep.add(f)
	}

	p.residentScratch = p.cache.ResidentAppend(p.residentScratch[:0])
	p.evictScratch = p.evictScratch[:0]
	evictable := p.evictScratch
	for _, f := range p.residentScratch {
		if !keep.has(f) && !p.cache.Pinned(f) {
			evictable = append(evictable, f)
		}
	}
	p.evictScratch = evictable

	if p.opts.LiteralEvict {
		for _, f := range evictable {
			if err := p.cache.Evict(f); err == nil {
				p.lastEvicted++
				p.lastEvictedFiles = append(p.lastEvictedFiles, f)
			}
		}
	} else {
		p.evictLazy(evictable, needed)
	}

	// If pinned non-keep files block the space we need, shed unpinned
	// keep-set files (cheapest first) as a last resort.
	if p.cache.Free() < needed {
		p.shedKeep(b, needed)
	}

	if p.opts.Prefetch {
		for _, f := range sel.Files {
			// Files of the incoming bundle are demand-loaded by Admit;
			// prefetch only pulls other selected files.
			if b.Contains(f) || p.cache.Contains(f) {
				continue
			}
			size := p.sizeOf(f)
			// Never consume the space reserved for the incoming bundle's
			// missing files.
			if p.cache.Free()-size < needed {
				continue
			}
			if err := p.cache.Insert(f, size); err == nil {
				p.prefetchBytes += size
				p.prefetchFiles++
				p.prefetched = append(p.prefetched, f)
			}
		}
	}
}

// runSelection converts the (possibly truncated) history candidates into
// Select inputs and runs OptCacheSelect with the incoming bundle's space
// reserved (Free = b, capacity reduced by s(F(b))). in holds exactly b's
// files.
func (p *OptFileBundle) runSelection(b bundle.Bundle, in *fileSet) Selection {
	p.entriesScratch = p.hist.CandidatesAppend(p.entriesScratch[:0])
	entries := p.entriesScratch
	if p.opts.History.Truncation == history.CacheResident {
		// §5.3: offer only the requests the cache currently supports (plus
		// whatever overlaps the incoming bundle, which is Free anyway).
		// Degrees and values still come from the global history.
		entries = residentEntries(p.cache, entries, in)
	}
	cands := p.candScratch[:0]
	for _, e := range entries {
		cands = append(cands, Candidate{Bundle: e.Bundle, Value: e.Value})
	}
	p.candScratch = cands
	opts := SelectOptions{
		SizeOf:   p.sizeOf,
		DegreeOf: p.hist.CandidateDegreeFunc(entries),
		Resort:   p.opts.Resort,
		Free:     b,
	}
	budget := p.cache.Capacity() - b.TotalSize(p.sizeOf)
	var sel Selection
	if p.opts.SeedK > 0 {
		sel = selectSeededScratch(&p.selScratch, cands, budget, p.opts.SeedK, opts)
	} else {
		sel = selectScratch(&p.selScratch, cands, budget, opts)
	}
	if p.tracer != nil {
		// maybeDecay has not bumped the ordinal yet for this admission;
		// +1 keeps the round and its AdmitEvent on the same stamp.
		p.tracer.SelectRound(obs.SelectRoundEvent{
			At:           float64(p.admissions + 1),
			Candidates:   len(cands),
			Chosen:       len(sel.Chosen),
			Files:        len(sel.Files),
			Value:        sel.Value,
			Budget:       int64(budget),
			BudgetUsed:   int64(sel.BudgetUsed),
			SingleWinner: sel.SingleWinner,
		})
	}
	return sel
}

// residentEntries filters entries in place, keeping — in order — those
// whose every file is in the incoming bundle (stamped into in) or resident
// in c: the §5.3 cache-resident candidate set, c.Supports(e.Bundle.Minus(b))
// for each entry without materializing the difference. It runs once per
// history entry on every miss, so it stays allocation- and
// bounds-check-free.
//
//fbvet:noescape
//fbvet:nobce single-slice walks; membership tests are length-guarded
func residentEntries(c *cache.Cache, entries []*history.Entry, in *fileSet) []*history.Entry {
	filtered := entries[:0]
next:
	for _, e := range entries {
		for _, f := range e.Bundle {
			if !in.has(f) && !c.Contains(f) {
				continue next
			}
		}
		filtered = append(filtered, e)
	}
	return filtered
}

// RelativeValue scores a pending request for queue scheduling (§5.2
// "Incoming Queue Length", §5.3 queued experiments): the request's history
// value (1 if unseen) divided by the adjusted sizes of its files *not yet in
// the cache*. Fully resident requests score +Inf, so a queue drained in
// decreasing RelativeValue order serves request-hits first, then the
// cheapest valuable misses — exactly the paper's "serve the request of
// highest relative value in the queue" rule.
//
// It runs once per queued request per drain decision, so it carries perf
// contracts: no heap traffic, no residual bounds checks.
//
//fbvet:noescape
//fbvet:nobce
func (p *OptFileBundle) RelativeValue(b bundle.Bundle) float64 {
	value := 1.0
	if e, ok := p.hist.Lookup(b); ok {
		value = e.Value
	}
	deg := p.hist.DegreeFunc()
	denom := 0.0
	for _, f := range b {
		if p.cache.Contains(f) {
			continue
		}
		denom += float64(p.sizeOf(f)) / float64(deg(f))
	}
	if floats.AlmostZero(denom) {
		return math.Inf(1)
	}
	return value / denom
}

// evictLazy removes files from evictable, lowest degree first, until the
// cache can absorb `needed` bytes.
func (p *OptFileBundle) evictLazy(evictable bundle.Bundle, needed bundle.Size) {
	if p.cache.Free() >= needed {
		return
	}
	deg := p.hist.DegreeFunc()
	// slices.SortFunc, not sort.Slice: the reflection-based swapper
	// allocates per eviction round. The (degree, ID) key is a total order,
	// so the sort's instability cannot introduce nondeterminism.
	slices.SortFunc(evictable, func(a, b bundle.FileID) int {
		da, db := deg(a), deg(b)
		switch {
		case da < db:
			return -1
		case da > db:
			return 1
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	})
	for _, f := range evictable {
		if p.cache.Free() >= needed {
			return
		}
		if err := p.cache.Evict(f); err == nil {
			p.lastEvicted++
			p.lastEvictedFiles = append(p.lastEvictedFiles, f)
		}
	}
}

// shedKeep evicts unpinned keep-set files not required by b, smallest value
// first, until `needed` bytes are free. This only triggers when pins
// prevented normal replacement.
func (p *OptFileBundle) shedKeep(b bundle.Bundle, needed bundle.Size) {
	p.residentScratch = p.cache.ResidentAppend(p.residentScratch[:0])
	resident := p.residentScratch
	deg := p.hist.DegreeFunc()
	// The ID tie-break makes the (degree, ID) key a total order, so the
	// shed sequence is deterministic even under equal degrees.
	slices.SortFunc(resident, func(a, b bundle.FileID) int {
		da, db := deg(a), deg(b)
		switch {
		case da < db:
			return -1
		case da > db:
			return 1
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	})
	for _, f := range resident {
		if p.cache.Free() >= needed {
			return
		}
		if b.Contains(f) || p.cache.Pinned(f) {
			continue
		}
		if err := p.cache.Evict(f); err == nil {
			p.lastEvicted++
			p.lastEvictedFiles = append(p.lastEvictedFiles, f)
		}
	}
}
