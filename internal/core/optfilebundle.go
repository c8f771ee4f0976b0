package core

import (
	"fmt"
	"math"
	"math/bits"
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
}

// DefaultOptions returns the shipped configuration: §5.3 cache-resident
// history truncation. The zero Options is the paper's §3 full-history model.
func DefaultOptions() Options {
	return Options{History: history.Config{Truncation: history.CacheResident}}
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
	selScratch     resortState
	candScratch    []Candidate
	entriesScratch []*history.Entry
	missScratch    bundle.Bundle
	loadedScratch  []bundle.FileID
	keepScratch    fileSet
	evictScratch   []uint64

	// resident is the §5.3 candidate set, maintained across admissions
	// under cache-resident truncation (DESIGN.md §13.6).
	resident residentSet

	// tracer, when non-nil, receives an AdmitEvent per Admit and a
	// SelectRoundEvent per OptCacheSelect run, stamped with the admission
	// ordinal (the policy has no clock).
	tracer obs.Tracer
}

// New builds an OptFileBundle policy over a fresh cache of the given
// capacity. sizeOf must report the size of every file that can be requested.
// It always selects with the resort greedy (SelectOptions.Resort).
func New(capacity bundle.Size, sizeOf bundle.SizeFunc, opts Options) *OptFileBundle {
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
// ordinal.
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
	p.admissions++
	res := Result{BytesRequested: b.TotalSize(p.sizeOf)}

	if res.BytesRequested > p.cache.Capacity() {
		res.Unserviceable = true
		p.hist.Observe(b) // the request still informs popularity
		if p.tracer != nil {
			p.emitAdmit(res, len(b))
		}
		return res
	}

	if p.cache.Supports(b) {
		res.Hit = true
		p.hist.Observe(b)
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
		p.replace(b, needed, p.cache.Capacity()-res.BytesRequested)
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
	if p.tracer != nil {
		p.emitAdmit(res, len(b))
	}
	return res
}

// replace frees space for an incoming bundle b whose missing files need
// `needed` bytes, using OptCacheSelect to decide what to keep among the
// requests that fit budget, the capacity left after b.
func (p *OptFileBundle) replace(b bundle.Bundle, needed, budget bundle.Size) {
	// The keep-set starts as the incoming bundle, which is also the set the
	// cache-resident filter tests against; the selection's files join it
	// after the round.
	keep := &p.keepScratch
	keep.reset()
	for _, f := range b {
		keep.add(f)
	}
	sel := p.runSelection(b, keep, budget)
	keep.addAscending(sel.Files)

	// Evictable: resident and outside the keep-set, computed a word at a
	// time as resident &^ keep; only the files that survive take the pin
	// probe. The words walk in ascending FileID order. Each file is listed
	// as its eviction key d(f)<<32 | f, so the lazy path's (degree, ID)
	// order is a sort of plain integers.
	deg := p.hist.DegreeFunc()
	evictable := p.evictScratch[:0]
	kw := keep.words
	for w, word := range p.cache.ResidentWords() {
		if w < len(kw) {
			word &^= kw[w]
		}
		base := bundle.FileID(w) << 6
		for word != 0 {
			f := base + bundle.FileID(bits.TrailingZeros64(word))
			word &= word - 1
			if !p.cache.Pinned(f) {
				evictable = append(evictable, uint64(deg(f))<<32|uint64(f))
			}
		}
	}
	p.evictScratch = evictable

	if p.opts.LiteralEvict {
		for _, k := range evictable {
			f := bundle.FileID(k)
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
// reserved: Free = b, and budget is the capacity less s(F(b)), which Admit
// has already summed. in holds exactly b's files; p.missScratch holds b's
// non-resident ones.
func (p *OptFileBundle) runSelection(b bundle.Bundle, in *fileSet, budget bundle.Size) Selection {
	opts := SelectOptions{
		SizeOf:   p.sizeOf,
		DegreeOf: p.hist.DegreeFunc(),
		Resort:   true,
		Free:     b,
	}
	// Degrees change only when the history gains an entry, so file prices
	// stay valid across rounds until then.
	p.selScratch.keepPrices(p.hist.Len())

	var cands []Candidate
	if p.opts.History.Truncation == history.CacheResident {
		// §5.3: offer only the requests the cache currently supports (plus
		// whatever overlaps the incoming bundle, which is Free anyway).
		// Degrees and values still come from the global history.
		rs := &p.resident
		rs.sync(p.hist, p.cache, p.sizeOf)
		rs.gather(p.hist, p.missScratch)
		if invariant.Enabled {
			p.checkResident(b)
		}
		if p.opts.SeedK == 0 {
			if sel, m := rs.certify(&p.selScratch, p.hist, b, in, budget, opts); m >= 0 {
				if invariant.Enabled {
					p.checkCertified(sel, m, budget, opts)
				}
				p.traceRound(rs.candidates(), budget, sel)
				return sel
			}
		}
		cands = rs.appendCandidates(p.candScratch[:0], p.hist)
	} else {
		p.entriesScratch = p.hist.CandidatesAppend(p.entriesScratch[:0])
		cands = p.candScratch[:0]
		for _, e := range p.entriesScratch {
			cands = append(cands, Candidate{Bundle: e.Bundle, Value: e.Value})
		}
	}
	p.candScratch = cands
	var sel Selection
	if p.opts.SeedK > 0 {
		sel = selectSeededScratch(&p.selScratch, cands, budget, p.opts.SeedK, opts)
	} else {
		sel = selectScratch(&p.selScratch, cands, budget, opts)
	}
	p.traceRound(len(cands), budget, sel)
	return sel
}

// traceRound publishes one SelectRoundEvent for sel, chosen from n
// candidates under budget.
func (p *OptFileBundle) traceRound(n int, budget bundle.Size, sel Selection) {
	if p.tracer != nil {
		p.tracer.SelectRound(obs.SelectRoundEvent{
			At:           float64(p.admissions),
			Candidates:   n,
			Chosen:       len(sel.Chosen),
			Files:        len(sel.Files),
			Value:        sel.Value,
			Budget:       int64(budget),
			BudgetUsed:   int64(sel.BudgetUsed),
			SingleWinner: sel.SingleWinner,
		})
	}
}

// checkResident holds the maintained candidate set to its definition,
// c.Supports(e.Bundle.Minus(b)) over every history entry, in history
// order, and the maintained covered bytes to a recount. Armed builds only.
func (p *OptFileBundle) checkResident(b bundle.Bundle) {
	rs := &p.resident
	got := rs.appendCandidates(nil, p.hist)
	k := 0
	for j := range p.hist.Len() {
		e := p.hist.At(j)
		if !p.cache.Supports(e.Bundle.Minus(b)) {
			continue
		}
		invariant.Check(k < len(got) && got[k].Bundle.Equal(e.Bundle),
			"core: maintained candidate %d is not history slot %d (%v)", k, j, e.Bundle)
		k++
	}
	invariant.Check(k == len(got),
		"core: maintained set has %d candidates, definition %d", len(got), k)
	covered := map[bundle.FileID]bool{}
	for j := range p.hist.Len() {
		if e := p.hist.At(j); p.cache.Supports(e.Bundle) {
			for _, f := range e.Bundle {
				covered[f] = true
			}
		}
	}
	var bytes bundle.Size
	for f := range covered {
		bytes += p.sizeOf(f)
	}
	invariant.Check(bytes == rs.coverBytes,
		"core: supported entries cover %d bytes, maintained %d", bytes, rs.coverBytes)
}

// checkCertified holds a round that certify selected with an m-member
// tail to what the greedy computes on the same candidates, run on fresh
// scratch, on every field OptFileBundle reads. Armed builds only.
func (p *OptFileBundle) checkCertified(sel Selection, m int, budget bundle.Size, opts SelectOptions) {
	cands := p.resident.appendCandidates(nil, p.hist)
	var fresh resortState
	want := selectScratch(&fresh, cands, budget, opts)
	invariant.Check(sel.Files.Equal(want.Files) && !(sel.Value < want.Value || sel.Value > want.Value) &&
		sel.BudgetUsed == want.BudgetUsed && len(sel.Chosen) == len(want.Chosen) &&
		sel.SingleWinner == want.SingleWinner,
		"core: round certified with a %d-member tail %+v differs from the greedy's %+v", m, sel, want)
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
// cache can absorb `needed` bytes. evictable holds eviction keys
// d(f)<<32 | f: distinct integers, so their ascending order is the
// (degree, ID) order and the sort's instability cannot introduce
// nondeterminism.
func (p *OptFileBundle) evictLazy(evictable []uint64, needed bundle.Size) {
	if p.cache.Free() >= needed {
		return
	}
	slices.Sort(evictable)
	for _, k := range evictable {
		if p.cache.Free() >= needed {
			return
		}
		f := bundle.FileID(k)
		if err := p.cache.Evict(f); err == nil {
			p.lastEvicted++
			p.lastEvictedFiles = append(p.lastEvictedFiles, f)
		}
	}
}

// shedKeep evicts unpinned keep-set files not required by b, smallest value
// first, until `needed` bytes are free. This only triggers when pins
// prevented normal replacement. Like replace, it lists each candidate as
// its eviction key d(f)<<32 | f in reused scratch, so the (degree, ID)
// order is a sort of distinct integers; b's files and pinned files are
// left out of the list rather than skipped in the walk, since evicting
// changes neither.
func (p *OptFileBundle) shedKeep(b bundle.Bundle, needed bundle.Size) {
	deg := p.hist.DegreeFunc()
	keys := p.evictScratch[:0]
	for w, word := range p.cache.ResidentWords() {
		base := bundle.FileID(w) << 6
		for word != 0 {
			f := base + bundle.FileID(bits.TrailingZeros64(word))
			word &= word - 1
			if !b.Contains(f) && !p.cache.Pinned(f) {
				keys = append(keys, uint64(deg(f))<<32|uint64(f))
			}
		}
	}
	p.evictScratch = keys
	slices.Sort(keys)
	for _, k := range keys {
		if p.cache.Free() >= needed {
			return
		}
		f := bundle.FileID(k)
		if err := p.cache.Evict(f); err == nil {
			p.lastEvicted++
			p.lastEvictedFiles = append(p.lastEvictedFiles, f)
		}
	}
}
