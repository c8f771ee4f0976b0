package core

import (
	"math"

	"fbcache/internal/bundle"
)

// candState is the per-candidate row of the incremental resort greedy: the
// ranking key v'(r) = v(r)/denom, the request value, and the charged size and
// adjusted denominator kept up to date as files are covered. One combined
// struct (rather than parallel slices) keeps every heap comparison and
// repair a single-slice access the compiler can prove bounds-free.
type candState struct {
	v      float64     // v'(r), the ranking key (+Inf when denom is 0)
	value  float64     // v(r)
	denom  float64     // Σ s'(f) over not-yet-covered files
	size   bundle.Size // charged bytes if picked now
	taken  bool        // selected (or forced as a seed)
	parked bool        // popped over budget; re-enters only via repair
}

// resortState holds the scratch of the resort greedy so steady-state
// admissions allocate nothing: the candidate table, the ranking heap, the
// skip and chosen-file bitsets, the file→candidates postings and
// the result backing slices all survive across runs (OptFileBundle keeps one
// per policy instance; SelectSeeded reuses one across all seed trials). The
// returned Selection's Chosen and Files alias this scratch — valid until the
// next run on the same state; one-shot callers (Select) use a fresh state,
// and per-admission callers consume the Selection within the admission.
type resortState struct {
	st []candState
	rh rankHeap

	skip   fileSet // Free files plus every file covered so far
	chosen fileSet // files of chosen candidates (dedupe for files)

	// posting is the inverted file→candidates index, dense by FileID;
	// touched records which entries were populated so reset truncates only
	// those. A posting list is consumed (truncated) the round its file is
	// covered — a file charges nobody twice.
	posting [][]int32
	touched []bundle.FileID

	// dirty is the per-pick repair worklist, deduped by stamping dirtyMark
	// with the pick's generation; covered collects the pick's newly-covered
	// files before their postings are walked.
	dirty     []int32
	dirtyMark []uint32
	dirtyGen  uint32
	covered   []bundle.FileID

	// chosenList and files back the returned Selection.
	chosenList []int
	files      []bundle.FileID

	// File price table, dense by FileID and epoch-stamped: when
	// fstamp[f] == fgen, fsize[f] is s(f) and fsprime[f] is s'(f) =
	// s(f)/d(f). SizeOf and DegreeOf are fixed for the duration of one run,
	// so pricing each file once turns every later charge — the dominant term
	// of build and repair walks — into two loads instead of two dynamic
	// calls and a divide. fsprime stores the exact quotient the reference's
	// adjustedDenominator computes, so sums remain bit-identical.
	//
	// By default every run starts a new epoch. An owner whose degrees change
	// only when its history gains an entry calls keepPrices before each run
	// instead: the stamps then survive across runs until the history length
	// it passes changes (DESIGN.md §13.6).
	fsize     []bundle.Size
	fsprime   []float64
	fstamp    []uint32
	fgen      uint32
	kept      bool
	pricedLen int
}

// keepPrices makes the next runs reuse the stamped prices as long as n, the
// length of the history whose degrees DegreeOf reads, stays the same.
func (s *resortState) keepPrices(n int) {
	s.kept = true
	if s.fgen == 0 || n != s.pricedLen {
		s.pricedLen = n
		s.newPrices()
	}
}

// newPrices starts a price epoch: every stamp goes stale at once.
func (s *resortState) newPrices() {
	s.fgen++
	if s.fgen == 0 {
		clear(s.fstamp)
		s.fgen = 1
	}
}

// reset prepares the scratch for n candidates. Stamp sets advance their
// generation, postings are truncated in place, and every backing array feeds
// the next run.
func (s *resortState) reset(n int) {
	if cap(s.st) < n {
		// Geometric growth: the candidate set grows by one per new distinct
		// request, and exact-size reallocation here would turn every early
		// admission into a fresh copy of all scratch tables.
		s.st = make([]candState, n, max(n, 2*cap(s.st)))
	}
	s.st = s.st[:n]
	for i := range s.st {
		s.st[i] = candState{}
	}
	if cap(s.dirtyMark) < n {
		s.dirtyMark = make([]uint32, n, max(n, 2*cap(s.dirtyMark)))
	}
	s.dirtyMark = s.dirtyMark[:n]
	s.dirtyGen++
	if s.dirtyGen == 0 {
		clear(s.dirtyMark)
		s.dirtyGen = 1
	} else {
		// Stale marks from a previous, longer run could collide with this
		// run's generations; runs advance the generation per pick, so start
		// each run from a clean table instead of auditing for collisions.
		clear(s.dirtyMark)
	}
	s.rh.reset(n)
	s.skip.reset()
	s.chosen.reset()
	for _, f := range s.touched {
		s.posting[f] = s.posting[f][:0]
	}
	s.touched = s.touched[:0]
	s.chosenList = s.chosenList[:0]
	if !s.kept {
		s.newPrices()
	}
}

// priceFile computes and stamps f's price for this epoch, growing the dense
// tables on first sight of a larger FileID. The hot paths test the stamp
// inline and only land here once per file per epoch.
func (s *resortState) priceFile(f bundle.FileID, opts SelectOptions) {
	if int(f) >= len(s.fstamp) {
		n := max(int(f)+1, 2*len(s.fstamp))
		grown := make([]uint32, n)
		copy(grown, s.fstamp)
		s.fstamp = grown
		gsz := make([]bundle.Size, n)
		copy(gsz, s.fsize)
		s.fsize = gsz
		gsp := make([]float64, n)
		copy(gsp, s.fsprime)
		s.fsprime = gsp
	}
	d := opts.DegreeOf(f)
	if d < 1 {
		d = 1
	}
	sz := opts.SizeOf(f)
	s.fsize[f] = sz
	s.fsprime[f] = float64(sz) / float64(d)
	s.fstamp[f] = s.fgen
}

// rankOf is the paper's v'(r): value over the adjusted denominator, +Inf
// when every file of the request is already covered (denominator 0).
//
//fbvet:inline computed per repair; must disappear into callers
//fbvet:noescape
func rankOf(value, denom float64) float64 {
	if denom > 0 {
		return value / denom
	}
	return math.Inf(1)
}

// chargedSizeSkip is chargedSize against the skip set: the
// bytes b adds beyond files already covered or Free. It runs per candidate
// on the step-three scan and per seed, so it stays allocation- and
// bounds-check-free.
//
//fbvet:noescape
//fbvet:nobce single-slice walk over the canonical bundle
func (s *resortState) chargedSizeSkip(b bundle.Bundle, sizeOf bundle.SizeFunc) bundle.Size {
	var total bundle.Size
	for _, f := range b {
		if s.skip.has(f) {
			continue
		}
		total += sizeOf(f)
	}
	return total
}

// denomSkip is Σ s'(f) over the files of b outside skip, summed in bundle
// order — the denominator the greedy's build computes for a candidate
// whose skip set is exactly skip — pricing each file on first sight in the
// epoch.
//
//fbvet:noescape
//fbvet:nobce
func (s *resortState) denomSkip(b bundle.Bundle, skip *fileSet, opts SelectOptions) float64 {
	var denom float64
	for _, f := range b {
		if skip.has(f) {
			continue
		}
		fi := int(f)
		if uint(fi) >= uint(len(s.fstamp)) || s.fstamp[fi] != s.fgen {
			s.priceFile(f, opts)
		}
		if fsp := s.fsprime; uint(fi) < uint(len(fsp)) {
			denom += fsp[fi]
		}
	}
	return denom
}

// repair recomputes candidate j's charged size, adjusted denominator and
// ranking key from its bundle, skipping covered files. Recomputing — rather
// than incrementally subtracting the covered file's contribution — performs
// the exact float operation sequence of the reference implementation's
// adjustedDenominator, so the two implementations rank candidates on
// bit-identical keys and the heap's exact comparator is safe (DESIGN.md
// §13). The walk is O(|bundle|), paid only by candidates that actually
// shared a file with the pick.
//
//fbvet:noescape the recompute must stay register/stack only
//fbvet:nobce the index guard below is the proof BCE needs
func (s *resortState) repair(j int32, b bundle.Bundle, opts SelectOptions) {
	var denom float64
	var size bundle.Size
	fst, fsz, fsp := s.fstamp, s.fsize, s.fsprime
	gen := s.fgen
	for _, f := range b {
		if s.skip.has(f) {
			continue
		}
		// Every uncovered file of a repairable candidate was priced during
		// the build walk (skip only grows), so the stamped fast path is the
		// common case; the slow path exists only for defensive completeness.
		if fi := int(f); uint(fi) < uint(len(fst)) && uint(fi) < uint(len(fsz)) &&
			uint(fi) < uint(len(fsp)) && fst[fi] == gen {
			size += fsz[fi]
			denom += fsp[fi]
			continue
		}
		d := opts.DegreeOf(f)
		if d < 1 {
			d = 1
		}
		sz := opts.SizeOf(f)
		size += sz
		denom += float64(sz) / float64(d)
	}
	st := s.st
	ji := int(j)
	if uint(ji) >= uint(len(st)) {
		return
	}
	row := &st[ji]
	row.denom = denom
	row.size = size
	row.v = rankOf(row.value, denom)
}

// postingAdd appends candidate i to file f's posting list, growing the dense
// index on first sight of a larger FileID.
func (s *resortState) postingAdd(f bundle.FileID, i int32) {
	if int(f) >= len(s.posting) {
		grown := make([][]int32, max(int(f)+1, 2*len(s.posting)))
		copy(grown, s.posting)
		s.posting = grown
	}
	if len(s.posting[f]) == 0 {
		s.touched = append(s.touched, f)
	}
	s.posting[f] = append(s.posting[f], i)
}

// run is the incrementally-maintained implementation of the resort greedy
// with identical semantics to selectResortReference. Instead of re-ranking
// every candidate on every round (O(rounds·n·b) walks), it keeps the v'(r)
// order in an index-tracking max-heap (rankHeap) that a pick *repairs*:
// only candidates sharing a newly-covered file — found through the inverted
// file→candidates index — recompute their rank and re-sift, so a round
// costs O(log n) for the pop plus O(Σ affected·b) for the repairs, which
// telescopes to O(total postings) across the whole run.
//
// Budget handling uses parking: a popped candidate whose charged size
// exceeds the remaining budget leaves the heap ("parked"). The budget only
// ever shrinks (at picks) and a parked candidate's charged size only ever
// shrinks (at repairs), so a parked candidate can become pickable again only
// when a repair lowers its size — which is exactly when it is re-pushed.
// The first popped candidate that fits is therefore the maximum over all
// fitting candidates, i.e. the reference's argmax.
//
// Equivalence with the reference implementation is enforced by the
// TestQuickFastMatchesReference property test and the
// FuzzSelectFastMatchesReference metamorphic fuzz.
func (s *resortState) run(cands []Candidate, capacity bundle.Size, opts SelectOptions, seeds []int) Selection {
	n := len(cands)
	s.reset(n)

	// skip starts as the Free set; files become skipped as they are chosen.
	for _, f := range opts.Free {
		s.skip.add(f)
	}

	// Step 3's single-request comparison, computed up front while skip is
	// exactly the Free set (the greedy below mutates it). Same inputs, same
	// answer as running applyStepThree at the end — minus a per-run map.
	soloIdx, soloVal := -1, 0.0
	var soloSize bundle.Size
	for i := range cands {
		if cands[i].Value <= soloVal {
			continue
		}
		sz := s.chargedSizeSkip(cands[i].Bundle, opts.SizeOf)
		if sz > capacity {
			continue
		}
		soloIdx, soloVal, soloSize = i, cands[i].Value, sz
	}

	var sel Selection
	budget := capacity

	// Seeds are forced in before the heap is built: each pick covers files,
	// and building the candidate table afterwards prices every remaining
	// candidate against the post-seed skip set in one walk.
	for _, sd := range seeds {
		if sd < 0 || sd >= n || s.st[sd].taken {
			continue
		}
		sz := s.chargedSizeSkip(cands[sd].Bundle, opts.SizeOf)
		if sz > budget {
			return Selection{} // seed does not fit
		}
		budget -= sz
		sel.BudgetUsed += sz
		s.chosenList = append(s.chosenList, sd)
		sel.Value += cands[sd].Value
		s.st[sd].taken = true
		s.covered = s.covered[:0]
		s.take(cands[sd].Bundle)
	}

	s.greedy(cands, budget, opts, &sel)

	// Step 3: the answer is the max of the greedy set and the single
	// highest-value request that fits by itself (precomputed above). The
	// solo winner's Files alias its candidate bundle — already canonical.
	if soloIdx >= 0 && soloVal > sel.Value {
		s.chosenList = append(s.chosenList[:0], soloIdx)
		return Selection{
			Chosen:       s.chosenList,
			Files:        cands[soloIdx].Bundle,
			Value:        soloVal,
			SingleWinner: true,
			BudgetUsed:   soloSize,
		}
	}

	// Files: sorted, deduplicated union of the chosen candidates' files —
	// the scratch-backed equivalent of the reference's setToBundle. The
	// chosen set is dense by FileID, so walking it yields them ascending
	// without a comparison sort.
	s.files = s.chosen.appendMembers(s.files[:0])
	sel.Files = bundle.Bundle(s.files)
	sel.Chosen = s.chosenList
	return sel
}

// take records a pick's file effects: add them to the chosen set (which
// backs Selection.Files) and cover uncovered files into skip, collecting
// them in covered for the posting walks.
func (s *resortState) take(b bundle.Bundle) {
	for _, f := range b {
		s.chosen.add(f)
		if !s.skip.has(f) {
			s.skip.add(f)
			s.covered = append(s.covered, f)
		}
	}
}

// greedy is the pop loop of the resort greedy: it prices every untaken
// candidate against skip, builds the heap, and pops, parks and repairs
// until the heap is empty, adding each pick to s.chosenList, s.chosen and
// sel's Value and BudgetUsed. budget is what the picks may still charge.
// run enters it after the Free files and the seeds; a certified §5.3 round
// enters it with only its tail's candidates and skip already holding every
// file the rest of the round covers (DESIGN.md §13.6). The heap's last
// tie-break is the index into cands, so a caller that passes a subset must
// keep the subset in its global index order.
func (s *resortState) greedy(cands []Candidate, budget bundle.Size, opts SelectOptions, sel *Selection) {
	// Price every untaken candidate and build the inverted index over the
	// files that can still charge them.
	for i := range cands {
		if s.st[i].taken {
			continue
		}
		row := &s.st[i]
		row.value = cands[i].Value
		for _, f := range cands[i].Bundle {
			if s.skip.has(f) {
				continue
			}
			if int(f) >= len(s.fstamp) || s.fstamp[f] != s.fgen {
				s.priceFile(f, opts)
			}
			row.size += s.fsize[f]
			row.denom += s.fsprime[f]
			s.postingAdd(f, int32(i))
		}
		row.v = rankOf(row.value, row.denom)
	}
	s.rh.build(s.st)
	s.rh.checkOrder(s.st)

	for s.rh.len() > 0 {
		i := s.rh.popTop()
		if i < 0 {
			break
		}
		row := &s.st[i]
		if row.size > budget {
			// Over budget: park. Only a repair (shrinking its size) can
			// bring it back; the budget never grows.
			row.parked = true
			continue
		}
		budget -= row.size
		sel.BudgetUsed += row.size
		s.chosenList = append(s.chosenList, int(i))
		sel.Value += row.value
		row.taken = true

		s.covered = s.covered[:0]
		s.take(cands[i].Bundle)

		// Collect the candidates this pick dirtied — the union of the
		// covered files' posting lists, deduped by generation stamp — then
		// truncate those postings: a covered file charges nobody again.
		s.dirty = s.dirty[:0]
		s.dirtyGen++
		if s.dirtyGen == 0 {
			clear(s.dirtyMark)
			s.dirtyGen = 1
		}
		for _, f := range s.covered {
			pl := s.posting[f]
			for _, j := range pl {
				if uint(uint32(j)) >= uint(len(s.st)) {
					continue
				}
				if s.st[j].taken || s.dirtyMark[j] == s.dirtyGen {
					continue
				}
				s.dirtyMark[j] = s.dirtyGen
				s.dirty = append(s.dirty, j)
			}
			s.posting[f] = pl[:0]
		}

		// Repair each dirty candidate once: recompute its rank, then either
		// re-sift it in place or un-park it if it now fits.
		for _, j := range s.dirty {
			s.repair(j, cands[j].Bundle, opts)
			if s.st[j].parked {
				if s.st[j].size <= budget {
					s.st[j].parked = false
					s.rh.push(s.st, j)
				}
				continue
			}
			s.rh.fix(s.st, int(s.rh.pos[j]))
		}
		s.rh.checkOrder(s.st)
	}
}

// selectResortFast runs the incremental resort greedy with fresh scratch —
// the entry point for one-shot callers; per-admission callers hold a
// resortState and call run directly.
func selectResortFast(cands []Candidate, capacity bundle.Size, opts SelectOptions, seeds []int) Selection {
	var s resortState
	return s.run(cands, capacity, opts, seeds)
}
