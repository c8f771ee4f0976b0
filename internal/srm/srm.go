// Package srm implements the Storage Resource Manager service layer of §2:
// the component that receives jobs' file-bundle requests, stages bundles
// into the disk cache through a replacement policy, pins them for the
// duration of processing, and releases them afterwards. It adds the
// concurrency control the bare policies (which are single-goroutine) do not
// have, plus a line-oriented TCP protocol (server.go) so remote clients can
// use an SRM like a service — the proxy-server role described in the paper.
package srm

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"fbcache/internal/bundle"
	"fbcache/internal/metrics"
	"fbcache/internal/obs"
	"fbcache/internal/obs/span"
	"fbcache/internal/policy"
	"fbcache/internal/store"
)

// ErrTooLarge reports a bundle that can never be staged in this cache.
var ErrTooLarge = errors.New("srm: bundle exceeds cache capacity")

// ErrClosed reports an SRM that has been shut down.
var ErrClosed = errors.New("srm: closed")

// ErrBusy reports a stage request that waited out its staging deadline while
// the cache was saturated with pinned bundles. It is a retryable condition:
// the wire protocol surfaces it with a retry-after hint.
var ErrBusy = errors.New("srm: busy: staging deadline exceeded")

// SRM is a thread-safe staging service over a replacement policy.
type SRM struct {
	// Immutable after New: cat is internally synchronized and sizeOf is a
	// pure function, so neither needs mu. The fields marked "guarded by
	// mu" do; the rest synchronize themselves.
	cat    *bundle.Catalog
	sizeOf bundle.SizeFunc

	mu   sync.Mutex
	cond *sync.Cond    // guarded by mu
	pol  policy.Policy // guarded by mu

	pinnedBytes bundle.Size        // guarded by mu
	active      int                // guarded by mu
	waiting     int                // guarded by mu
	closed      bool               // guarded by mu
	col         metrics.Collector  // guarded by mu
	res         metrics.Resilience // guarded by mu
	// store is the optional file store (WithStore). Stages read it under mu
	// and use it after unlocking: only Stamp/Intent (the store's map lock)
	// run under mu, never a file's lock or its I/O.
	store *store.Store // guarded by mu

	// reqBytes records the requested size of every Stage call (including
	// unserviceable ones). The histogram is atomic internally, so it is
	// observed here and scraped from NewRegistry without involving mu.
	reqBytes *obs.Histogram

	// rec is the request-span flight recorder; nil means spans are off
	// (the zero-cost default). Set it via WithSpans before Serve; readers
	// on the serving path load it once per connection. Recorder methods
	// are internally synchronized and lock-free on the start path, so the
	// wait and admit leg spans are started and finished while mu is held
	// (the recorder's stripe locks are leaves under mu — DESIGN.md §10);
	// the store leg runs after mu is released, through a copy of rec taken
	// under it.
	rec *span.Recorder // guarded by mu

	// stageTimeout bounds how long one Stage may block waiting for pinned
	// capacity; 0 means wait forever. See WithStageTimeout.
	stageTimeout time.Duration // guarded by mu
}

// New builds an SRM over the given policy and catalog. The catalog provides
// name resolution for the wire protocol; programmatic callers may use
// FileIDs directly.
func New(pol policy.Policy, cat *bundle.Catalog) *SRM {
	if pol == nil || cat == nil {
		panic("srm: nil policy or catalog")
	}
	s := &SRM{
		pol: pol, cat: cat, sizeOf: cat.SizeFunc(),
		// 1 MB .. 32 GB in powers of two; larger requests land in +Inf.
		reqBytes: obs.NewHistogram(obs.ExpBuckets(float64(bundle.MB), 2, 16)),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// WithSpans attaches a request-span flight recorder: every Stage acquires
// wait/admit/store leg spans under the caller's span context (see StageCtx
// and Server.handle). Call it before the SRM serves traffic.
func (s *SRM) WithSpans(rec *span.Recorder) *SRM {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rec = rec
	return s
}

// Spans reports the attached flight recorder (nil when spans are off).
func (s *SRM) Spans() *span.Recorder {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rec
}

// WithStageTimeout sets the per-request staging deadline: a Stage call that
// cannot pin its bundle within d fails with ErrBusy instead of blocking
// forever behind other jobs' pins. 0 restores unbounded waiting.
func (s *SRM) WithStageTimeout(d time.Duration) *SRM {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stageTimeout = d
	return s
}

// StageTimeout reports the configured staging deadline (0 = unbounded).
func (s *SRM) StageTimeout() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stageTimeout
}

// Release undoes a successful Stage. It is safe to call exactly once.
type Release func()

// Stage admits b into the cache and pins it, blocking while the bundle
// cannot coexist with currently pinned bundles. On success the returned
// Release must be called when the job finishes processing.
func (s *SRM) Stage(b bundle.Bundle) (Release, policy.Result, error) {
	return s.StageCtx(span.Context{}, b, 0)
}

// StageCtx is Stage under a request-span context and with a lease: with a
// recorder attached (WithSpans) and a live ctx, the queue-wait,
// policy-admission and store-sync legs each become child spans, so
// per-request latency attribution survives into the flight recorder. A
// ttl > 0 bounds the lease: if the caller has not released the bundle after
// ttl, the SRM reclaims the pins itself, so a crashed or hung job can never
// wedge the cache, and releasing after expiry is a harmless no-op. Under the
// zero Context and ttl 0 it is exactly Stage; the wire server passes 0,
// because dropping a connection already releases its leases.
//
// Capacity is reserved under s.mu and the bytes move outside it: admit pins
// the bundle and stamps the store intents, then the store work runs
// unlocked, so one stage's disk I/O never stalls another stage or a release.
func (s *SRM) StageCtx(ctx span.Context, b bundle.Bundle, ttl time.Duration) (Release, policy.Result, error) {
	size := b.TotalSize(s.sizeOf)
	s.reqBytes.Observe(float64(size))
	r, res, err := s.admit(ctx, b, size)
	if err != nil {
		return nil, res, err
	}
	if r.moves.st != nil {
		st := r.moves.rec.StartChild(ctx, span.OpStageStore)
		retries, err := r.moves.apply()
		if err != nil {
			st.Finish(span.ErrStore)
			s.unpin(r.pinned, r.pinnedSize, retries)
			return nil, res, err
		}
		st.Finish(span.ErrNone)
		if retries > 0 {
			s.mu.Lock()
			s.res.Retries += retries
			s.mu.Unlock()
		}
	}
	pinned, pinnedSize := r.pinned, r.pinnedSize
	var once sync.Once
	release := func() {
		once.Do(func() { s.unpin(pinned, pinnedSize, 0) })
	}
	if ttl > 0 {
		timer := time.AfterFunc(ttl, release)
		unpin := release
		release = func() {
			timer.Stop()
			unpin()
		}
	}
	return release, res, nil
}

// reservation is what admit takes for one stage: the pins, their bytes, and
// the store moves still to apply.
type reservation struct {
	pinned     bundle.Bundle
	pinnedSize bundle.Size
	moves      storeMoves
}

// admit is StageCtx's critical section, all of it under s.mu and none of it
// I/O: wait for pinned capacity, run the policy, pin the cacheable part of
// b (size bytes in all) and account it, and — with a store attached —
// stamp the intents the caller applies after unlocking.
func (s *SRM) admit(ctx span.Context, b bundle.Bundle, size bundle.Size) (reservation, policy.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if size > s.pol.Cache().Capacity() {
		res := policy.Result{BytesRequested: size, Unserviceable: true}
		s.col.Record(res)
		return reservation{}, res, fmt.Errorf("%w: %v > %v", ErrTooLarge, size, s.pol.Cache().Capacity())
	}
	// The deadline is a timer flipping a bool under the mutex rather than a
	// wall-clock comparison, so no time value flows into SRM state.
	expired := false
	if s.stageTimeout > 0 {
		timer := time.AfterFunc(s.stageTimeout, func() {
			s.mu.Lock()
			expired = true
			s.cond.Broadcast()
			s.mu.Unlock()
		})
		defer timer.Stop()
	}
	if !s.closed && !expired && s.pinnedBytes+size > s.pol.Cache().Capacity() {
		// The wait span exists only when the request actually blocks, so
		// its histogram is the queue-wait distribution, not a spike at ~0.
		w := s.rec.StartChild(ctx, span.OpStageWait)
		for !s.closed && !expired && s.pinnedBytes+size > s.pol.Cache().Capacity() {
			s.waiting++
			s.cond.Wait()
			s.waiting--
		}
		switch {
		case s.closed:
			w.Finish(span.ErrClosed)
		case s.pinnedBytes+size > s.pol.Cache().Capacity():
			w.Finish(span.ErrBusy)
		default:
			w.Finish(span.ErrNone)
		}
	}
	if s.closed {
		return reservation{}, policy.Result{}, ErrClosed
	}
	if s.pinnedBytes+size > s.pol.Cache().Capacity() {
		// Deadline passed and capacity still isn't there.
		s.res.Timeouts++
		return reservation{}, policy.Result{}, fmt.Errorf("%w (waited %v)", ErrBusy, s.stageTimeout)
	}

	adm := s.rec.StartChild(ctx, span.OpStageAdmit)
	res := s.pol.Admit(b)
	// Result.Loaded/Evicted alias policy scratch valid only until the next
	// Admit; this res outlives the lock (it is returned to the caller and
	// drives the store work), so detach it while still serialized against
	// other admissions.
	if len(res.Loaded) > 0 {
		res.Loaded = res.Loaded.Clone()
	}
	if len(res.Evicted) > 0 {
		res.Evicted = res.Evicted.Clone()
	}
	s.col.Record(res)
	adm.SetFiles(b.Len())
	adm.SetBytes(int64(res.BytesLoaded))
	adm.SetHit(res.Hit)
	if res.Unserviceable {
		adm.Finish(span.ErrTooLarge)
		return reservation{}, res, ErrTooLarge
	}
	adm.Finish(span.ErrNone)
	// Pin what is actually resident: with a pass-through (bypass) caching
	// policy some files of b are deliberately never cached, so only the
	// cacheable part is pinned. The pins hold the files resident while
	// their bytes move outside the lock.
	pinnable := b.Minus(s.pol.Cache().Missing(b))
	if err := s.pol.Cache().PinBundle(pinnable); err != nil {
		return reservation{}, res, fmt.Errorf("srm: pin: %w", err)
	}
	pinnedSize := pinnable.TotalSize(s.sizeOf)
	s.pinnedBytes += pinnedSize
	s.active++
	return reservation{pinnable, pinnedSize, s.stampMoves(res, pinnable)}, res, nil
}

// unpin returns a lease's pins and accounting — on release, or when the
// stage failed after admit — and adds the store retries it made.
func (s *SRM) unpin(pinned bundle.Bundle, pinnedSize bundle.Size, retries int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Ignore unpin errors after Close: the cache may be gone.
	_ = s.pol.Cache().UnpinBundle(pinned)
	s.pinnedBytes -= pinnedSize
	s.active--
	s.res.Retries += retries
	s.cond.Broadcast()
}

// AddFile registers a file in the catalog (size in bytes) and returns its ID.
func (s *SRM) AddFile(name string, size bundle.Size) (bundle.FileID, error) {
	if size < 0 {
		return 0, fmt.Errorf("srm: negative size for %q", name)
	}
	return s.cat.Add(name, size), nil
}

// Snapshot reports current service statistics.
type Snapshot struct {
	Jobs          int64
	HitRatio      float64
	ByteMissRatio float64
	BytesLoaded   bundle.Size
	ActiveJobs    int
	WaitingJobs   int
	PinnedBytes   bundle.Size
	CacheUsed     bundle.Size
	CacheCapacity bundle.Size
	Policy        string
	// Resilience counts fault-handling events: staging-deadline timeouts and
	// store-operation retries. All zero on a healthy, uncontended server.
	Resilience metrics.Resilience
}

// Stats returns a consistent snapshot of the SRM's metrics.
func (s *SRM) Stats() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Snapshot{
		Jobs:          s.col.Jobs(),
		HitRatio:      s.col.HitRatio(),
		ByteMissRatio: s.col.ByteMissRatio(),
		BytesLoaded:   s.col.BytesLoaded(),
		ActiveJobs:    s.active,
		WaitingJobs:   s.waiting,
		PinnedBytes:   s.pinnedBytes,
		CacheUsed:     s.pol.Cache().Used(),
		CacheCapacity: s.pol.Cache().Capacity(),
		Policy:        s.pol.Name(),
		Resilience:    s.res,
	}
}

// Close wakes all blocked stagers with ErrClosed. In-flight releases remain
// valid.
func (s *SRM) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.cond.Broadcast()
}
