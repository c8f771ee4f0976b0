package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fbcache/internal/bundle"
	"fbcache/internal/core"
	"fbcache/internal/history"
	"fbcache/internal/obs/span"
	"fbcache/internal/policy"
	"fbcache/internal/srm"
	"fbcache/internal/store"
	"fbcache/internal/workload"
)

// loadClients is the number of closed-loop connections (and load
// goroutines) that drive an srm workload: one per CPU of the 2-vCPU
// machine the benchmark was sized on.
const loadClients = 2

// srmWorkload is a traffic mix served by an in-process srmd stack over
// loopback TCP.
type srmWorkload struct {
	spec      workload.Spec // Seed is set per pool; Jobs is the trace length, replayed cyclically
	withStore bool
	warmup    int // jobs served before timing starts
	pools     int // pools per run, one stack and one timing window each
}

var (
	// srmHit: the whole file pool fits the cache, so after warm-up every
	// stage is a hit and time goes to the wire, JSON and SRM.mu.
	srmHit = srmWorkload{
		spec: workload.Spec{
			CacheSize: 4 * bundle.GB, NumFiles: 30, MinFileSize: bundle.MB, MaxFilePct: 0.05,
			NumRequests: 50, MaxBundleFiles: 6, MaxBundleFrac: 0.25,
			Popularity: workload.Zipf, ZipfS: 1, Jobs: 100000,
		},
		warmup: 5000,
		pools:  10,
	}
	// srmMissStore: a pool ten times the cache under uniform traffic, so
	// most stages run OptCacheSelect and move real bytes through the store.
	srmMissStore = srmWorkload{
		spec: workload.Spec{
			CacheSize: 4 * bundle.MB, NumFiles: 400, MinFileSize: 16 * bundle.KB, MaxFilePct: 0.05,
			NumRequests: 200, MaxBundleFiles: 6, MaxBundleFrac: 0.25,
			Popularity: workload.Uniform, ZipfS: 1, Jobs: 100000,
		},
		withStore: true,
		warmup:    1000,
		pools:     10,
	}
)

// srmStack is one server built the way cmd/srmd builds it, the bench's
// connections to it, and the bookkeeping the output checks need.
type srmStack struct {
	w          *workload.Workload
	names      [][]string    // per request: the file names a stage sends
	reqBytes   []bundle.Size // per request: its total size
	pol        policy.Policy // what the SRM drives (the timing decorator in traced runs)
	svc        *srm.SRM
	server     *srm.Server
	st         *store.Store
	storeDir   string
	src        *patternSource
	admin      *srm.Client
	snap       srm.Snapshot // the server's statistics as check saw them
	load       []*srm.Client
	next       atomic.Int64 // next trace position, shared by the load clients
	total      loadTotals   // every job sent so far, warm-up included
	warmupRate float64      // jobs/s during warm-up, to size latency buffers
}

// loadTotals counts jobs as the clients observed them.
type loadTotals struct {
	attempted, failed, hits int64
	requested, loaded       bundle.Size
}

func (t *loadTotals) add(o loadTotals) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.hits += o.hits
	t.requested += o.requested
	t.loaded += o.loaded
}

// newSRMStack generates the workload, starts the server, registers the
// catalog over the wire and serves the warm-up jobs. A non-nil tr attaches
// the traced run's span sinks and policy timing.
func newSRMStack(wl srmWorkload, seed int64, warmup int, tr *srmTrace) (s *srmStack, err error) {
	spec := wl.spec
	spec.Seed = seed
	w, err := workload.Generate(spec)
	if err != nil {
		return nil, err
	}
	s = &srmStack{w: w}
	defer func() {
		if err != nil {
			err = errors.Join(err, s.close())
			s = nil
		}
	}()
	for _, b := range w.Requests {
		names := make([]string, len(b))
		for i, f := range b {
			names[i] = w.Catalog.Name(f)
		}
		s.names = append(s.names, names)
		s.reqBytes = append(s.reqBytes, b.TotalSize(w.Catalog.SizeFunc()))
	}

	// The server stack of cmd/srmd: OptFileBundle with cache-resident
	// history over an empty catalog, and the always-on flight recorder.
	cat := bundle.NewCatalog()
	s.pol = policy.WrapOptFileBundle(core.New(spec.CacheSize, cat.SizeFunc(),
		core.Options{History: history.Config{Truncation: history.CacheResident}}))
	rec := span.New(span.Options{})
	var clientRec *span.Recorder
	if tr != nil {
		s.pol = tr.policy.wrap(s.pol)
		rec, clientRec = tr.spans.recorders()
	}
	s.svc = srm.New(s.pol, cat).WithSpans(rec)
	if wl.withStore {
		if s.storeDir, err = os.MkdirTemp("", "fbbench-store-"); err != nil {
			return s, err
		}
		s.src = newPatternSource(cat.SizeFunc(), seed)
		if s.st, err = store.New(s.storeDir, store.FetchFunc(s.src.open)); err != nil {
			return s, err
		}
		s.svc.WithStore(s.st)
	}
	if s.server, err = srm.Serve(s.svc, "127.0.0.1:0"); err != nil {
		return s, err
	}
	s.server.CloseOnShutdown(rec)

	if s.admin, err = srm.Dial(s.server.Addr()); err != nil {
		return s, err
	}
	for _, f := range w.Catalog.Files() {
		if err := s.admin.AddFile(w.Catalog.Name(f.ID), f.Size); err != nil {
			return s, err
		}
	}
	for i := 0; i < loadClients; i++ {
		c, err := srm.Dial(s.server.Addr())
		if err != nil {
			return s, err
		}
		s.load = append(s.load, c.WithSpans(clientRec))
	}
	warm, err := s.drive(int64(warmup), 0, 0)
	if err != nil {
		return s, fmt.Errorf("warm-up: %w", err)
	}
	s.warmupRate = float64(warm.totals.attempted) / warm.secs
	return s, nil
}

// job sends the next trace job on c: stage its bundle, then release it.
func (s *srmStack) job(c *srm.Client, t *loadTotals) error {
	r := s.w.Jobs[(s.next.Add(1)-1)%int64(len(s.w.Jobs))]
	t.attempted++
	token, hit, loaded, err := c.Stage(s.names[r]...)
	if err == nil {
		err = c.Release(token)
	}
	if err != nil {
		t.failed++
		return err
	}
	if hit {
		t.hits++
	}
	t.requested += s.reqBytes[r]
	t.loaded += loaded
	return nil
}

// window is one timed stretch of load on a stack, reduced to its
// statistics as soon as it ends.
type window struct {
	secs     float64
	timed    int     // jobs completed inside the window
	p50, p99 float64 // job latency, µs
	totals   loadTotals
	mallocs  uint64
}

// drive runs the closed-loop clients. With d == 0 they serve jobs until the
// stack has sent n in total (warm-up); otherwise each serves for d, timing
// every job that completes inside it. perClient sizes the latency buffers
// so that timing does not allocate.
func (s *srmStack) drive(n int64, d time.Duration, perClient int) (window, error) {
	lats := make([][]time.Duration, len(s.load))
	totals := make([]loadTotals, len(s.load))
	errs := make([]error, len(s.load))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i := range s.load {
		lats[i] = make([]time.Duration, 0, perClient)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, t := s.load[i], &totals[i]
			for {
				if d == 0 {
					if s.next.Load() >= n {
						return
					}
				} else if !time.Now().Before(deadline) {
					return
				}
				t0 := time.Now()
				if err := s.job(c, t); err != nil {
					errs[i] = err
					return
				}
				if done := time.Now(); d > 0 && done.Before(deadline) {
					lats[i] = append(lats[i], done.Sub(t0))
				}
			}
		}(i)
	}
	wg.Wait()
	runtime.ReadMemStats(&m1)
	w := window{secs: d.Seconds(), mallocs: m1.Mallocs - m0.Mallocs}
	if d == 0 {
		w.secs = time.Since(start).Seconds()
	}
	var ns []time.Duration
	for i := range s.load {
		w.totals.add(totals[i])
		ns = append(ns, lats[i]...)
	}
	s.total.add(w.totals)
	q := quantiles(ns, 0.5, 0.99)
	w.timed, w.p50, w.p99 = len(ns), q[0]/1e3, q[1]/1e3
	return w, errors.Join(errs...)
}

// measure serves one window of d on the stack.
func (s *srmStack) measure(d time.Duration) (window, error) {
	perClient := 1024 + int(s.warmupRate*d.Seconds()*1.5/loadClients)
	return s.drive(0, d, perClient)
}

// windowsOutcome reduces a run's windows to its end-to-end metrics: each
// timing is the median over windows of that window's statistic.
func windowsOutcome(ws []window) *outcome {
	var rates, p50s, p99s []float64
	var t loadTotals
	var mallocs uint64
	samples := 0
	for _, w := range ws {
		samples += w.timed
		rates = append(rates, float64(w.timed)/w.secs)
		p50s, p99s = append(p50s, w.p50), append(p99s, w.p99)
		t.add(w.totals)
		mallocs += w.mallocs
	}
	return &outcome{
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics: map[string]metric{
			"jobs_per_s":     medianOf("jobs/s", rates, samples),
			"job_p50_us":     medianOf("us", p50s, samples),
			"job_p99_us":     medianOf("us", p99s, samples),
			"allocs_per_job": single("count", float64(mallocs)/float64(max(t.attempted, 1))),
		},
		Quality: map[string]float64{
			"hit_ratio":       float64(t.hits) / float64(max(t.attempted-t.failed, 1)),
			"byte_miss_ratio": float64(t.loaded) / float64(max(t.requested, 1)),
		},
	}
}

// check verifies the server's view against the clients' after the load
// stops: nothing pinned or active, one server job per stage sent, the same
// bytes loaded, and — with a store — every resident file on disk, intact,
// and nothing else there.
func (s *srmStack) check() error {
	snap, err := s.admin.Stats()
	if err != nil {
		return err
	}
	s.snap = snap
	switch {
	case snap.PinnedBytes != 0 || snap.ActiveJobs != 0:
		return fmt.Errorf("srm: %v pinned by %d active jobs after the load stopped", snap.PinnedBytes, snap.ActiveJobs)
	case snap.Jobs != s.total.attempted:
		return fmt.Errorf("srm: server counted %d jobs, clients sent %d", snap.Jobs, s.total.attempted)
	case snap.BytesLoaded != s.total.loaded:
		return fmt.Errorf("srm: server loaded %v, clients were told %v", snap.BytesLoaded, s.total.loaded)
	}
	if s.st == nil {
		return nil
	}
	// Stats serialized on the SRM lock after the last admission, so the
	// policy cache is quiescent here.
	resident := s.pol.Cache().Resident()
	for _, f := range resident {
		if err := s.st.Verify(f); err != nil {
			return err
		}
	}
	entries, err := os.ReadDir(s.storeDir)
	if err != nil {
		return err
	}
	if len(entries) != len(resident) {
		return fmt.Errorf("store: %d entries on disk for %d resident files", len(entries), len(resident))
	}
	if du, used := s.st.DiskUsage(), s.pol.Cache().Used(); du != used {
		return fmt.Errorf("store: %v on disk, cache holds %v", du, used)
	}
	if served := bundle.Size(s.src.served.Load()); served != s.total.loaded {
		return fmt.Errorf("store: source served %v for %v loaded", served, s.total.loaded)
	}
	return nil
}

// close stops the clients and the server and removes the store directory.
func (s *srmStack) close() error {
	var errs []error
	for _, c := range append(s.load, s.admin) {
		if c != nil {
			errs = append(errs, c.Close())
		}
	}
	if s.server != nil {
		errs = append(errs, s.server.Shutdown(5*time.Second))
		s.svc.Close()
	}
	if s.storeDir != "" {
		errs = append(errs, os.RemoveAll(s.storeDir))
	}
	return errors.Join(errs...)
}

// patternSource serves each file's content from one shared pseudo-random
// block, starting at a per-file offset, at the size the catalog gives it.
// It counts the bytes it serves.
type patternSource struct {
	sizeOf bundle.SizeFunc
	block  []byte
	served atomic.Int64
}

func newPatternSource(sizeOf bundle.SizeFunc, seed int64) *patternSource {
	block := make([]byte, 1<<20)
	rand.New(rand.NewSource(seed)).Read(block)
	return &patternSource{sizeOf: sizeOf, block: block}
}

func (p *patternSource) open(f bundle.FileID) (io.ReadCloser, error) {
	return &patternReader{src: p, off: int(f) * 4099 % len(p.block), left: int64(p.sizeOf(f))}, nil
}

type patternReader struct {
	src  *patternSource
	off  int
	left int64
}

func (r *patternReader) Read(b []byte) (int, error) {
	if r.left <= 0 {
		return 0, io.EOF
	}
	if int64(len(b)) > r.left {
		b = b[:r.left]
	}
	n := copy(b, r.src.block[r.off:])
	r.off = (r.off + n) % len(r.src.block)
	r.left -= int64(n)
	r.src.served.Add(int64(n))
	return n, nil
}

func (r *patternReader) Close() error { return nil }
