// Command cachesim is the Go counterpart of the paper's C++ cacheSim: it
// drives one replacement policy with a synthetic or replayed workload and
// prints the §1.2 metrics. With -events it runs the timed discrete-event
// grid simulation (MSS transfer channels, pinning, bounded concurrency) and
// also reports throughput and response times.
//
// Examples:
//
//	cachesim -policy optfilebundle -popularity zipf -jobs 10000
//	cachesim -policy landlord -trace run.trace.json
//	cachesim -policy optfilebundle -queue 100           # Fig 9 discipline
//	cachesim -policy optfilebundle -events -rate 2
//	cachesim -trace-out run.jsonl -metrics-out run.prom # JSONL event trace
//	                                                    # + Prometheus text
//
// -trace-out streams one typed event per line (admit, load, evict,
// select_round, credit_decay, job_served; stage events in -events mode) —
// deterministic per seed, never wall-clock-stamped. See README.md
// "Observability" for the event vocabulary and EXPERIMENTS.md for worked
// examples.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"fbcache/internal/bundle"
	"fbcache/internal/core"
	"fbcache/internal/history"
	"fbcache/internal/metrics"
	"fbcache/internal/mss"
	"fbcache/internal/obs"
	"fbcache/internal/policy"
	"fbcache/internal/policy/classic"
	"fbcache/internal/policy/landlord"
	"fbcache/internal/policy/offline"
	"fbcache/internal/queue"
	"fbcache/internal/simulate"
	"fbcache/internal/trace"
	"fbcache/internal/workload"
)

func main() {
	var (
		policyName = flag.String("policy", "optfilebundle", "replacement policy: optfilebundle, landlord, lru, lfu, gdsf, fifo, mru, random")
		cacheGB    = flag.Float64("cache-gb", 4, "cache size in GB")
		files      = flag.Int("files", 300, "file pool size")
		requests   = flag.Int("requests", 150, "request pool size")
		jobs       = flag.Int("jobs", 10000, "number of job arrivals")
		popularity = flag.String("popularity", "uniform", "request popularity: uniform or zipf")
		zipfS      = flag.Float64("zipf-s", 1, "Zipf exponent")
		maxFilePct = flag.Float64("max-file-pct", 0.05, "max file size as a fraction of the cache")
		bundleMax  = flag.Int("bundle-files", 6, "max files per request")
		seed       = flag.Int64("seed", 1, "workload seed")
		queueLen   = flag.Int("queue", 1, "admission queue length (>1 enables Fig 9 batching)")
		tracePath  = flag.String("trace", "", "replay a trace file instead of generating (json or gob by extension)")
		compare    = flag.Bool("compare", false, "run every policy on the same workload and print a comparison table")
		series     = flag.Int("series", 0, "emit a time-series point every N jobs")
		events     = flag.Bool("events", false, "run the timed discrete-event simulation")
		rate       = flag.Float64("rate", 2, "events: mean job arrival rate (jobs/s)")
		slots      = flag.Int("slots", 4, "events: concurrent job slots")
		mssLatency = flag.Float64("mss-latency", 10, "events: MSS per-transfer latency (s)")
		mssBW      = flag.Float64("mss-bw-mbps", 50, "events: MSS per-channel bandwidth (MB/s)")
		mssCh      = flag.Int("mss-channels", 4, "events: MSS transfer channels")
		traceOut   = flag.String("trace-out", "", "write a JSONL event trace (admits, loads, evicts, select rounds, staging, jobs) to this file; ignored with -compare")
		metricsOut = flag.String("metrics-out", "", "write the final metrics in Prometheus text format to this file")
	)
	flag.Parse()

	pop, err := workload.ParsePopularity(*popularity)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cachesim: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	w, err := loadWorkload(*tracePath, workload.Spec{
		Seed:           *seed,
		CacheSize:      bundle.Size(*cacheGB * float64(bundle.GB)),
		NumFiles:       *files,
		MinFileSize:    bundle.MB,
		MaxFilePct:     *maxFilePct,
		NumRequests:    *requests,
		MaxBundleFiles: *bundleMax,
		MaxBundleFrac:  0.5,
		Popularity:     pop,
		ZipfS:          *zipfS,
		Jobs:           *jobs,
	})
	if err != nil {
		die("%v", err)
	}

	capacity := w.Spec.CacheSize
	if *compare {
		runComparison(w, capacity, *seed)
		return
	}
	p, opt := buildPolicy(*policyName, capacity, w.Catalog.SizeFunc(), *seed)

	var tracer obs.Tracer
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			die("%v", err)
		}
		sink := obs.NewJSONLSink(f)
		defer func() {
			if err := sink.Err(); err != nil {
				die("trace-out: %v", err)
			}
			if err := f.Close(); err != nil {
				die("trace-out: %v", err)
			}
		}()
		tracer = sink
		installTracer(p, tracer)
	}

	fmt.Printf("workload: %d files, %d pooled requests, %d jobs, cache %v (~%.1f requests)\n",
		w.Catalog.Len(), len(w.Requests), len(w.Jobs), capacity, w.CacheSizeInRequests())
	fmt.Printf("policy: %s\n\n", p.Name())

	if *events {
		st, err := simulate.RunEvents(w, p, simulate.EventOptions{
			ArrivalRate: *rate,
			Slots:       *slots,
			Seed:        *seed,
			MSS: mss.Config{
				Name:         "mss",
				LatencySec:   *mssLatency,
				BandwidthBps: *mssBW * 1e6,
				Channels:     *mssCh,
			},
			Tracer: tracer,
		})
		if err != nil {
			die("%v", err)
		}
		if *metricsOut != "" {
			reg := obs.NewRegistry()
			reg.GaugeFunc("fbcache_sim_hit_ratio",
				"Request-hit ratio over completed jobs.",
				func() float64 { return st.HitRatio })
			reg.GaugeFunc("fbcache_sim_byte_miss_ratio",
				"Bytes loaded / bytes requested.",
				func() float64 { return st.ByteMissRatio })
			reg.CounterFunc("fbcache_sim_bytes_loaded_total",
				"Total miss traffic in bytes.",
				func() float64 { return float64(st.BytesLoaded) })
			metrics.ExportResilience(reg, func() metrics.Resilience { return st.Resilience })
			writeProm(*metricsOut, reg)
		}
		fmt.Printf("jobs completed     %d\n", st.Jobs)
		fmt.Printf("makespan           %.1f s\n", st.Makespan)
		fmt.Printf("throughput         %.3f jobs/s\n", st.Throughput)
		fmt.Printf("mean response      %.2f s\n", st.MeanResponse)
		fmt.Printf("p95 response       %.2f s\n", st.P95Response)
		fmt.Printf("mean staging       %.2f s\n", st.MeanStaging)
		fmt.Printf("request hit ratio  %.4f\n", st.HitRatio)
		fmt.Printf("byte miss ratio    %.4f\n", st.ByteMissRatio)
		fmt.Printf("bytes loaded       %v\n", st.BytesLoaded)
		fmt.Printf("MSS utilization    %.3f\n", st.MSSUtilization)
		return
	}

	opts := simulate.Options{QueueLength: *queueLen, SeriesInterval: *series, Tracer: tracer}
	if *queueLen > 1 && opt != nil {
		opts.Scheduler = queue.ByScore("relative-value", opt.RelativeValue)
	}
	col, err := simulate.Run(w, p, opts)
	if err != nil {
		die("%v", err)
	}
	if *metricsOut != "" {
		reg := obs.NewRegistry()
		col.ExportTo(reg)
		writeProm(*metricsOut, reg)
	}
	fmt.Printf("jobs               %d (unserviceable %d)\n", col.Jobs(), col.Unserviceable())
	fmt.Printf("request hit ratio  %.4f\n", col.HitRatio())
	fmt.Printf("byte miss ratio    %.4f\n", col.ByteMissRatio())
	fmt.Printf("byte hit ratio     %.4f\n", col.ByteHitRatio())
	fmt.Printf("data per request   %v\n", bundle.Size(col.BytesPerRequest()))
	fmt.Printf("bytes loaded       %v\n", col.BytesLoaded())
	fmt.Printf("files loaded       %d, evicted %d\n", col.FilesLoaded(), col.FilesEvicted())
	if *series > 0 {
		fmt.Println("\njobs  hit-ratio  byte-miss")
		for _, pt := range col.Series() {
			fmt.Printf("%5d  %9.4f  %9.4f\n", pt.Jobs, pt.HitRatio, pt.ByteMissRatio)
		}
	}
}

func loadWorkload(path string, spec workload.Spec) (*workload.Workload, error) {
	if path == "" {
		return workload.Generate(spec)
	}
	return trace.ReadFile(path)
}

// buildPolicy returns the policy and, for optfilebundle, the concrete type
// (needed for relative-value queue scheduling).
func buildPolicy(name string, capacity bundle.Size, sizeOf bundle.SizeFunc, seed int64) (policy.Policy, *core.OptFileBundle) {
	switch strings.ToLower(name) {
	case "optfilebundle", "opt":
		opt := core.New(capacity, sizeOf, core.Options{
			History: history.Config{Truncation: history.CacheResident},
		})
		return policy.WrapOptFileBundle(opt), opt
	case "landlord":
		return landlord.New(capacity, sizeOf), nil
	case "lru":
		return classic.NewLRU(capacity, sizeOf), nil
	case "lfu":
		return classic.NewLFU(capacity, sizeOf), nil
	case "gdsf":
		return classic.NewGDSF(capacity, sizeOf), nil
	case "fifo":
		return classic.NewFIFO(capacity, sizeOf), nil
	case "mru":
		return classic.NewMRU(capacity, sizeOf), nil
	case "random":
		return classic.NewRandom(capacity, sizeOf, seed), nil
	default:
		die("unknown policy %q", name)
		return nil, nil
	}
}

// runComparison drives every implemented policy (plus the clairvoyant
// Belady reference) over the same workload and prints one row each.
func runComparison(w *workload.Workload, capacity bundle.Size, seed int64) {
	fmt.Printf("workload: %d files, %d pooled requests, %d jobs, cache %v (~%.1f requests)\n\n",
		w.Catalog.Len(), len(w.Requests), len(w.Jobs), capacity, w.CacheSizeInRequests())
	fmt.Printf("%-16s %-10s %-11s %-14s\n", "policy", "hit-ratio", "byte-miss", "data/request")

	names := []string{"optfilebundle", "landlord", "gdsf", "lru", "lfu", "fifo", "random", "mru"}
	for _, name := range names {
		p, _ := buildPolicy(name, capacity, w.Catalog.SizeFunc(), seed)
		col, err := simulate.Run(w, p, simulate.Options{})
		if err != nil {
			die("%v", err)
		}
		printRow(p.Name(), col)
	}
	// Hindsight reference.
	future := make([]bundle.Bundle, len(w.Jobs))
	for i := range w.Jobs {
		future[i] = w.JobBundle(i)
	}
	bel := offline.New(capacity, w.Catalog.SizeFunc(), future)
	col, err := simulate.Run(w, bel, simulate.Options{})
	if err != nil {
		die("%v", err)
	}
	printRow(bel.Name(), col)
}

func printRow(name string, col *metrics.Collector) {
	fmt.Printf("%-16s %-10.4f %-11.4f %-14v\n",
		name, col.HitRatio(), col.ByteMissRatio(), bundle.Size(col.BytesPerRequest()))
}

// installTracer wires a tracer into p: policies with their own emit sites
// (OptFileBundle, Landlord) install it on themselves and their cache; any
// other policy still gets per-file Load/Evict events from the cache.
func installTracer(p policy.Policy, t obs.Tracer) {
	if st, ok := p.(interface{ SetTracer(obs.Tracer) }); ok {
		st.SetTracer(t)
		return
	}
	p.Cache().SetTracer(t)
}

// writeProm writes reg's snapshot in Prometheus text format to path.
func writeProm(path string, reg *obs.Registry) {
	f, err := os.Create(path)
	if err != nil {
		die("%v", err)
	}
	if err := reg.Snapshot().WritePrometheus(f); err != nil {
		die("metrics-out: %v", err)
	}
	if err := f.Close(); err != nil {
		die("metrics-out: %v", err)
	}
}

func die(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "cachesim: "+format+"\n", args...)
	os.Exit(1)
}
