// Command bench is the repository's end-to-end benchmark. It builds the
// stacks users run — srmd's OptFileBundle server over loopback TCP, with
// and without a file store, and the paper's trace-driven and timed grid
// simulators (§5) — drives them through their public entry points, checks
// their outputs, and prints every metric BENCHMARK.json declares.
//
//	bash bench/run.sh -workload srm-hit -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh                      # every workload, one child process each
//	bash bench/run.sh compare [-claim jobs_per_s@sim-paper] PARENT.jsonl -- CHANGE.jsonl
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced run
// (-trace 1) reports the per-layer ones, writes the kept request spans and
// a CPU profile under -trace-dir, and its tracing overhead. The last line
// of standard output is one JSON object: correct, attempted, failed and the
// metrics. See bench/README.md for the workloads and metric definitions.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runConfig is one run's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	tiny     bool // test scale: short traces and warm-ups
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload to run (default: every workload, each in its own child process)")
		seed     = fs.Int64("seed", 1, "workload seed")
		seconds  = fs.Float64("seconds", 0, "measured seconds (default: run_seconds of BENCHMARK.json)")
		trace    = fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
		traceDir = fs.String("trace-dir", filepath.Join(".bench_build", "trace"), "traced run: where span JSONL and CPU profiles go")
		out      = fs.String("out", "", "append the full result record (metrics with spread, environment) to this file")
		root     = fs.String("root", ".", "repository root, holding BENCHMARK.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: usage: bench [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-out FILE]")
		return 2
	}
	spec, err := loadSpec(*root)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	gold, err := loadGolden(*root)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *name == "" {
		return runAll(spec, args, stdout, stderr)
	}
	cfg := runConfig{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, traceDir: *traceDir}
	rec, err := runOne(cfg, spec, gold)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *name, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s seed %d (%s, %s, nproc %d, GOMAXPROCS %d, store on %s, commit %s)\n",
		rec.Workload, rec.Seed, rec.Env.CPUModel, rec.Env.GoVersion, rec.Env.NumCPU, rec.Env.GOMAXPROCS, rec.Env.StoreFS, rec.Env.Commit)
	printTable(stdout, rec.Metrics)
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	line, err := summaryLine(rec, declared(spec, cfg.trace))
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func declared(spec *benchSpec, trace bool) []string {
	decls := spec.EndToEnd
	if trace {
		decls = spec.PerLayer
	}
	names := make([]string, len(decls))
	for i, d := range decls {
		names[i] = d.Name
	}
	return names
}

// runOne runs one workload and checks that it produced every metric
// BENCHMARK.json declares for this kind of run, in the declared unit.
func runOne(cfg runConfig, spec *benchSpec, gold *golden) (record, error) {
	name := cfg.workload
	// The per-layer metric prefixes each kind of workload exercises.
	srmLayers := []string{"srm.", "store.", "policy.", "cpu.", "trace."}
	simLayers := []string{"simulate.", "replicate.", "policy.", "cpu.", "trace."}
	var o *outcome
	var layers []string
	var err error
	switch name {
	case "srm-hit":
		o, err = runSRM(srmHit, cfg)
		layers = srmLayers
	case "srm-miss-store":
		o, err = runSRM(srmMissStore, cfg)
		layers = srmLayers
	case "sim-paper":
		o, err = runSim(simPaper, cfg)
		layers = simLayers
	case "sim-grid":
		o, err = runSim(simGrid, cfg)
		layers = simLayers
	default:
		err = fmt.Errorf("unknown workload (want srm-hit, srm-miss-store, sim-paper or sim-grid)")
	}
	if err != nil {
		return record{}, err
	}
	if !cfg.tiny {
		if err := gold.check(name, cfg.seed, o.Quality); err != nil {
			return record{}, err
		}
	}
	decls := spec.EndToEnd
	if cfg.trace {
		decls = spec.PerLayer
	}
	for _, d := range decls {
		m, ok := o.Metrics[d.Name]
		if !ok && cfg.trace && !hasPrefix(d.Name, layers) {
			// A layer this workload never runs does no work: it reads 0.
			m, ok = single(d.Unit, 0), true
			o.Metrics[d.Name] = m
		}
		if !ok || m.Unit != d.Unit {
			return record{}, fmt.Errorf("metric %s (%s) declared in BENCHMARK.json but measured as %q", d.Name, d.Unit, m.Unit)
		}
	}
	return record{
		Workload: name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Correct: true, Attempted: o.Attempted, Failed: o.Failed,
		Metrics: o.Metrics, Quality: o.Quality, Env: currentEnv(),
	}, nil
}

// subSeed derives the seed of the k-th pool of a run. A run covers
// several independently generated pools, so its medians describe the
// workload model rather than one draw of it.
func subSeed(seed int64, k int) int64 { return seed*1000 + int64(k) }

func runSRM(wl srmWorkload, cfg runConfig) (*outcome, error) {
	if cfg.tiny {
		wl.spec.Jobs, wl.warmup, wl.pools = 2000, 200, 2
	}
	warmup := wl.warmup
	win := time.Duration(cfg.seconds * float64(time.Second) / float64(wl.pools))
	if !cfg.trace {
		var ws []window
		var setups []float64
		for k := 0; k < wl.pools; k++ {
			w, setup, err := srmWindow(wl, subSeed(cfg.seed, k), warmup, win, k, nil, nil)
			if err != nil {
				return nil, err
			}
			ws, setups = append(ws, w), append(setups, setup)
		}
		o := windowsOutcome(ws)
		return o, finishE2E(o, medianOf("s", setups, len(setups)))
	}

	// Traced: each pool serves half a window untraced, as the overhead
	// baseline, then half a window on a stack carrying the span sinks and
	// policy timing.
	tr := &srmTrace{spans: newSpanCollector(), policy: &timedPolicy{}}
	prof := newCPUProfile(tracePath(cfg, ""))
	var base, ws []window
	wall := 0.0
	for k := 0; k < wl.pools; k++ {
		b, _, err := srmWindow(wl, subSeed(cfg.seed, k), warmup, win/2, k, nil, nil)
		if err != nil {
			return nil, err
		}
		w, _, err := srmWindow(wl, subSeed(cfg.seed, k), warmup, win/2, k, tr, prof)
		if err != nil {
			return nil, err
		}
		base, ws, wall = append(base, b), append(ws, w), wall+w.secs
	}
	o := windowsOutcome(ws)
	layers := map[string]metric{}
	tr.spans.metrics(wall, layers)
	tr.policy.metrics(wall, layers)
	perLoaded := 0.0
	if tr.loaded > 0 {
		perLoaded = float64(tr.served) / float64(tr.loaded)
	}
	layers["store.bytes_written_per_byte_loaded"] = single("ratio", perLoaded)
	layers["store.retries"] = single("count", float64(tr.retries))
	finishTrace(o, windowsOutcome(base), layers, prof)
	return o, tr.spans.write(tracePath(cfg, ".spans.jsonl"))
}

// srmWindow builds the stack of one pool, timing the set-up, serves one
// window of win on it, checks the server's view and closes the stack. With
// tr set, the window's spans and admissions are recorded and its CPU
// profiled into prof.
func srmWindow(wl srmWorkload, seed int64, warmup int, win time.Duration, k int, tr *srmTrace, prof *cpuProfile) (window, float64, error) {
	t0 := time.Now()
	s, err := newSRMStack(wl, seed, warmup, tr)
	if err != nil {
		return window{}, 0, err
	}
	setup := time.Since(t0).Seconds()
	var w window
	measure := func() (err error) {
		w, err = s.measure(win)
		return err
	}
	if tr != nil {
		// Each job is two requests: stage and release.
		tr.record(true, k, 2*s.warmupRate*win.Seconds())
		err = prof.run(measure)
		tr.record(false, k, 0)
	} else {
		err = measure()
	}
	if err == nil {
		err = s.check()
	}
	if tr != nil && err == nil {
		tr.addStack(s)
	}
	return w, setup, errors.Join(err, s.close())
}

func runSim(wl simWorkload, cfg runConfig) (*outcome, error) {
	if cfg.tiny {
		wl.spec.Jobs, wl.warmup, wl.pools = 2000, 200, 2
	}
	jobs, warmup := wl.spec.Jobs, wl.warmup
	s := &simStack{wl: wl, jobs: jobs}
	var setups []float64
	for k := 0; k < wl.pools; k++ {
		t0 := time.Now()
		if err := s.addTrace(subSeed(cfg.seed, k), warmup); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	d := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		run, err := s.replay(d, nil)
		if err != nil {
			return nil, err
		}
		o := run.outcome(jobs)
		return o, finishE2E(o, medianOf("s", setups, len(setups)))
	}

	base, err := s.replay(d/2, nil)
	if err != nil {
		return nil, err
	}
	tp := &timedPolicy{}
	tp.record(true)
	prof := newCPUProfile(tracePath(cfg, ""))
	var run *simRun
	if err := prof.run(func() (err error) {
		run, err = s.replay(d/2, tp)
		return err
	}); err != nil {
		return nil, err
	}
	o := run.outcome(jobs)
	var wall, p95, mean, bytes float64
	var epochs, actions, emergency int64
	for _, p := range run.passes {
		wall += p.wall.Seconds()
		p95 += p.p95
		mean += p.quality["mean_response_s"]
		epochs += p.repl.Epochs
		actions += p.repl.Actions
		emergency += p.repl.Emergency
		bytes += float64(p.repl.Bytes)
	}
	passes := float64(len(run.passes))
	layers := map[string]metric{}
	busy := tp.metrics(wall, layers)
	layers["simulate.self_share"] = single("share", 1-busy/wall)
	layers["simulate.p95_response_s"] = single("s", p95/passes)
	layers["simulate.mean_response_s"] = single("s", mean/passes)
	layers["replicate.epochs_per_kjob"] = single("1/kjob", float64(epochs)/(passes*float64(jobs)/1000))
	layers["replicate.actions_per_epoch"] = single("1/epoch", float64(actions)/float64(max(epochs, 1)))
	layers["replicate.bytes_gb"] = single("GB", bytes/passes/1e9)
	layers["replicate.emergency"] = single("count", float64(emergency)/passes)
	finishTrace(o, base.outcome(jobs), layers, prof)
	return o, nil
}

// finishE2E adds the metrics every untraced run reports besides its own
// timing: set-up time and peak memory.
func finishE2E(o *outcome, setup metric) error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	o.Metrics["setup_s"] = setup
	o.Metrics["peak_rss_mb"] = single("MB", rss)
	return nil
}

// finishTrace replaces a traced run's metrics with the per-layer ones: the
// layer metrics, the CPU shares, and the overhead of tracing against the
// untraced baseline measured in the same process.
func finishTrace(o, base *outcome, layers map[string]metric, prof *cpuProfile) {
	for k, v := range prof.shares() {
		layers["cpu.share."+k] = single("share", v)
	}
	layers["trace.overhead"] = single("share", 1-o.Metrics["jobs_per_s"].Value/base.Metrics["jobs_per_s"].Value)
	o.Metrics = layers
}

// tracePath names a traced run's output file under the trace directory.
func tracePath(cfg runConfig, suffix string) string {
	return filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d%s", cfg.workload, cfg.seed, suffix))
}

func hasPrefix(name string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// runAll runs every workload in its own child process — a clean heap and
// its own peak RSS each — passing the other flags through, and relays
// their output.
func runAll(spec *benchSpec, args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, wl := range spec.Workloads {
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(spec.RunSeconds)*3*time.Second+3*time.Minute)
		// The workload flag goes last, so it wins over any in args.
		childArgs := append(append([]string(nil), args...), "-workload", wl.Name)
		cmd := exec.CommandContext(ctx, self, childArgs...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		err := cmd.Run()
		cancel()
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", wl.Name, err)
			code = 1
		}
	}
	return code
}
