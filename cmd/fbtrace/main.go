// Command fbtrace analyzes the two trace formats in this repo: the JSONL
// event traces written by cachesim -trace-out and srmbench -trace-out
// (cache/policy/simulator events: loads, evicts, admissions, stagings,
// servings), and the workload traces written by tracegen (a file catalog
// plus a request stream).
//
// Subcommands:
//
//	fbtrace summary [-lenient] [-window N] [-top K] trace.jsonl
//	    Per-policy hit/byte-miss ratios, residency-time and inter-eviction
//	    percentiles (jobs clock), eviction churn, windowed hit-ratio curve.
//	fbtrace validate [-lenient] [-capacity BYTES] trace.jsonl
//	    Replays the trace, reconstructing cache residency and re-checking
//	    the invariant properties offline (exit 1 on any violation).
//	fbtrace critical-path [-lenient] [-top K] trace.jsonl
//	    Per-job queue-wait / transfer / process breakdown from event-driven
//	    runs, with the top-K slowest jobs and the misses that blocked them.
//	fbtrace diff [-lenient] a.jsonl b.jsonl
//	    First diverging event, per-kind counts, and stat deltas between two
//	    traces (exit 1 when they differ, diff(1)-style).
//	fbtrace spans [-lenient] [-top K] [-trees] flight.jsonl
//	    Per-op latency table (p50/p90/p99/max from exact durations), the
//	    slowest requests, and reconstructed request trees from the span
//	    events dumped by the flight recorder (srmd -flight-out).
//	fbtrace workload run.trace.json
//	    File and request pool statistics, popularity concentration,
//	    file-sharing degree (the d of Theorem 4.1) and the reference cache
//	    size in requests of a workload trace (JSON, or gob by extension).
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"

	"fbcache/internal/obs"
	"fbcache/internal/obs/analyze"
	"fbcache/internal/obs/span"
	"fbcache/internal/obs/traceio"
	"fbcache/internal/trace"
	"fbcache/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

const usageText = `usage: fbtrace <command> [flags] <trace.jsonl> [trace2.jsonl]

commands:
  summary        hit ratios, residency percentiles, churn, windowed curves
  validate       replay the trace and re-check cache invariants offline
  critical-path  per-job queue/transfer/process breakdown, slowest jobs
  diff           compare two traces event-by-event (exit 1 when they differ)
  spans          per-op latency table, slowest requests, request trees
  workload       describe a workload trace (tracegen output, JSON or gob)
`

// run dispatches the subcommand and returns the process exit code:
// 0 success, 1 analysis failure (invariant violation, differing traces,
// unreadable input), 2 usage error.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, usageText)
		return 2
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "summary":
		return runSummary(rest, stdout, stderr)
	case "validate":
		return runValidate(rest, stdout, stderr)
	case "critical-path":
		return runCritical(rest, stdout, stderr)
	case "diff":
		return runDiff(rest, stdout, stderr)
	case "spans":
		return runSpans(rest, stdout, stderr)
	case "workload":
		return runWorkload(rest, stdout, stderr)
	case "-h", "-help", "--help", "help":
		fmt.Fprint(stdout, usageText)
		return 0
	default:
		fmt.Fprintf(stderr, "fbtrace: unknown command %q\n\n%s", cmd, usageText)
		return 2
	}
}

// newFlagSet builds the shared flag scaffolding; every subcommand takes
// -lenient (skip undecodable lines instead of failing).
func newFlagSet(name string, stderr io.Writer, lenient *bool) *flag.FlagSet {
	fs := flag.NewFlagSet("fbtrace "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.BoolVar(lenient, "lenient", false, "skip undecodable lines instead of failing")
	return fs
}

// load reads one trace, honouring -lenient, and reports skips to stderr.
func load(path string, lenient bool, stderr io.Writer) ([]traceio.Event, error) {
	mode := traceio.Strict
	if lenient {
		mode = traceio.Lenient
	}
	events, skipped, err := traceio.ReadFile(path, mode)
	if err != nil {
		return nil, err
	}
	if skipped > 0 {
		fmt.Fprintf(stderr, "fbtrace: %s: skipped %d undecodable line(s)\n", path, skipped)
	}
	return events, nil
}

func runSummary(args []string, stdout, stderr io.Writer) int {
	var lenient bool
	fs := newFlagSet("summary", stderr, &lenient)
	window := fs.Int("window", 100, "jobs per hit-ratio curve point")
	top := fs.Int("top", 5, "most-evicted files to list")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: fbtrace summary [-lenient] [-window N] [-top K] <trace.jsonl>")
		return 2
	}
	events, err := load(fs.Arg(0), lenient, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "fbtrace: %v\n", err)
		return 1
	}
	s := analyze.Summarize(events, analyze.SummaryOptions{Window: *window, TopChurn: *top})

	fmt.Fprintf(stdout, "trace: %s (%d events)\n\n", fs.Arg(0), len(events))
	st := s.Stats
	fmt.Fprintf(stdout, "events: %d admits, %d loads, %d evicts, %d select rounds, %d jobs served\n",
		st.Admits, st.Loads, st.Evicts, st.SelectRounds, st.JobsServed)
	if st.ReplicaPlans > 0 {
		fmt.Fprintf(stdout, "replication: %d plan epoch(s), %d bytes re-replicated\n",
			st.ReplicaPlans, st.BytesReplicated)
	}
	for _, p := range s.Policies {
		fmt.Fprintf(stdout, "\npolicy %s:\n", p.Policy)
		fmt.Fprintf(stdout, "  admissions       %d (%d hits, %d unserviceable)\n",
			p.Admits, p.Hits, p.Unserviceable)
		fmt.Fprintf(stdout, "  hit ratio        %.4f\n", p.HitRatio())
		fmt.Fprintf(stdout, "  byte miss ratio  %.4f (%d / %d bytes)\n",
			p.ByteMissRatio(), p.BytesLoaded, p.BytesRequested)
	}

	printHist := func(name string, m obs.Metric) {
		if m.Count == 0 {
			fmt.Fprintf(stdout, "\n%s: no observations\n", name)
			return
		}
		p50, p90, p99 := m.P50P90P99()
		fmt.Fprintf(stdout, "\n%s (jobs clock, %d observations):\n", name, m.Count)
		fmt.Fprintf(stdout, "  p50 %s  p90 %s  p99 %s  mean %.1f\n",
			fmtJobs(p50), fmtJobs(p90), fmtJobs(p99), m.Sum/float64(m.Count))
	}
	printHist("residency before eviction", s.Residency)
	printHist("inter-eviction gap", s.InterEviction)

	if len(s.Churn) > 0 {
		fmt.Fprintf(stdout, "\neviction churn: %d file(s) evicted more than once, %d reload(s)\n",
			s.ChurnedFiles, s.Reloads)
		for _, c := range s.Churn {
			fmt.Fprintf(stdout, "  file %-8d %d evictions, %d reloads\n", c.File, c.Evictions, c.Reloads)
		}
	}

	if len(s.Windows) > 0 {
		fmt.Fprintf(stdout, "\nhit-ratio curve (window %d jobs):\n", *window)
		fmt.Fprintf(stdout, "  %8s  %9s  %13s\n", "jobs", "hit-ratio", "byte-hit-ratio")
		for _, w := range s.Windows {
			fmt.Fprintf(stdout, "  %8d  %9.4f  %13.4f\n", w.Jobs, w.HitRatio, w.ByteHitRatio)
		}
	}
	return 0
}

// fmtJobs renders a jobs-clock quantile; NaN (estimate in the +Inf bucket's
// open end) prints as ">max".
func fmtJobs(v float64) string {
	if math.IsNaN(v) {
		return "?"
	}
	return fmt.Sprintf("%.1f", v)
}

func runValidate(args []string, stdout, stderr io.Writer) int {
	var lenient bool
	fs := newFlagSet("validate", stderr, &lenient)
	capacity := fs.Int64("capacity", 0, "cache capacity in bytes (0 skips the capacity check)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: fbtrace validate [-lenient] [-capacity BYTES] <trace.jsonl>")
		return 2
	}
	events, err := load(fs.Arg(0), lenient, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "fbtrace: %v\n", err)
		return 1
	}
	res := analyze.Replay(events, *capacity)
	fmt.Fprintf(stdout, "%s: %d events, %d admissions, %d distinct files\n",
		fs.Arg(0), res.Events, res.Admits, res.DistinctFiles)
	fmt.Fprintf(stdout, "residency: peak %d bytes, final %d bytes in %d file(s)\n",
		res.MaxUsedBytes, res.EndUsedBytes, res.EndResident)
	if res.OK() {
		fmt.Fprintln(stdout, "replay: OK — no invariant violations")
		return 0
	}
	fmt.Fprintf(stdout, "replay: %d violation(s)\n", len(res.Violations))
	for _, v := range res.Violations {
		fmt.Fprintf(stdout, "  %s\n", v)
	}
	return 1
}

func runCritical(args []string, stdout, stderr io.Writer) int {
	var lenient bool
	fs := newFlagSet("critical-path", stderr, &lenient)
	top := fs.Int("top", 10, "slowest jobs to list")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: fbtrace critical-path [-lenient] [-top K] <trace.jsonl>")
		return 2
	}
	events, err := load(fs.Arg(0), lenient, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "fbtrace: %v\n", err)
		return 1
	}
	cp := analyze.CriticalPaths(events, *top)
	fmt.Fprintf(stdout, "%s: %d job(s) served\n", fs.Arg(0), cp.Jobs)
	if cp.Jobs == 0 {
		return 0
	}
	if !cp.Timed {
		fmt.Fprintln(stdout, "trace has no timing (trace-driven run); no breakdown available")
		return 0
	}
	fmt.Fprintf(stdout, "mean response %.3fs = queue %.3fs + transfer %.3fs + process %.3fs\n",
		cp.MeanResponse, cp.MeanQueueWait, cp.MeanTransfer, cp.MeanProcess)
	fmt.Fprintf(stdout, "\nslowest %d job(s):\n", len(cp.Top))
	fmt.Fprintf(stdout, "  %6s %10s %8s %9s %8s %7s %6s  %s\n",
		"job", "response", "queue", "transfer", "process", "retries", "fails", "blocking files")
	for _, p := range cp.Top {
		fmt.Fprintf(stdout, "  %6d %9.3fs %7.3fs %8.3fs %7.3fs %7d %6d  %s\n",
			p.Job, p.Response, p.QueueWait, p.Transfer, p.Process,
			p.Retries, p.FailedAttempts, fmtFiles(p.BlockingFiles))
	}
	return 0
}

// fmtFiles renders a blocking-file list compactly (at most 6 IDs).
func fmtFiles(files []int64) string {
	if len(files) == 0 {
		return "-"
	}
	sorted := append([]int64(nil), files...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	out := ""
	for i, f := range sorted {
		if i == 6 {
			return fmt.Sprintf("%s +%d more", out, len(sorted)-6)
		}
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%d", f)
	}
	return out
}

func runSpans(args []string, stdout, stderr io.Writer) int {
	var lenient bool
	fs := newFlagSet("spans", stderr, &lenient)
	top := fs.Int("top", 10, "slowest requests to list")
	trees := fs.Bool("trees", false, "print every reconstructed request tree")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: fbtrace spans [-lenient] [-top K] [-trees] <trace.jsonl>")
		return 2
	}
	events, err := load(fs.Arg(0), lenient, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "fbtrace: %v\n", err)
		return 1
	}
	rep := analyze.Spans(events, *top)
	fmt.Fprintf(stdout, "%s: %d span(s) in %d request(s)\n", fs.Arg(0), rep.Spans, rep.Requests)
	if rep.Spans == 0 {
		return 0
	}

	fmt.Fprintln(stdout, "\nper-op latency (wall clock):")
	fmt.Fprintf(stdout, "  %-14s %7s %7s %12s %12s %12s %12s\n",
		"op", "count", "errors", "p50", "p90", "p99", "max")
	for _, o := range rep.Ops {
		fmt.Fprintf(stdout, "  %-14s %7d %7d %12s %12s %12s %12s\n",
			o.Op, o.Count, o.Errors, fmtDur(o.P50), fmtDur(o.P90), fmtDur(o.P99), fmtDur(o.Max))
	}

	fmt.Fprintf(stdout, "\nslowest %d request(s):\n", len(rep.Slowest))
	fmt.Fprintf(stdout, "  %8s %-14s %12s %6s  %s\n", "req", "op", "duration", "spans", "err")
	for _, s := range rep.Slowest {
		errs := s.Err
		if errs == "" {
			errs = "-"
		}
		fmt.Fprintf(stdout, "  %8d %-14s %12s %6d  %s\n", s.Req, s.Op, fmtDur(s.DurSec), s.Spans, errs)
	}

	if *trees {
		fmt.Fprintln(stdout, "\nrequest trees:")
		for _, t := range rep.Trees {
			printTree(stdout, t, 1)
		}
	}
	return 0
}

// fmtDur renders a span duration in seconds as a human duration, rounded
// to the microsecond so table columns stay narrow.
func fmtDur(sec float64) string {
	return time.Duration(sec * float64(time.Second)).Round(time.Microsecond).String()
}

// printTree renders one request tree, indenting two spaces per level; the
// root line carries the request ID.
func printTree(w io.Writer, n *span.Node, depth int) {
	fmt.Fprintf(w, "%*s%s %s", depth*2, "", n.Op, fmtDur(n.DurSec))
	if depth == 1 {
		fmt.Fprintf(w, " (req %d)", n.Req)
	}
	if n.Bytes > 0 {
		fmt.Fprintf(w, " bytes=%d", n.Bytes)
	}
	if n.Files > 0 {
		fmt.Fprintf(w, " files=%d", n.Files)
	}
	if n.Hit {
		fmt.Fprint(w, " hit")
	}
	if n.Err != "" {
		fmt.Fprintf(w, " err=%s", n.Err)
	}
	fmt.Fprintln(w)
	for _, c := range n.Children {
		printTree(w, c, depth+1)
	}
}

func runDiff(args []string, stdout, stderr io.Writer) int {
	var lenient bool
	fs := newFlagSet("diff", stderr, &lenient)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: fbtrace diff [-lenient] <a.jsonl> <b.jsonl>")
		return 2
	}
	a, err := load(fs.Arg(0), lenient, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "fbtrace: %v\n", err)
		return 1
	}
	b, err := load(fs.Arg(1), lenient, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "fbtrace: %v\n", err)
		return 1
	}
	d := analyze.Diff(a, b)
	if d.Identical() {
		fmt.Fprintf(stdout, "traces identical: %d events\n", d.LenA)
		return 0
	}
	fmt.Fprintf(stdout, "traces differ: %d vs %d events, first divergence at event %d\n",
		d.LenA, d.LenB, d.FirstDiverge)
	if d.DivergeA != "" {
		fmt.Fprintf(stdout, "  a: %s\n", d.DivergeA)
	} else {
		fmt.Fprintln(stdout, "  a: <trace ended>")
	}
	if d.DivergeB != "" {
		fmt.Fprintf(stdout, "  b: %s\n", d.DivergeB)
	} else {
		fmt.Fprintln(stdout, "  b: <trace ended>")
	}
	fmt.Fprintln(stdout, "\nevent counts:")
	fmt.Fprintf(stdout, "  %-14s %8s %8s\n", "kind", "a", "b")
	for _, k := range d.Kinds {
		fmt.Fprintf(stdout, "  %-14s %8d %8d\n", k.Kind, k.A, k.B)
	}
	if len(d.StatDeltas) > 0 {
		fmt.Fprintln(stdout, "\nstat deltas:")
		for _, sd := range d.StatDeltas {
			fmt.Fprintf(stdout, "  %-14s %8d %8d\n", sd.Name, sd.A, sd.B)
		}
	}
	return 1
}

// runWorkload describes a workload trace: the catalog and request stream
// tracegen writes, not a JSONL event trace.
func runWorkload(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fbtrace workload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: fbtrace workload <trace-file>")
		return 2
	}
	path := fs.Arg(0)
	w, err := trace.ReadFile(path)
	if err != nil {
		fmt.Fprintf(stderr, "fbtrace: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "trace: %s\n\n", path)
	workload.Describe(w).Render(stdout)
	return 0
}
