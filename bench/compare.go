package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// quartiles returns the first quartile, median and third quartile of vals
// by the rule of Python's statistics.quantiles(vals, n=4) (the "exclusive"
// method), so spreads computed here match those computed from the same
// numbers elsewhere.
func quartiles(vals []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), vals...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	m := len(d) + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(d)-1)
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// comparison is one (metric, workload) row of a compare report.
type comparison struct {
	Workload, Metric string
	Parent, Change   []float64
	Bound            float64
	LowerIsBetter    bool
	Claimed          bool

	ParentQ, ChangeQ [3]float64 // q1, median, q3
	Worse            float64    // change median vs parent median, positive = worse, as a share of the parent's
	Spread           float64    // the wider side's IQR as a share of its median
	Verdict          string
}

// judge applies the benchmark's acceptance rules to one row:
//   - "better": every change run reads better than every parent run;
//   - "unresolved": otherwise, when either side's spread exceeds the bound;
//   - "regressed": the change's median is worse than the parent's by more
//     than the bound;
//   - "ok": none of these.
//
// A claimed row must also show a gain: the change wins at least nine tenths
// of the run pairs (ties count for neither side) and the medians differ by
// more than the parent's interquartile range; "claim met" or "claim not met"
// then replaces "ok" or "better".
func (c *comparison) judge() {
	better := func(a, b float64) bool { // a reads better than b
		if c.LowerIsBetter {
			return a < b
		}
		return a > b
	}
	p1, pm, p3 := quartiles(c.Parent)
	c1, cm, c3 := quartiles(c.Change)
	c.ParentQ, c.ChangeQ = [3]float64{p1, pm, p3}, [3]float64{c1, cm, c3}
	c.Worse = (cm - pm) / math.Abs(pm)
	if !c.LowerIsBetter {
		c.Worse = -c.Worse
	}
	c.Spread = math.Max((p3-p1)/math.Abs(pm), (c3-c1)/math.Abs(cm))

	allBetter := true
	for _, a := range c.Change {
		for _, b := range c.Parent {
			allBetter = allBetter && better(a, b)
		}
	}
	switch {
	case allBetter:
		c.Verdict = "better"
	case c.Spread > c.Bound:
		c.Verdict = "unresolved"
	case c.Worse > c.Bound:
		c.Verdict = "regressed"
	default:
		c.Verdict = "ok"
	}
	if !c.Claimed || c.Verdict == "unresolved" || c.Verdict == "regressed" {
		return
	}
	pairs := min(len(c.Parent), len(c.Change))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(c.Change[i], c.Parent[i]) {
			wins++
		}
	}
	if pairs > 0 && 10*wins >= 9*pairs && better(cm, pm) && math.Abs(cm-pm) > p3-p1 {
		c.Verdict = "claim met"
	} else {
		c.Verdict = "claim not met"
	}
}

// compareRecords builds one row per end-to-end metric and workload present
// on both sides. Runs pair up in file order.
func compareRecords(spec *benchSpec, parent, change []record, claims map[string]bool) []comparison {
	values := func(recs []record, wl, metric string) []float64 {
		var out []float64
		for _, r := range recs {
			if m, ok := r.Metrics[metric]; ok && r.Workload == wl && !r.Trace {
				out = append(out, m.Value)
			}
		}
		return out
	}
	var rows []comparison
	for _, wl := range spec.Workloads {
		for _, d := range spec.EndToEnd {
			p, c := values(parent, wl.Name, d.Name), values(change, wl.Name, d.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			row := comparison{
				Workload: wl.Name, Metric: d.Name, Parent: p, Change: c, Bound: d.Bound,
				LowerIsBetter: d.Better == "lower", Claimed: claims[d.Name+"@"+wl.Name],
			}
			row.judge()
			rows = append(rows, row)
		}
	}
	return rows
}

// claimList collects repeated -claim flags.
type claimList map[string]bool

func (c claimList) String() string { return fmt.Sprint(map[string]bool(c)) }

func (c claimList) Set(v string) error {
	if !strings.Contains(v, "@") {
		return fmt.Errorf("claim %q: want metric@workload", v)
	}
	c[v] = true
	return nil
}

// runCompare implements `bench compare [-claim metric@workload]...
// PARENT... -- CHANGE...`: each file holds result records (-out), the
// parent's before "--" and the change's after. It exits 1 when a row
// regressed or a claim was not met.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	claims := claimList{}
	fs.Var(claims, "claim", "metric@workload the change claims to improve (repeatable)")
	root := fs.String("root", ".", "repository root, holding BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	files := fs.Args()
	sep := -1
	for i, f := range files {
		if f == "--" {
			sep = i
		}
	}
	if sep < 1 || sep == len(files)-1 {
		fmt.Fprintln(stderr, "bench: usage: bench compare [-claim metric@workload]... PARENT... -- CHANGE...")
		return 2
	}
	spec, err := loadSpec(*root)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	read := func(paths []string) ([]record, error) {
		var out []record
		for _, p := range paths {
			recs, err := readRecords(p)
			if err != nil {
				return nil, err
			}
			out = append(out, recs...)
		}
		return out, nil
	}
	parent, err := read(files[:sep])
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	change, err := read(files[sep+1:])
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	rows := compareRecords(spec, parent, change, claims)
	if len(rows) == 0 {
		fmt.Fprintln(stderr, "bench: no (metric, workload) pair measured on both sides")
		return 1
	}
	return printComparison(stdout, rows)
}

func printComparison(w io.Writer, rows []comparison) int {
	fmt.Fprintf(w, "%-15s %-15s %25s %25s %8s %7s %7s  %s\n",
		"workload", "metric", "parent median [q1 q3]", "change median [q1 q3]", "worse", "spread", "bound", "verdict")
	code := 0
	for _, r := range rows {
		fmt.Fprintf(w, "%-15s %-15s %10.4g [%.4g %.4g] %10.4g [%.4g %.4g] %+7.1f%% %6.1f%% %6.1f%%  %s (n=%d/%d)\n",
			r.Workload, r.Metric, r.ParentQ[1], r.ParentQ[0], r.ParentQ[2], r.ChangeQ[1], r.ChangeQ[0], r.ChangeQ[2],
			100*r.Worse, 100*r.Spread, 100*r.Bound, r.Verdict, len(r.Parent), len(r.Change))
		if r.Verdict == "regressed" || r.Verdict == "claim not met" {
			code = 1
		}
	}
	return code
}
