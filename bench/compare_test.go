package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(data, n=4) on known inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 4, 3, 2}, [3]float64{1.5, 3, 7}},
		{[]float64{5, 7}, [3]float64{4.5, 6, 7.5}},
		{[]float64{3}, [3]float64{3, 3, 3}},
	} {
		q1, med, q3 := quartiles(tc.in)
		if got := [3]float64{q1, med, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func row(lower bool, bound float64, claimed bool, parent, change []float64) comparison {
	c := comparison{Workload: "w", Metric: "m", Parent: parent, Change: change, Bound: bound, LowerIsBetter: lower, Claimed: claimed}
	c.judge()
	return c
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100.5, 99.5, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 100, 80, 120, 100, 70, 130, 90, 110}
	for _, tc := range []struct {
		name string
		c    comparison
		want string
	}{
		{"unchanged", row(true, 0.1, false, steady, scaled(1.02)), "ok"},
		{"latency up 20%", row(true, 0.1, false, steady, scaled(1.2)), "regressed"},
		{"throughput down 20%", row(false, 0.1, false, steady, scaled(0.8)), "regressed"},
		{"throughput up 5% within bound", row(false, 0.1, false, steady, scaled(1.05)), "better"},
		{"spread wider than bound", row(true, 0.1, false, noisy, scaled(1.05)), "unresolved"},
		{"noisy but every run better", row(true, 0.1, false, noisy, scaled(0.5)), "better"},
		{"claim: clear win", row(true, 0.1, true, steady, scaled(0.9)), "claim met"},
		{"claim: inside parent IQR", row(true, 0.1, true, steady, scaled(0.995)), "claim not met"},
		{"claim: wrong direction", row(false, 0.1, true, steady, scaled(0.97)), "claim not met"},
		{"claim: wins 8 of 10", row(true, 0.1, true, steady,
			[]float64{90, 91, 89, 90, 90, 90, 90, 91, 101, 102}), "claim not met"},
	} {
		if tc.c.Verdict != tc.want {
			t.Errorf("%s: verdict %q (worse %.3f, spread %.3f), want %q", tc.name, tc.c.Verdict, tc.c.Worse, tc.c.Spread, tc.want)
		}
	}
}

// TestCompareCommand runs the subcommand on result files: a regression on
// one metric fails the comparison, and a claim is judged on its own row.
func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rate, p50 float64) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 10; i++ {
			jitter := 1 + 0.002*float64(i%3-1)
			r := record{Workload: "sim-paper", Seed: int64(i), Correct: true, Metrics: map[string]metric{
				"jobs_per_s": {Value: rate * jitter, Unit: "jobs/s"},
				"job_p50_us": {Value: p50 * jitter, Unit: "us"},
			}}
			if err := appendRecord(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	parent := write("parent.jsonl", 1000, 30)
	faster := write("faster.jsonl", 1200, 30.3)
	slower := write("slower.jsonl", 650, 30)

	var out, errOut bytes.Buffer
	if code := runCompare([]string{"-root", "..", "-claim", "jobs_per_s@sim-paper", parent, "--", faster}, &out, &errOut); code != 0 {
		t.Fatalf("faster change: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "claim met") {
		t.Errorf("claim not reported met:\n%s", out.String())
	}
	out.Reset()
	if code := runCompare([]string{"-root", "..", parent, "--", slower}, &out, &errOut); code != 1 || !strings.Contains(out.String(), "regressed") {
		t.Errorf("slower change: exit %d\n%s", code, out.String())
	}
	if code := runCompare([]string{"-root", "..", parent}, &out, &errOut); code != 2 {
		t.Errorf("no separator: exit %d", code)
	}
}

func TestReadRecordsRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(path, []byte("{\"workload\":\"x\"}\nnot json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readRecords(path); err == nil {
		t.Error("garbage line accepted")
	}
	if q1, _, _ := quartiles(nil); !math.IsNaN(q1) {
		t.Error("quartiles of nothing should be NaN")
	}
}
