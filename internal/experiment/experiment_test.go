package experiment

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

// testConfig is small enough to keep the whole suite fast while preserving
// every qualitative shape.
func testConfig() Config {
	c := DefaultConfig()
	c.Jobs = 1200
	c.NumFiles = 150
	c.NumRequests = 80
	return c
}

func TestTable1MatchesPaper(t *testing.T) {
	tab := Table1()
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	wantCounts := []float64{2, 1, 2, 2, 4, 3, 3}
	counts, err := tab.SeriesValues("requests")
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range wantCounts {
		if counts[i] != w {
			t.Errorf("f%d count = %v, want %v", i+1, counts[i], w)
		}
	}
	probs, _ := tab.SeriesValues("probability")
	// Table 1: f5 has probability 2/3; f6,f7 have 1/2.
	if math.Abs(probs[4]-2.0/3) > 1e-12 {
		t.Errorf("P(f5) = %v", probs[4])
	}
	if math.Abs(probs[5]-0.5) > 1e-12 || math.Abs(probs[6]-0.5) > 1e-12 {
		t.Errorf("P(f6),P(f7) = %v,%v", probs[5], probs[6])
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	tab := Table2()
	probs, err := tab.SeriesValues("request-hit probability")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1.0 / 6, 0.5, 1.0 / 6, 1.0 / 6, 0}
	for i, w := range want {
		if math.Abs(probs[i]-w) > 1e-12 {
			t.Errorf("row %d hit probability = %v, want %v", i, probs[i], w)
		}
	}
	// The note must confirm OptCacheSelect found the 1/2 optimum.
	joined := strings.Join(tab.Notes, " ")
	if !strings.Contains(joined, "0.500") {
		t.Errorf("OptCacheSelect note missing optimum: %q", joined)
	}
}

func TestFigure5TruncationNegligible(t *testing.T) {
	tab, err := testConfig().Figure5()
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"uniform", "zipf"} {
		vals, err := tab.SeriesValues(series)
		if err != nil {
			t.Fatal(err)
		}
		min, max := vals[0], vals[0]
		for _, v := range vals {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		// Paper: "the effects of such truncation are negligible". Allow a
		// modest band — the shapes must not diverge wildly.
		if min <= 0 {
			t.Fatalf("%s: non-positive miss ratio", series)
		}
		if (max-min)/min > 0.35 {
			t.Errorf("%s: truncation spread too large: min=%.4f max=%.4f", series, min, max)
		}
	}
}

func TestFigure6SmallFiles(t *testing.T) {
	tabs, err := testConfig().Figure6()
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 2 || tabs[0].ID != "fig6a" || tabs[1].ID != "fig6b" {
		t.Fatalf("tables = %v", tabs)
	}
	for _, tab := range tabs {
		assertOptBeatsLandlord(t, tab)
		assertLargerCachesMiss(t, tab, "optfilebundle")
	}
	// Zipf (6b) miss ratios lower than uniform (6a) for the same policy.
	ua, _ := tabs[0].SeriesValues("optfilebundle")
	za, _ := tabs[1].SeriesValues("optfilebundle")
	if mean(za) >= mean(ua) {
		t.Errorf("zipf mean miss %.4f not below uniform %.4f", mean(za), mean(ua))
	}
}

func TestFigure7LargeFiles(t *testing.T) {
	tabs, err := testConfig().Figure7()
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range tabs {
		assertOptBeatsLandlord(t, tab)
	}
}

func TestFigure6GapLargerThanFigure7(t *testing.T) {
	// Paper: "the superiority of OptFileBundle over Landlord is even more
	// significant for smaller file sizes". Compare mean relative gaps.
	cfg := testConfig()
	small, err := cfg.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	large, err := cfg.Figure7()
	if err != nil {
		t.Fatal(err)
	}
	gap := func(tab *Table) float64 {
		opt, _ := tab.SeriesValues("optfilebundle")
		ll, _ := tab.SeriesValues("landlord")
		total := 0.0
		for i := range opt {
			if ll[i] > 0 {
				total += (ll[i] - opt[i]) / ll[i]
			}
		}
		return total / float64(len(opt))
	}
	gSmall := (gap(small[0]) + gap(small[1])) / 2
	gLarge := (gap(large[0]) + gap(large[1])) / 2
	t.Logf("mean relative gap: small files %.3f, large files %.3f", gSmall, gLarge)
	if gSmall <= gLarge*0.8 {
		t.Errorf("small-file gap %.3f not clearly above large-file gap %.3f", gSmall, gLarge)
	}
}

func TestFigure8DataMovedShrinksWithCache(t *testing.T) {
	tab, err := testConfig().Figure8()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tab.Series {
		vals, _ := tab.SeriesValues(s)
		if !monotoneNonIncreasing(vals, 0.15) {
			t.Errorf("%s: data moved per request not shrinking with cache size: %v", s, vals)
		}
	}
	// Opt below landlord at every point, both distributions.
	ou, _ := tab.SeriesValues("opt/uniform")
	lu, _ := tab.SeriesValues("landlord/uniform")
	oz, _ := tab.SeriesValues("opt/zipf")
	lz, _ := tab.SeriesValues("landlord/zipf")
	for i := range ou {
		if ou[i] >= lu[i] {
			t.Errorf("uniform row %d: opt %.2f >= landlord %.2f", i, ou[i], lu[i])
		}
		if oz[i] >= lz[i] {
			t.Errorf("zipf row %d: opt %.2f >= landlord %.2f", i, oz[i], lz[i])
		}
	}
}

func TestFigure9QueueEffects(t *testing.T) {
	tabs, err := testConfig().Figure9()
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 2 {
		t.Fatalf("tables = %d", len(tabs))
	}
	uni, _ := tabs[0].SeriesValues("optfilebundle")
	zipf, _ := tabs[1].SeriesValues("optfilebundle")
	// Paper: queueing helps Zipf clearly (q100 << q1); uniform effect minor.
	if zipf[len(zipf)-1] >= zipf[0] {
		t.Errorf("zipf q100 %.4f not below q1 %.4f", zipf[len(zipf)-1], zipf[0])
	}
	relDropUni := (uni[0] - uni[len(uni)-1]) / uni[0]
	relDropZipf := (zipf[0] - zipf[len(zipf)-1]) / zipf[0]
	t.Logf("queue-100 relative improvement: uniform %.3f, zipf %.3f", relDropUni, relDropZipf)
	if relDropZipf <= relDropUni {
		t.Errorf("queueing should help zipf (%.3f) more than uniform (%.3f)", relDropZipf, relDropUni)
	}
}

func TestBoundStudyNeverViolates(t *testing.T) {
	tab, err := testConfig().BoundStudy()
	if err != nil {
		t.Fatal(err) // BoundStudy errors on violation
	}
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
}

func TestBaselinesOptWins(t *testing.T) {
	tab, err := testConfig().Baselines()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's claims: OptFileBundle beats Landlord and the classic
	// popularity/recency policies it argues against. Frequency-aware GDSF
	// and LFU (not evaluated in the paper) can be competitive at some
	// operating points, so for those we only require opt to stay close.
	mustBeat := map[string]bool{"landlord": true, "lru": true, "fifo": true, "random": true, "mru": true}
	for _, series := range []string{"uniform", "zipf"} {
		vals, _ := tab.SeriesValues(series)
		bestOnline := vals[0]
		belady := -1.0
		for i := 1; i < len(vals); i++ {
			name := tab.Rows[i].Label
			if name == "belady-offline" {
				belady = vals[i]
				continue
			}
			if mustBeat[name] && vals[0] >= vals[i] {
				t.Errorf("%s: optfilebundle %.4f not below %s %.4f", series, vals[0], name, vals[i])
			}
			if vals[i] < bestOnline {
				bestOnline = vals[i]
			}
		}
		if vals[0] > bestOnline*1.15 {
			t.Errorf("%s: optfilebundle %.4f more than 15%% above best online policy %.4f", series, vals[0], bestOnline)
		}
		// The clairvoyant reference must floor every online policy.
		if belady < 0 {
			t.Fatalf("%s: belady-offline row missing", series)
		}
		if belady > bestOnline {
			t.Errorf("%s: belady %.4f above best online %.4f — hindsight lost", series, belady, bestOnline)
		}
	}
}

func TestRenderAndCSV(t *testing.T) {
	tab := Table1()
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"table1", "f5", "requests", "note:"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := tab.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 8 { // header + 7 files
		t.Errorf("csv lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "file,x,requests,") {
		t.Errorf("csv header = %q", lines[0])
	}
}

func TestTableAddRowArity(t *testing.T) {
	tab := &Table{ID: "x", Series: []string{"a", "b"}}
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	tab.AddRow("bad", 0, 1.0)
}

func TestSeriesValuesUnknown(t *testing.T) {
	tab := Table1()
	if _, err := tab.SeriesValues("nope"); err == nil {
		t.Error("unknown series accepted")
	}
}

// assertOptBeatsLandlord checks the paper's headline ordering on every row.
func assertOptBeatsLandlord(t *testing.T, tab *Table) {
	t.Helper()
	opt, err := tab.SeriesValues("optfilebundle")
	if err != nil {
		t.Fatal(err)
	}
	ll, err := tab.SeriesValues("landlord")
	if err != nil {
		t.Fatal(err)
	}
	for i := range opt {
		if opt[i] >= ll[i] {
			t.Errorf("%s row %s: optfilebundle %.4f not below landlord %.4f",
				tab.ID, tab.Rows[i].Label, opt[i], ll[i])
		}
	}
}

// assertLargerCachesMiss checks that the named series' miss ratio does not
// grow as the cache grows.
func assertLargerCachesMiss(t *testing.T, tab *Table, series string) {
	t.Helper()
	vals, err := tab.SeriesValues(series)
	if err != nil {
		t.Fatal(err)
	}
	if !monotoneNonIncreasing(vals, 0.10) {
		t.Errorf("%s/%s: miss ratio not shrinking with cache size: %v", tab.ID, series, vals)
	}
}

func mean(vals []float64) float64 {
	total := 0.0
	for _, v := range vals {
		total += v
	}
	return total / float64(len(vals))
}

// SeriesValues extracts one named series of t as a slice.
func (t *Table) SeriesValues(name string) ([]float64, error) {
	idx := -1
	for i, s := range t.Series {
		if s == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("experiment: table %s has no series %q", t.ID, name)
	}
	out := make([]float64, len(t.Rows))
	for i, r := range t.Rows {
		out[i] = r.Values[idx]
	}
	return out, nil
}
