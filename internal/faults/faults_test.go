package faults

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func mustInjector(t *testing.T, sc Scenario) *Injector {
	t.Helper()
	in, err := NewInjector(sc)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestZeroScenarioIsNoFaults(t *testing.T) {
	in := mustInjector(t, Scenario{})
	for _, at := range []float64{0, 1, 1e6} {
		if !in.Up(0, at) || !in.Up(42, at) {
			t.Errorf("zero scenario reports a site down at %v", at)
		}
		if got := in.NextUp(3, at); got != at {
			t.Errorf("NextUp(%v) = %v, want identity", at, got)
		}
		if got := in.Slowdown(0, at); got != 1 {
			t.Errorf("Slowdown(%v) = %v, want 1", at, got)
		}
	}
	for i := 0; i < 100; i++ {
		if in.TransferFails() {
			t.Fatal("zero-probability transfer failed")
		}
	}
	if got, want := in.rng.Float64(), rand.New(rand.NewSource(0)).Float64(); got != want {
		t.Error("zero-probability scenario consumed RNG draws")
	}
	if in.Retry().MaxAttempts != DefaultRetryPolicy().MaxAttempts {
		t.Errorf("zero retry policy not defaulted: %+v", in.Retry())
	}
	if in.Scenario().MaxJobAttempts != 1 {
		t.Errorf("MaxJobAttempts not defaulted: %d", in.Scenario().MaxJobAttempts)
	}
}

func TestWindowsAndNextUp(t *testing.T) {
	in := mustInjector(t, Scenario{Sites: map[int]SiteFaults{
		1: {
			Outages:  []Window{{Start: 10, End: 20}, {Start: 19, End: 25}},
			LinkDown: []Window{{Start: 24, End: 30}},
		},
	}})
	if !in.Up(1, 9.99) || in.Up(1, 10) || in.Up(1, 24.5) || !in.Up(1, 30) {
		t.Error("window membership wrong (intervals are half-open)")
	}
	if in.SiteUp(1, 15) {
		t.Error("SiteUp inside outage")
	}
	if !in.LinkUp(1, 15) {
		t.Error("LinkUp false outside link window")
	}
	// Chained windows: 10→20 is inside 19–25, 25 inside link-down 24–30.
	if got := in.NextUp(1, 12); got != 30 {
		t.Errorf("NextUp(12) = %v, want 30 (chained windows)", got)
	}
	// Other sites are unaffected.
	if !in.Up(0, 15) {
		t.Error("unconfigured site down")
	}
}

func TestSlowdownCompounds(t *testing.T) {
	in := mustInjector(t, Scenario{Sites: map[int]SiteFaults{
		0: {Brownouts: []Brownout{
			{Window: Window{Start: 0, End: 100}, Factor: 2},
			{Window: Window{Start: 50, End: 60}, Factor: 3},
		}},
	}})
	if got := in.Slowdown(0, 10); got != 2 {
		t.Errorf("Slowdown(10) = %v, want 2", got)
	}
	if got := in.Slowdown(0, 55); got != 6 {
		t.Errorf("Slowdown(55) = %v, want 6 (compounded)", got)
	}
	if got := in.Slowdown(0, 200); got != 1 {
		t.Errorf("Slowdown(200) = %v, want 1", got)
	}
}

func TestTransferFailsDeterministic(t *testing.T) {
	sc := Scenario{Seed: 7, TransferFailureProb: 0.3}
	a, b := mustInjector(t, sc), mustInjector(t, sc)
	failures := 0
	for i := 0; i < 500; i++ {
		fa, fb := a.TransferFails(), b.TransferFails()
		if fa != fb {
			t.Fatalf("draw %d diverges between same-seed injectors", i)
		}
		if fa {
			failures++
		}
	}
	if failures == 0 || failures == 500 {
		t.Errorf("probability 0.3 failed %d of 500 draws", failures)
	}
}

func TestBackoffCappedAndJittered(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseDelaySec: 1, MaxDelaySec: 8, Multiplier: 2, JitterFrac: 0}
	for i, want := range []float64{1, 2, 4, 8, 8, 8} {
		if got := p.Backoff(i, nil); got != want {
			t.Errorf("Backoff(%d) = %v, want %v", i, got, want)
		}
	}
	p.JitterFrac = 0.5
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		d := p.Backoff(0, rng)
		if d < 0.5 || d > 1.5 {
			t.Fatalf("jittered backoff %v outside [0.5, 1.5]", d)
		}
	}
	// Same seed, same jitter sequence.
	r1, r2 := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		if p.Backoff(i%4, r1) != p.Backoff(i%4, r2) {
			t.Fatal("jitter not reproducible from the seed")
		}
	}
}

func TestDowntimeSeconds(t *testing.T) {
	in := mustInjector(t, Scenario{Sites: map[int]SiteFaults{
		2: {
			Outages:  []Window{{Start: 10, End: 20}, {Start: 15, End: 25}}, // overlap: 10–25
			LinkDown: []Window{{Start: 40, End: 50}, {Start: 90, End: 200}},
		},
	}})
	if got := in.DowntimeSeconds(2, 100); math.Abs(got-35) > 1e-12 {
		t.Errorf("DowntimeSeconds = %v, want 35 (15 merged + 10 + 10 clipped)", got)
	}
	if got := in.DowntimeSeconds(2, 0); got != 0 {
		t.Errorf("zero horizon downtime = %v", got)
	}
	if got := in.DowntimeSeconds(0, 100); got != 0 {
		t.Errorf("unconfigured site downtime = %v", got)
	}
}

func TestValidation(t *testing.T) {
	bad := []Scenario{
		{TransferFailureProb: -0.1},
		{TransferFailureProb: 1},
		{StageBudgetSec: -1},
		{MaxJobAttempts: -2},
		{Retry: RetryPolicy{MaxAttempts: 0, BaseDelaySec: 1, Multiplier: 2}},
		{Retry: RetryPolicy{MaxAttempts: 2, BaseDelaySec: -1, Multiplier: 2}},
		{Retry: RetryPolicy{MaxAttempts: 2, Multiplier: 0.5}},
		{Retry: RetryPolicy{MaxAttempts: 2, Multiplier: 2, JitterFrac: 2}},
		{Sites: map[int]SiteFaults{0: {Outages: []Window{{Start: 5, End: 1}}}}},
		{Sites: map[int]SiteFaults{0: {LinkDown: []Window{{Start: 5, End: 1}}}}},
		{Sites: map[int]SiteFaults{0: {Brownouts: []Brownout{{Window: Window{Start: 0, End: 1}, Factor: 0.5}}}}},
	}
	for i, sc := range bad {
		if _, err := NewInjector(sc); err == nil {
			t.Errorf("scenario %d accepted: %+v", i, sc)
		}
	}
	if _, err := NewInjector(Scenario{TransferFailureProb: 0.5, StageBudgetSec: 100, MaxJobAttempts: 3}); err != nil {
		t.Errorf("valid scenario rejected: %v", err)
	}
	// With several invalid sites the error names the lowest, on every call.
	many := Scenario{Sites: map[int]SiteFaults{}}
	for site := 0; site < 8; site++ {
		many.Sites[site] = SiteFaults{Outages: []Window{{Start: 5, End: 1}}}
	}
	for i := 0; i < 20; i++ {
		if _, err := NewInjector(many); err == nil || !strings.Contains(err.Error(), "site 0 ") {
			t.Fatalf("several invalid sites: got %v, want the error for site 0", err)
		}
	}
}

func TestNextUpOverlappingAndAbuttingWindows(t *testing.T) {
	in, err := NewInjector(Scenario{Sites: map[int]SiteFaults{
		0: {
			// Overlapping outages [10,30) and [20,50); an abutting link-down
			// [50,60) extends the dark span without a gap.
			Outages:  []Window{{Start: 10, End: 30}, {Start: 20, End: 50}},
			LinkDown: []Window{{Start: 50, End: 60}},
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// nextClear must chase through the chain regardless of which window t
	// lands in first.
	for _, at := range []float64{10, 15, 25, 49, 50, 59} {
		if up := in.NextUp(0, at); up != 60 {
			t.Errorf("NextUp(%v) = %v, want 60 across the merged chain", at, up)
		}
	}
	if up := in.NextUp(0, 60); up != 60 {
		t.Errorf("NextUp at the boundary = %v, want 60 (half-open windows)", up)
	}
	if up := in.NextUp(0, 5); up != 5 {
		t.Errorf("NextUp before the chain = %v, want 5", up)
	}
	// SiteNextUp only consults MSS outages: link-down alone does not hold it.
	if up := in.SiteNextUp(0, 55); up != 55 {
		t.Errorf("SiteNextUp inside link-down = %v, want 55", up)
	}

	// The merged unusable view joins all three into one interval.
	want := []Window{{Start: 10, End: 60}}
	if got := in.UnusableWindows(0); !reflect.DeepEqual(got, want) {
		t.Errorf("UnusableWindows = %v, want %v", got, want)
	}
}

func TestNextUpNeverUpSentinel(t *testing.T) {
	// End = +Inf models a site that left the grid for good: NextUp must
	// return the +Inf sentinel, not a schedulable instant.
	in, err := NewInjector(Scenario{Sites: map[int]SiteFaults{
		3: {Outages: []Window{{Start: 100, End: math.Inf(1)}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if up := in.NextUp(3, 150); !math.IsInf(up, 1) {
		t.Errorf("NextUp inside a terminal outage = %v, want +Inf", up)
	}
	if up := in.NextUp(3, 50); up != 50 {
		t.Errorf("NextUp before the terminal outage = %v, want 50", up)
	}
	if !in.Up(3, 50) || in.Up(3, 1e12) {
		t.Error("Up disagrees with the terminal window")
	}
	// The infinite window flows through the merged schedule too.
	if ws := in.UnusableWindows(3); len(ws) != 1 || !math.IsInf(ws[0].End, 1) {
		t.Errorf("UnusableWindows = %v, want one terminal window", ws)
	}
}

func TestDowntimeClippedAtHorizon(t *testing.T) {
	in, err := NewInjector(Scenario{Sites: map[int]SiteFaults{
		0: {Outages: []Window{{Start: -10, End: 5}, {Start: 90, End: 200}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// [-10,5) clips to [0,5) = 5s; [90,200) clips to [90,100) = 10s.
	if d := in.DowntimeSeconds(0, 100); d != 15 {
		t.Errorf("clipped downtime = %v, want 15", d)
	}
	if d := in.DowntimeSeconds(0, 0); d != 0 {
		t.Errorf("zero-horizon downtime = %v", d)
	}
}

func TestDownWithin(t *testing.T) {
	in, err := NewInjector(Scenario{Sites: map[int]SiteFaults{
		1: {Outages: []Window{{Start: 100, End: 150}}},
		2: {LinkDown: []Window{{Start: 40, End: 60}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		site          int
		from, horizon float64
		want          bool
	}{
		{1, 0, 50, false},                                          // horizon ends at 50, outage starts at 100
		{1, 0, 150, true},                                          // lookahead reaches into the outage
		{1, 60, 41, true},                                          // [60,101) clips the outage's first second
		{1, 60, 40, false},                                         // [60,100) stops just short (half-open)
		{1, 120, 10, true},                                         // already inside the outage
		{1, 150, 1000, false} /* outage over */, {2, 30, 15, true}, // link-down counts as down
		{2, 45, 0, true},  // zero horizon degrades to !Up(from)
		{2, 65, 0, false}, // after the window, zero horizon, up
	}
	for _, c := range cases {
		if got := in.DownWithin(c.site, c.from, c.horizon); got != c.want {
			t.Errorf("DownWithin(site=%d, from=%v, horizon=%v) = %v, want %v",
				c.site, c.from, c.horizon, got, c.want)
		}
	}
}
