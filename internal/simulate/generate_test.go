package simulate

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"fbcache/internal/faults"
)

// Scenario generators for the fault soaks: deterministic, seeded schedules
// for three outage shapes beyond hand-written windows — correlated
// rack-group failures, site churn (join/leave cycles), and diurnal
// brownouts. Each generator owns a rand.Rand seeded from its config and
// draws nothing when its rate parameter is zero, so a zero-rate generator
// yields an empty schedule. Generated schedules always pass
// faults.Scenario.Validate.

// correlatedConfig drives genCorrelated.
type correlatedConfig struct {
	// Seed drives the window draws.
	Seed int64
	// Groups are the rack groups: sites in one group share every outage
	// window drawn for it (a rack switch or PDU failing takes them all down).
	Groups [][]int
	// OutagesPerGroup is how many outage windows each group suffers over the
	// horizon. 0 yields an empty schedule.
	OutagesPerGroup int
	// MeanOutageSec is the mean outage duration (exponential, min 1s).
	MeanOutageSec float64
	// HorizonSec bounds window start times.
	HorizonSec float64
}

// genCorrelated draws rack-group failure schedules: each group gets
// OutagesPerGroup windows whose starts are uniform over the horizon and
// whose durations are exponential with mean MeanOutageSec; every site in the
// group shares the group's windows. Windows are sorted by start per site.
func genCorrelated(cfg correlatedConfig) map[int]faults.SiteFaults {
	out := make(map[int]faults.SiteFaults)
	if cfg.OutagesPerGroup <= 0 || cfg.HorizonSec <= 0 || len(cfg.Groups) == 0 {
		return out
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, group := range cfg.Groups {
		windows := make([]faults.Window, 0, cfg.OutagesPerGroup)
		for i := 0; i < cfg.OutagesPerGroup; i++ {
			start := rng.Float64() * cfg.HorizonSec
			dur := rng.ExpFloat64() * cfg.MeanOutageSec
			if dur < 1 {
				dur = 1
			}
			windows = append(windows, faults.Window{Start: start, End: start + dur})
		}
		sortWindows(windows)
		for _, site := range group {
			sf := out[site]
			sf.Outages = append(sf.Outages, windows...)
			sortWindows(sf.Outages)
			out[site] = sf
		}
	}
	return out
}

// churnConfig drives genChurn.
type churnConfig struct {
	// Seed drives the cycle draws.
	Seed int64
	// Sites are the churning sites, each with its own independent cycle.
	Sites []int
	// MeanUpSec and MeanDownSec are the mean lengths of the alternating
	// up/down phases (exponential, min 1s). MeanDownSec <= 0 yields an empty
	// schedule — churn off.
	MeanUpSec, MeanDownSec float64
	// HorizonSec bounds the schedule.
	HorizonSec float64
}

// genChurn draws site join/leave cycles: each site alternates an
// exponentially-distributed up phase with a down phase (modelled as an MSS
// outage window), from time 0 to the horizon — transient grid membership.
// Sites are processed in the order given; each consumes its draws from the
// shared seeded stream.
func genChurn(cfg churnConfig) map[int]faults.SiteFaults {
	out := make(map[int]faults.SiteFaults)
	if cfg.MeanDownSec <= 0 || cfg.HorizonSec <= 0 || len(cfg.Sites) == 0 {
		return out
	}
	up := cfg.MeanUpSec
	if up <= 0 {
		up = cfg.MeanDownSec
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, site := range cfg.Sites {
		var windows []faults.Window
		t := rng.ExpFloat64() * up // first up phase
		for t < cfg.HorizonSec {
			down := rng.ExpFloat64() * cfg.MeanDownSec
			if down < 1 {
				down = 1
			}
			windows = append(windows, faults.Window{Start: t, End: t + down})
			t += down
			t += rng.ExpFloat64() * up
		}
		sf := out[site]
		sf.Outages = append(sf.Outages, windows...)
		out[site] = sf
	}
	return out
}

// diurnalConfig drives genDiurnal.
type diurnalConfig struct {
	// Seed drives the per-site phase offsets (sites in different time zones
	// peak at different times). 0 is a valid seed.
	Seed int64
	// Sites are the affected sites.
	Sites []int
	// PeriodSec is the cycle length (a simulated "day"). <= 0 yields an
	// empty schedule.
	PeriodSec float64
	// BusyFrac is the browned-out fraction of each period (0,1]; <= 0 yields
	// an empty schedule.
	BusyFrac float64
	// Factor is the transfer slowdown during the busy phase (>= 1).
	Factor float64
	// HorizonSec bounds the schedule.
	HorizonSec float64
	// PhaseJitter, when true, offsets each site's cycle by a seeded random
	// fraction of the period; otherwise all sites peak together.
	PhaseJitter bool
}

// genDiurnal lays down periodic bandwidth brownouts: every PeriodSec, each
// site's transfers slow by Factor for BusyFrac of the period — the daily
// load peak of a shared WAN. Deterministic given the config; the only
// randomness is the optional per-site phase offset.
func genDiurnal(cfg diurnalConfig) map[int]faults.SiteFaults {
	out := make(map[int]faults.SiteFaults)
	if cfg.PeriodSec <= 0 || cfg.BusyFrac <= 0 || cfg.HorizonSec <= 0 || len(cfg.Sites) == 0 {
		return out
	}
	factor := cfg.Factor
	if factor < 1 {
		factor = 1
	}
	busy := cfg.BusyFrac
	if busy > 1 {
		busy = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, site := range cfg.Sites {
		phase := 0.0
		if cfg.PhaseJitter {
			phase = rng.Float64() * cfg.PeriodSec
		}
		var brownouts []faults.Brownout
		for start := phase; start < cfg.HorizonSec; start += cfg.PeriodSec {
			brownouts = append(brownouts, faults.Brownout{
				Window: faults.Window{Start: start, End: start + busy*cfg.PeriodSec},
				Factor: factor,
			})
		}
		sf := out[site]
		sf.Brownouts = append(sf.Brownouts, brownouts...)
		out[site] = sf
	}
	return out
}

// mergeSites overlays src's schedules onto dst (appending windows site by
// site, keeping each list sorted by start) and returns dst, allocating it if
// nil. Compose generators with hand-written schedules:
//
//	sc.Sites = mergeSites(genChurn(churn), genCorrelated(racks))
func mergeSites(dst, src map[int]faults.SiteFaults) map[int]faults.SiteFaults {
	if dst == nil {
		dst = make(map[int]faults.SiteFaults)
	}
	sites := make([]int, 0, len(src))
	for site := range src {
		sites = append(sites, site)
	}
	sort.Ints(sites)
	for _, site := range sites {
		sf := src[site]
		have := dst[site]
		have.Outages = append(have.Outages, sf.Outages...)
		have.LinkDown = append(have.LinkDown, sf.LinkDown...)
		have.Brownouts = append(have.Brownouts, sf.Brownouts...)
		sortWindows(have.Outages)
		sortWindows(have.LinkDown)
		sortBrownouts(have.Brownouts)
		dst[site] = have
	}
	return dst
}

func sortBrownouts(bs []faults.Brownout) {
	sort.Slice(bs, func(i, j int) bool {
		if bs[i].Start != bs[j].Start { //fbvet:allow floateq — schedule endpoints are exact config values
			return bs[i].Start < bs[j].Start
		}
		return bs[i].End < bs[j].End
	})
}

func sortWindows(ws []faults.Window) {
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].Start != ws[j].Start { //fbvet:allow floateq — schedule endpoints are exact config values
			return ws[i].Start < ws[j].Start
		}
		return ws[i].End < ws[j].End
	})
}

// scenarioFrom wraps generated schedules into a faults.Scenario and asserts it
// validates — every generator's contract.
func scenarioFrom(t *testing.T, sites map[int]faults.SiteFaults) faults.Scenario {
	t.Helper()
	sc := faults.Scenario{Sites: sites}
	if err := sc.Validate(); err != nil {
		t.Fatalf("generated scenario fails Validate: %v", err)
	}
	return sc
}

func TestGenCorrelatedDeterministicAndShared(t *testing.T) {
	cfg := correlatedConfig{
		Seed:            7,
		Groups:          [][]int{{1, 2}, {3}},
		OutagesPerGroup: 3,
		MeanOutageSec:   50,
		HorizonSec:      1000,
	}
	a := genCorrelated(cfg)
	b := genCorrelated(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedules")
	}
	scenarioFrom(t, a)
	// Sites in one rack group share every window — that is what "correlated"
	// means here.
	if !reflect.DeepEqual(a[1].Outages, a[2].Outages) {
		t.Errorf("group members differ: %v vs %v", a[1].Outages, a[2].Outages)
	}
	if len(a[3].Outages) != 3 {
		t.Errorf("site 3 outages = %d, want 3", len(a[3].Outages))
	}
	// Groups draw independently: site 3's windows differ from the group's.
	if reflect.DeepEqual(a[1].Outages, a[3].Outages) {
		t.Error("independent groups drew identical windows")
	}
	for site, sf := range map[int]faults.SiteFaults{1: a[1], 3: a[3]} {
		for i, w := range sf.Outages {
			if w.End-w.Start < 1 {
				t.Errorf("site %d window %d shorter than the 1s floor: %+v", site, i, w)
			}
			if i > 0 && sf.Outages[i-1].Start > w.Start {
				t.Errorf("site %d windows unsorted", site)
			}
		}
	}

	// Different seed, different schedule.
	cfg.Seed = 8
	if reflect.DeepEqual(a, genCorrelated(cfg)) {
		t.Error("different seeds drew identical schedules")
	}
}

func TestGenCorrelatedZeroRateEmpty(t *testing.T) {
	for name, cfg := range map[string]correlatedConfig{
		"no outages": {Seed: 1, Groups: [][]int{{0}}, HorizonSec: 100},
		"no horizon": {Seed: 1, Groups: [][]int{{0}}, OutagesPerGroup: 2},
		"no groups":  {Seed: 1, OutagesPerGroup: 2, HorizonSec: 100},
	} {
		if got := genCorrelated(cfg); len(got) != 0 {
			t.Errorf("%s: schedule = %v, want empty", name, got)
		}
	}
}

func TestGenChurnCyclesWithinHorizon(t *testing.T) {
	cfg := churnConfig{
		Seed: 11, Sites: []int{0, 2},
		MeanUpSec: 100, MeanDownSec: 30, HorizonSec: 2000,
	}
	a := genChurn(cfg)
	if !reflect.DeepEqual(a, genChurn(cfg)) {
		t.Fatal("same seed, different schedules")
	}
	scenarioFrom(t, a)
	for _, site := range cfg.Sites {
		ws := a[site].Outages
		if len(ws) == 0 {
			t.Fatalf("site %d never churned over a 20-cycle horizon", site)
		}
		for i, w := range ws {
			if w.Start >= cfg.HorizonSec {
				t.Errorf("site %d window starts past horizon: %+v", site, w)
			}
			if w.End-w.Start < 1 {
				t.Errorf("site %d down phase under the 1s floor: %+v", site, w)
			}
			// Cycles alternate: windows are disjoint and strictly ordered.
			if i > 0 && ws[i-1].End > w.Start {
				t.Errorf("site %d down phases overlap: %+v then %+v", site, ws[i-1], w)
			}
		}
	}
	// Churn off -> empty schedule (bit-identity hook).
	cfg.MeanDownSec = 0
	if got := genChurn(cfg); len(got) != 0 {
		t.Errorf("zero-rate churn = %v, want empty", got)
	}
}

func TestGenDiurnalPeriodicBrownouts(t *testing.T) {
	cfg := diurnalConfig{
		Sites: []int{0}, PeriodSec: 100, BusyFrac: 0.25, Factor: 3, HorizonSec: 350,
	}
	a := genDiurnal(cfg)
	scenarioFrom(t, a)
	bs := a[0].Brownouts
	want := []faults.Brownout{
		{Window: faults.Window{Start: 0, End: 25}, Factor: 3},
		{Window: faults.Window{Start: 100, End: 125}, Factor: 3},
		{Window: faults.Window{Start: 200, End: 225}, Factor: 3},
		{Window: faults.Window{Start: 300, End: 325}, Factor: 3},
	}
	if !reflect.DeepEqual(bs, want) {
		t.Errorf("brownouts = %+v, want %+v", bs, want)
	}

	// Phase jitter shifts cycles but keeps the schedule valid and seeded.
	cfg.Seed, cfg.PhaseJitter = 5, true
	j := genDiurnal(cfg)
	if !reflect.DeepEqual(j, genDiurnal(cfg)) {
		t.Fatal("same seed, different jittered schedules")
	}
	scenarioFrom(t, j)
	if j[0].Brownouts[0].Start <= 0 {
		t.Errorf("jittered phase = %v, want > 0 for this seed", j[0].Brownouts[0].Start)
	}

	// A factor under 1 is clamped up, never invalid.
	cfg.Factor = 0.5
	scenarioFrom(t, genDiurnal(cfg))

	// Period off -> empty.
	cfg.PeriodSec = 0
	if got := genDiurnal(cfg); len(got) != 0 {
		t.Errorf("zero-period diurnal = %v, want empty", got)
	}
}

func TestMergeSitesComposes(t *testing.T) {
	churn := map[int]faults.SiteFaults{
		1: {Outages: []faults.Window{{Start: 50, End: 60}}},
	}
	racks := map[int]faults.SiteFaults{
		1: {Outages: []faults.Window{{Start: 10, End: 20}}, LinkDown: []faults.Window{{Start: 5, End: 7}}},
		2: {Brownouts: []faults.Brownout{{Window: faults.Window{Start: 0, End: 9}, Factor: 2}}},
	}
	got := mergeSites(churn, racks)
	if len(got) != 2 {
		t.Fatalf("merged sites = %d, want 2", len(got))
	}
	// Site 1's outages from both inputs, sorted by start.
	wantOut := []faults.Window{{Start: 10, End: 20}, {Start: 50, End: 60}}
	if !reflect.DeepEqual(got[1].Outages, wantOut) {
		t.Errorf("site 1 outages = %v, want %v", got[1].Outages, wantOut)
	}
	if len(got[1].LinkDown) != 1 || len(got[2].Brownouts) != 1 {
		t.Errorf("merged = %+v", got)
	}
	// Nil dst allocates.
	if m := mergeSites(nil, racks); len(m) != 2 {
		t.Errorf("nil-dst merge = %+v", m)
	}
	scenarioFrom(t, got)
}
