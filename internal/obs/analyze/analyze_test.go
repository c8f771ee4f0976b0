package analyze

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"fbcache/internal/bundle"
	"fbcache/internal/core"
	"fbcache/internal/faults"
	"fbcache/internal/grid"
	"fbcache/internal/mss"
	"fbcache/internal/obs"
	"fbcache/internal/obs/traceio"
	"fbcache/internal/policy"
	"fbcache/internal/policy/landlord"
	"fbcache/internal/simulate"
	"fbcache/internal/workload"
)

const goldenPath = "../../simulate/testdata/golden_trace.jsonl"

func testMSS() mss.Config {
	return mss.Config{Name: "test", LatencySec: 0.1, BandwidthBps: 200e6, Channels: 4}
}

func goldenEvents(t *testing.T) []traceio.Event {
	t.Helper()
	events, skipped, err := traceio.ReadFile(goldenPath, traceio.Strict)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || len(events) == 0 {
		t.Fatalf("golden trace: %d events, %d skipped", len(events), skipped)
	}
	return events
}

// generate produces a real trace by running a seeded workload through a
// policy, with the tracer installed at both the policy and simulator level
// — the same wiring cachesim -trace-out uses.
func generate(t testing.TB, policyName string, seed int64, timed bool) []traceio.Event {
	t.Helper()
	w, err := workload.Generate(workload.Spec{
		Seed: seed, CacheSize: 200 * bundle.MB, NumFiles: 60, MinFileSize: bundle.MB,
		MaxFilePct: 0.2, NumRequests: 40, MaxBundleFiles: 4, MaxBundleFrac: 0.5,
		Popularity: workload.Zipf, ZipfS: 1, Jobs: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	var p policy.Policy
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	switch policyName {
	case "optfilebundle":
		opt := core.New(w.Spec.CacheSize, w.Catalog.SizeFunc(), core.Options{})
		opt.SetTracer(sink)
		p = opt
	case "landlord":
		ll := landlord.New(w.Spec.CacheSize, w.Catalog.SizeFunc())
		ll.SetTracer(sink)
		p = ll
	default:
		t.Fatalf("unknown policy %q", policyName)
	}
	if timed {
		_, err = simulate.RunEvents(w, p, simulate.EventOptions{
			ArrivalRate: 5, MSS: testMSS(), Seed: seed, Slots: 3, Tracer: sink,
		})
	} else {
		_, err = simulate.Run(w, p, simulate.Options{Tracer: sink})
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	events, _, err := traceio.ReadAll(bytes.NewReader(buf.Bytes()), traceio.Strict)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

func TestReplayGoldenIsClean(t *testing.T) {
	res := Replay(goldenEvents(t), 7)
	for _, v := range res.Violations {
		t.Errorf("golden trace: %s", v)
	}
	if res.MaxUsedBytes != 7 {
		t.Errorf("MaxUsedBytes = %d, want 7 (the trace fills the cache exactly)", res.MaxUsedBytes)
	}
	if res.Admits != 3 || res.DistinctFiles != 3 {
		t.Errorf("admits/files = %d/%d, want 3/3", res.Admits, res.DistinctFiles)
	}
}

// TestReplayGeneratedTracesClean validates real seeded runs — both
// simulators, both traced policies — against the offline invariants.
func TestReplayGeneratedTracesClean(t *testing.T) {
	for _, pol := range []string{"optfilebundle", "landlord"} {
		for _, timed := range []bool{false, true} {
			events := generate(t, pol, 7, timed)
			res := Replay(events, int64(200*bundle.MB))
			for i, v := range res.Violations {
				if i >= 5 {
					t.Fatalf("%s timed=%v: ... and %d more", pol, timed, len(res.Violations)-5)
				}
				t.Errorf("%s timed=%v: %s", pol, timed, v)
			}
		}
	}
}

func TestReplayCatchesCorruption(t *testing.T) {
	base := goldenEvents(t)
	cases := []struct {
		name   string
		mutate func([]traceio.Event) []traceio.Event
		want   string
	}{
		{
			"double load",
			func(ev []traceio.Event) []traceio.Event {
				// Golden event 0 is the load of file 0; replay it again
				// before the admit at index 2.
				out := append([]traceio.Event{ev[0]}, ev...)
				return out
			},
			"already-resident",
		},
		{
			"phantom evict",
			func(ev []traceio.Event) []traceio.Event {
				return append([]traceio.Event{{Kind: obs.KindEvict,
					Ev: obs.EvictEvent{At: 1, File: 99, Bytes: 1}}}, ev...)
			},
			"non-resident",
		},
		{
			"capacity exceeded",
			nil, // handled below via a smaller capacity
			"exceeds capacity",
		},
		{
			"admit bookkeeping mismatch",
			func(ev []traceio.Event) []traceio.Event {
				out := append([]traceio.Event(nil), ev...)
				a := out[2].Ev.(obs.AdmitEvent) // first admit: 2 files, 7 bytes
				a.FilesLoaded++
				out[2] = traceio.Event{Kind: obs.KindAdmit, Ev: a}
				return out
			},
			"claims",
		},
		{
			"truncated mid-admission",
			func(ev []traceio.Event) []traceio.Event {
				// Keep everything up to the last load but drop the final
				// admit + job_served.
				return ev[:len(ev)-2]
			},
			"mid-admission",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			events, capacity := base, int64(7)
			if tc.mutate != nil {
				events = tc.mutate(base)
			} else {
				capacity = 6 // golden run peaks at 7 resident bytes
			}
			res := Replay(events, capacity)
			if res.OK() {
				t.Fatal("corrupted trace replayed clean")
			}
			found := false
			for _, v := range res.Violations {
				if contains(v.Msg, tc.want) {
					found = true
				}
			}
			if !found {
				t.Errorf("no violation mentions %q; got %v", tc.want, res.Violations)
			}
		})
	}
}

func contains(s, sub string) bool { return bytes.Contains([]byte(s), []byte(sub)) }

func TestSummarizeGolden(t *testing.T) {
	s := Summarize(goldenEvents(t), SummaryOptions{Window: 2})
	if s.Stats.Admits != 3 || s.Stats.Loads != 4 || s.Stats.Evicts != 2 {
		t.Errorf("stats = %+v, want 3 admits, 4 loads, 2 evicts", s.Stats)
	}
	if len(s.Policies) != 1 || s.Policies[0].Policy != "optfilebundle" {
		t.Fatalf("policies = %+v", s.Policies)
	}
	p := s.Policies[0]
	if p.BytesRequested != 19 || p.BytesLoaded != 13 {
		t.Errorf("policy bytes = %d/%d, want 19/13", p.BytesRequested, p.BytesLoaded)
	}
	if math.Abs(p.ByteMissRatio()-13.0/19.0) > 1e-12 {
		t.Errorf("byte miss ratio = %g", p.ByteMissRatio())
	}
	// f0 is loaded at job 0, evicted at job 1 (residency 1), reloaded at
	// job 2; f2 loaded at job 1, evicted at job 2 (residency 1).
	if s.Residency.Count != 2 {
		t.Errorf("residency observations = %d, want 2", s.Residency.Count)
	}
	if s.Reloads != 1 {
		t.Errorf("reloads = %d, want 1 (f0 comes back)", s.Reloads)
	}
	// Windows: 3 jobs at window 2 -> points at jobs 2 and 3, all misses.
	if len(s.Windows) != 2 || s.Windows[0].Jobs != 2 || s.Windows[1].Jobs != 3 {
		t.Fatalf("windows = %+v", s.Windows)
	}
	if s.Windows[0].HitRatio != 0 {
		t.Errorf("window hit ratio = %g, want 0 (all cold misses)", s.Windows[0].HitRatio)
	}
}

func TestSummarizeWindowedHitRatio(t *testing.T) {
	// Hand-built: 4 jobs, hits at jobs 2 and 4, window 2.
	var events []traceio.Event
	for i := 0; i < 4; i++ {
		events = append(events, traceio.Event{Kind: obs.KindJobServed,
			Ev: obs.JobServedEvent{At: float64(i + 1), Job: i, Hit: i%2 == 1,
				BytesRequested: 100, BytesLoaded: int64(50 * (1 - i%2))}})
	}
	s := Summarize(events, SummaryOptions{Window: 2})
	if len(s.Windows) != 2 {
		t.Fatalf("windows = %+v", s.Windows)
	}
	for i, w := range s.Windows {
		if math.Abs(w.HitRatio-0.5) > 1e-12 {
			t.Errorf("window %d hit ratio = %g, want 0.5", i, w.HitRatio)
		}
		if math.Abs(w.ByteHitRatio-0.75) > 1e-12 {
			t.Errorf("window %d byte hit ratio = %g, want 0.75", i, w.ByteHitRatio)
		}
	}
}

func TestCriticalPathsTimed(t *testing.T) {
	events := generate(t, "optfilebundle", 11, true)
	cp := CriticalPaths(events, 5)
	if !cp.Timed {
		t.Fatal("timed trace classified as untimed")
	}
	if cp.Jobs == 0 || len(cp.Top) == 0 || len(cp.Top) > 5 {
		t.Fatalf("jobs=%d top=%d", cp.Jobs, len(cp.Top))
	}
	for i := 1; i < len(cp.Top); i++ {
		if cp.Top[i].Response > cp.Top[i-1].Response {
			t.Fatal("top jobs not sorted slowest-first")
		}
	}
	if cp.Top[0].Response < cp.MeanResponse {
		t.Error("slowest job responds faster than the mean")
	}
	// The legs must partition each job's response time.
	for _, p := range cp.Top {
		if sum := p.QueueWait + p.Transfer + p.Process; math.Abs(sum-p.Response) > 1e-6 {
			t.Errorf("job %d: legs sum to %g, response %g", p.Job, sum, p.Response)
		}
	}
	// With cache-level events installed, slow jobs name their misses.
	blocking := 0
	for _, p := range cp.Top {
		blocking += len(p.BlockingFiles)
	}
	if blocking == 0 {
		t.Error("no top job lists blocking files despite cache-level tracing")
	}
}

func TestCriticalPathsUntimed(t *testing.T) {
	cp := CriticalPaths(goldenEvents(t), 3)
	if cp.Timed {
		t.Error("ordinal-clock trace classified as timed")
	}
	if cp.Jobs != 3 {
		t.Errorf("jobs = %d, want 3", cp.Jobs)
	}
}

func TestDiffIdenticalAndDiverging(t *testing.T) {
	a := generate(t, "optfilebundle", 5, false)
	b := generate(t, "optfilebundle", 5, false)
	d := Diff(a, b)
	if !d.Identical() {
		t.Fatalf("same-seed same-policy traces diverge at %d:\nA: %s\nB: %s",
			d.FirstDiverge, d.DivergeA, d.DivergeB)
	}
	if len(d.StatDeltas) != 0 {
		t.Errorf("identical traces have stat deltas: %+v", d.StatDeltas)
	}

	c := generate(t, "landlord", 5, false)
	d = Diff(a, c)
	if d.Identical() {
		t.Fatal("opt vs landlord traces identical")
	}
	if d.FirstDiverge < 0 || d.DivergeA == "" || d.DivergeB == "" {
		t.Errorf("divergence not captured: %+v", d)
	}
	if len(d.Kinds) == 0 {
		t.Error("no kind counts")
	}
}

func TestDiffPrefixTruncation(t *testing.T) {
	a := goldenEvents(t)
	d := Diff(a, a[:len(a)-1])
	if d.Identical() {
		t.Fatal("truncated trace counted identical")
	}
	if d.FirstDiverge != len(a)-1 || d.DivergeA == "" || d.DivergeB != "" {
		t.Errorf("divergence = %d (%q / %q), want %d with only side A rendered",
			d.FirstDiverge, d.DivergeA, d.DivergeB, len(a)-1)
	}
	if len(d.StatDeltas) == 0 {
		t.Error("dropping a job_served event changes no stat")
	}
}

// TestStatsCountsEveryKind pins each TraceStats counter against a
// one-of-each event list: admit flags, every stage phase, span errors and
// the byte totals.
func TestStatsCountsEveryKind(t *testing.T) {
	events := []traceio.Event{
		{Kind: obs.KindAdmit, Ev: obs.AdmitEvent{Files: 2, BytesRequested: 30, BytesLoaded: 10, FilesLoaded: 1}},
		{Kind: obs.KindAdmit, Ev: obs.AdmitEvent{Hit: true}},
		{Kind: obs.KindAdmit, Ev: obs.AdmitEvent{Unserviceable: true}},
		{Kind: obs.KindLoad, Ev: obs.LoadEvent{File: 1, Bytes: 10}},
		{Kind: obs.KindEvict, Ev: obs.EvictEvent{File: 0, Bytes: 5}},
		{Kind: obs.KindSelectRound, Ev: obs.SelectRoundEvent{Candidates: 4, Chosen: 2}},
		{Kind: obs.KindCreditDecay, Ev: obs.CreditDecayEvent{Min: 0.25, Files: 3}},
		{Kind: obs.KindStage, Ev: obs.StageEvent{Phase: obs.StageStart}},
		{Kind: obs.KindStage, Ev: obs.StageEvent{Phase: obs.StageRetry}},
		{Kind: obs.KindStage, Ev: obs.StageEvent{Phase: obs.StageFailover}},
		{Kind: obs.KindStage, Ev: obs.StageEvent{Phase: obs.StageDone, OK: true}},
		{Kind: obs.KindJobServed, Ev: obs.JobServedEvent{BytesRequested: 30, BytesLoaded: 10}},
		{Kind: obs.KindJobServed, Ev: obs.JobServedEvent{Hit: true}},
		{Kind: obs.KindReplicaPlan, Ev: obs.ReplicaPlanEvent{Epoch: 1, Actions: 2, Bytes: 40}},
		{Kind: obs.KindSpan, Ev: obs.SpanEvent{Op: "stage", Err: "busy"}},
		{Kind: obs.KindSpan, Ev: obs.SpanEvent{Op: "release"}},
	}
	want := TraceStats{
		Admits: 3, Hits: 1, Unserviced: 1,
		Loads: 1, Evicts: 1, SelectRounds: 1, CreditDecays: 1,
		StageStarts: 1, StageRetries: 1, Failovers: 1, StageDones: 1,
		JobsServed: 2, ReplicaPlans: 1, BytesLoaded: 10, BytesEvicted: 5,
		BytesReplicated: 40, Spans: 2, SpanErrors: 1,
	}
	if got := Stats(events); got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
}

// TestStatsMatchesRunEvents pins Stats over a run's decoded JSONL trace
// against the EventStats the same RunEvents call returns. The run is a
// two-site grid with seeded transfer failures and an outage of the local
// site, so retries and failovers are exercised, not just zero on both
// sides.
func TestStatsMatchesRunEvents(t *testing.T) {
	w, err := workload.Generate(workload.Spec{
		Seed: 3, CacheSize: 200 * bundle.MB, NumFiles: 60, MinFileSize: bundle.MB,
		MaxFilePct: 0.2, NumRequests: 40, MaxBundleFiles: 4, MaxBundleFrac: 0.5,
		Popularity: workload.Zipf, ZipfS: 1, Jobs: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	topo, err := grid.NewTopology("local", testMSS())
	if err != nil {
		t.Fatal(err)
	}
	remote, err := topo.AddSite("remote", mss.Config{Name: "remote", LatencySec: 2, BandwidthBps: 60e6, Channels: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.Connect(topo.Local(), remote, grid.Link{LatencySec: 0.5, BandwidthBps: 30e6}); err != nil {
		t.Fatal(err)
	}
	reps := grid.NewReplicas()
	for _, f := range w.Catalog.Files() {
		reps.Add(f.ID, remote)
		reps.Add(f.ID, topo.Local())
	}
	sc := faults.Scenario{
		Seed:                9,
		TransferFailureProb: 0.2,
		Sites:               map[int]faults.SiteFaults{0: {Outages: []faults.Window{{Start: 10, End: 40}}}},
		MaxJobAttempts:      3,
	}

	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	ll := landlord.New(w.Spec.CacheSize, w.Catalog.SizeFunc())
	ll.SetTracer(sink)
	st, err := simulate.RunEvents(w, ll, simulate.EventOptions{
		ArrivalRate: 5, Grid: &simulate.GridConfig{Topology: topo, Replicas: reps},
		Seed: 3, Slots: 3, Faults: &sc, Tracer: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	events, _, err := traceio.ReadAll(&buf, traceio.Strict)
	if err != nil {
		t.Fatal(err)
	}
	got := Stats(events)
	if st.Resilience.Retries == 0 || st.Resilience.Failovers == 0 {
		t.Fatalf("run exercised no faults: %+v", st.Resilience)
	}
	for _, c := range []struct {
		name       string
		trace, run int64
	}{
		{"jobs", got.JobsServed, st.Jobs},
		{"bytes loaded", got.BytesLoaded, int64(st.BytesLoaded)},
		{"retries", got.StageRetries, st.Resilience.Retries},
		{"failovers", got.Failovers, st.Resilience.Failovers},
	} {
		if c.trace != c.run {
			t.Errorf("%s: trace says %d, RunEvents says %d", c.name, c.trace, c.run)
		}
	}
}

// TestDiffAndSummarizeSortTheirListings feeds Diff twenty event kinds and
// Summarize twenty policies, inserted in descending order, and requires
// both listings ascending. With that many keys an unsorted listing would
// come out in map order, which the repetitions make certain to show.
func TestDiffAndSummarizeSortTheirListings(t *testing.T) {
	var events []traceio.Event
	for i := 19; i >= 0; i-- {
		events = append(events,
			traceio.Event{Kind: fmt.Sprintf("kind-%02d", i), Ev: obs.LoadEvent{File: int64(i)}},
			traceio.Event{Kind: obs.KindAdmit, Ev: obs.AdmitEvent{Policy: fmt.Sprintf("policy-%02d", i)}})
	}
	for range 10 {
		d := Diff(events, events)
		if len(d.Kinds) != 21 {
			t.Fatalf("Diff lists %d kinds, want 21", len(d.Kinds))
		}
		for i := 1; i < len(d.Kinds); i++ {
			if d.Kinds[i-1].Kind >= d.Kinds[i].Kind {
				t.Fatalf("Diff kinds out of order: %q before %q", d.Kinds[i-1].Kind, d.Kinds[i].Kind)
			}
		}
		s := Summarize(events, SummaryOptions{})
		if len(s.Policies) != 20 {
			t.Fatalf("Summarize lists %d policies, want 20", len(s.Policies))
		}
		for i := 1; i < len(s.Policies); i++ {
			if s.Policies[i-1].Policy >= s.Policies[i].Policy {
				t.Fatalf("Summarize policies out of order: %q before %q",
					s.Policies[i-1].Policy, s.Policies[i].Policy)
			}
		}
	}
}
