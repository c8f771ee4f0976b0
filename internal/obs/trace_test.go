package obs_test

import (
	"strings"
	"sync"
	"testing"

	"fbcache/internal/obs"
	"fbcache/internal/obs/traceio"
)

// emitOneOfEach drives every Tracer method once with fixed payloads, and
// the Stage method once per phase.
func emitOneOfEach(t obs.Tracer) {
	t.Admit(obs.AdmitEvent{At: 1, Policy: "opt", Files: 2, BytesRequested: 30, BytesLoaded: 10, FilesLoaded: 1, Hit: false})
	t.Load(obs.LoadEvent{At: 1, File: 1, Bytes: 10})
	t.Evict(obs.EvictEvent{At: 1, File: 0, Bytes: 5})
	t.SelectRound(obs.SelectRoundEvent{At: 1, Candidates: 4, Chosen: 2, Files: 3, Value: 1.5, Budget: 100, BudgetUsed: 60})
	t.CreditDecay(obs.CreditDecayEvent{At: 2, Min: 0.25, Files: 3})
	t.Stage(obs.StageEvent{At: 3, Phase: obs.StageStart, Job: 0, Site: "site-a", Files: 2, Bytes: 30})
	t.Stage(obs.StageEvent{At: 4, Phase: obs.StageRetry, Job: 0, Site: "site-a"})
	t.Stage(obs.StageEvent{At: 5, Phase: obs.StageFailover, Job: 0, Site: "site-b"})
	t.Stage(obs.StageEvent{At: 6, Phase: obs.StageDone, Job: 0, Site: "site-b", OK: true})
	t.JobServed(obs.JobServedEvent{At: 6, Job: 0, Hit: false, BytesRequested: 30, BytesLoaded: 10})
	t.ReplicaPlan(obs.ReplicaPlanEvent{At: 7, Epoch: 1, Actions: 2, Emergency: 1, Bytes: 40})
	t.Span(obs.SpanEvent{At: 8, Req: 1, Span: 2, Op: "stage", DurSec: 0.5, Err: "busy"})
}

// oneOfEachLines is how many trace lines emitOneOfEach writes.
const oneOfEachLines = 12

func TestJSONLSinkDeterministic(t *testing.T) {
	var a, b strings.Builder
	sa, sb := obs.NewJSONLSink(&a), obs.NewJSONLSink(&b)
	emitOneOfEach(sa)
	emitOneOfEach(sb)
	if sa.Err() != nil || sb.Err() != nil {
		t.Fatalf("sink errors: %v, %v", sa.Err(), sb.Err())
	}
	if a.String() != b.String() {
		t.Fatal("identical event sequences produced different JSONL")
	}
	lines := strings.Split(strings.TrimSpace(a.String()), "\n")
	if len(lines) != oneOfEachLines {
		t.Fatalf("got %d lines, want %d", len(lines), oneOfEachLines)
	}
	for i, want := range []string{
		`"kind":"admit"`, `"kind":"load"`, `"kind":"evict"`, `"kind":"select_round"`,
		`"kind":"credit_decay"`, `"kind":"stage"`, `"kind":"stage"`, `"kind":"stage"`,
		`"kind":"stage"`, `"kind":"job_served"`, `"kind":"replica_plan"`, `"kind":"span"`,
	} {
		if !strings.HasPrefix(lines[i], `{`+want) {
			t.Errorf("line %d = %q, want prefix {%s", i, lines[i], want)
		}
	}
	// StagePhase marshals as its name, not a number.
	if !strings.Contains(lines[7], `"phase":"failover"`) {
		t.Errorf("stage line lacks named phase: %q", lines[7])
	}
}

// TestSinksConcurrent drives one JSONLSink from four goroutines: the mutex
// must keep every record whole, so the interleaved output is still a trace
// that decodes strictly, with nothing lost.
func TestSinksConcurrent(t *testing.T) {
	const workers, rounds = 4, 100
	var sb strings.Builder
	sink := obs.NewJSONLSink(&sb)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				emitOneOfEach(sink)
			}
		}()
	}
	wg.Wait()
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	events, _, err := traceio.ReadAll(strings.NewReader(sb.String()), traceio.Strict)
	if err != nil {
		t.Fatalf("concurrent output does not decode strictly: %v", err)
	}
	if want := workers * rounds * oneOfEachLines; len(events) != want {
		t.Fatalf("decoded %d events, want %d", len(events), want)
	}
	admits := 0
	for _, e := range events {
		if e.Kind == obs.KindAdmit {
			admits++
		}
	}
	if admits != workers*rounds {
		t.Fatalf("admits = %d, want %d", admits, workers*rounds)
	}
}

func TestStagePhaseString(t *testing.T) {
	for phase, want := range map[obs.StagePhase]string{
		obs.StageStart: "start", obs.StageRetry: "retry", obs.StageFailover: "failover",
		obs.StageDone: "done", obs.StagePhase(99): "unknown",
	} {
		if phase.String() != want {
			t.Errorf("StagePhase(%d).String() = %q, want %q", phase, phase.String(), want)
		}
	}
}
