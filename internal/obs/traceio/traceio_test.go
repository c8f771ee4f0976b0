package traceio

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fbcache/internal/obs"
)

// goldenPath is the checked-in 3-job trace produced by the simulate golden
// test — the shared fixture for the whole offline-analytics stack.
const goldenPath = "../../simulate/testdata/golden_trace.jsonl"

// allKindsEvents returns one fully-populated event of every kind, plus
// zero-heavy variants that exercise the omitempty fields.
func allKindsEvents() []Event {
	return []Event{
		{Kind: obs.KindAdmit, Ev: obs.AdmitEvent{At: 1, Policy: "optfilebundle", Files: 3, BytesRequested: 700,
			BytesLoaded: 300, FilesLoaded: 2, FilesEvicted: 1, Hit: false, Unserviceable: true}},
		{Kind: obs.KindAdmit, Ev: obs.AdmitEvent{At: 2, Policy: "landlord", Files: 1, Hit: true}},
		{Kind: obs.KindLoad, Ev: obs.LoadEvent{At: 3, File: 42, Bytes: 1024}},
		{Kind: obs.KindEvict, Ev: obs.EvictEvent{At: 4, File: 42, Bytes: 1024}},
		{Kind: obs.KindSelectRound, Ev: obs.SelectRoundEvent{At: 5, Candidates: 9, Chosen: 4, Files: 12,
			Value: 3.25, Budget: 4096, BudgetUsed: 4000, SingleWinner: true}},
		{Kind: obs.KindCreditDecay, Ev: obs.CreditDecayEvent{At: 6, Min: 0.125, Files: 7}},
		{Kind: obs.KindStage, Ev: obs.StageEvent{At: 7.5, Phase: obs.StageStart, Job: 3, Site: "site-1",
			Files: 2, Bytes: 2048}},
		{Kind: obs.KindStage, Ev: obs.StageEvent{At: 8.25, Phase: obs.StageRetry, Job: 3, Site: "site-1"}},
		{Kind: obs.KindStage, Ev: obs.StageEvent{At: 9, Phase: obs.StageFailover, Job: 3, Site: "site-2"}},
		{Kind: obs.KindStage, Ev: obs.StageEvent{At: 10.125, Phase: obs.StageDone, Job: 3, Files: 2, OK: true}},
		{Kind: obs.KindJobServed, Ev: obs.JobServedEvent{At: 11, Job: 3, Hit: false, ResponseSec: 3.5,
			StagingSec: 2.625, QueuedAt: 7.5, FirstStageAt: 7.75, BytesRequested: 2048, BytesLoaded: 2048}},
		{Kind: obs.KindJobServed, Ev: obs.JobServedEvent{At: 12, Job: 4, Hit: true, BytesRequested: 10}},
		{Kind: obs.KindReplicaPlan, Ev: obs.ReplicaPlanEvent{At: 12.5, Epoch: 2, Actions: 5, Emergency: 2,
			Bytes: 1 << 30, Retired: 1, RetiredBytes: 4096, Unreachable: 3}},
		{Kind: obs.KindReplicaPlan, Ev: obs.ReplicaPlanEvent{At: 13, Epoch: 3}},
		{Kind: obs.KindSpan, Ev: obs.SpanEvent{At: 13.5, Req: 7, Span: 21, Parent: 20, Op: "stage.admit",
			DurSec: 0.25, Bytes: 4096, Files: 3, Hit: true, Err: "busy"}},
		{Kind: obs.KindSpan, Ev: obs.SpanEvent{At: 14, Req: 8, Span: 22, Op: "stage", DurSec: 0.001}},
	}
}

// TestRoundTrip is the core property: Read(Write(events)) == events, for
// every event kind, including awkward float values that must survive the
// JSON round trip exactly.
func TestRoundTrip(t *testing.T) {
	events := allKindsEvents()
	// Awkward floats: values with no short decimal representation.
	events = append(events,
		Event{Kind: obs.KindLoad, Ev: obs.LoadEvent{At: 0.1 + 0.2, File: 1, Bytes: 1}},
		Event{Kind: obs.KindJobServed, Ev: obs.JobServedEvent{At: 1.0 / 3.0, Job: 9,
			ResponseSec: 2.0 / 7.0, QueuedAt: 1e-9, FirstStageAt: 1e9, BytesRequested: 1, BytesLoaded: 1}},
	)

	var buf bytes.Buffer
	if err := Write(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, skipped, err := ReadAll(bytes.NewReader(buf.Bytes()), Strict)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("strict read skipped %d lines", skipped)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("round trip mismatch:\ngot  %#v\nwant %#v", got, events)
	}

	// Second hop: rewriting the decoded events is byte-identical.
	var buf2 bytes.Buffer
	if err := Write(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("Write(Read(Write(events))) differs from Write(events)")
	}
}

// TestGoldenDecodesAndRewrites pins traceio against the live sink: the
// checked-in golden trace decodes strictly, and re-encoding reproduces it
// byte for byte.
func TestGoldenDecodesAndRewrites(t *testing.T) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	events, _, err := ReadAll(bytes.NewReader(raw), Strict)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("golden trace decoded to zero events")
	}
	var buf bytes.Buffer
	if err := Write(&buf, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, buf.Bytes()) {
		t.Errorf("rewritten golden trace differs:\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), raw)
	}
}

func TestStrictRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		line string
	}{
		{"truncated json", `{"kind":"load","ev":{"at":1`},
		{"unknown kind", `{"kind":"warp","ev":{}}`},
		{"missing payload", `{"kind":"load"}`},
		{"null payload", `{"kind":"admit","ev":null}`},
		{"mistyped field", `{"kind":"load","ev":{"at":"one"}}`},
		{"not json at all", `garbage`},
	}
	good := `{"kind":"load","ev":{"at":1,"file":0,"bytes":4}}` + "\n"
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := good + tc.line + "\n" + good
			_, _, err := ReadAll(strings.NewReader(in), Strict)
			if err == nil {
				t.Fatal("strict decode accepted a malformed line")
			}
			if !strings.Contains(err.Error(), "line 2") {
				t.Errorf("error %q does not name line 2", err)
			}

			events, skipped, err := ReadAll(strings.NewReader(in), Lenient)
			if err != nil {
				t.Fatalf("lenient decode failed: %v", err)
			}
			if skipped != 1 || len(events) != 2 {
				t.Errorf("lenient: %d events, %d skipped; want 2 events, 1 skipped", len(events), skipped)
			}
		})
	}
}

func TestBlankLinesAndEOF(t *testing.T) {
	in := "\n{\"kind\":\"load\",\"ev\":{\"at\":1,\"file\":0,\"bytes\":4}}\n\n\n"
	d := NewDecoder(strings.NewReader(in), Strict)
	if _, err := d.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("want io.EOF after last event, got %v", err)
	}
}

// TestStagePhaseRoundTrip covers all four phases through the named-string
// encoding (an unknown name must fail strict decode).
func TestStagePhaseRoundTrip(t *testing.T) {
	for _, ph := range []obs.StagePhase{obs.StageStart, obs.StageRetry, obs.StageFailover, obs.StageDone} {
		var buf bytes.Buffer
		if err := Write(&buf, []Event{{Kind: obs.KindStage, Ev: obs.StageEvent{At: 1, Phase: ph, Job: 1}}}); err != nil {
			t.Fatal(err)
		}
		events, _, err := ReadAll(bytes.NewReader(buf.Bytes()), Strict)
		if err != nil {
			t.Fatal(err)
		}
		if got := events[0].Ev.(obs.StageEvent).Phase; got != ph {
			t.Errorf("phase %v round-tripped to %v", ph, got)
		}
	}
	bad := `{"kind":"stage","ev":{"at":1,"phase":"sideways","job":1}}`
	if _, _, err := ReadAll(strings.NewReader(bad), Strict); err == nil {
		t.Error("unknown stage phase accepted")
	}
}

// TestKindTableCoversTracer walks obs.Tracer's method set: every method,
// fed its allKindsEvents entry through a live JSONLSink, must write a line
// that decodes strictly back to the same kind and value. A Tracer method
// added without a payload entry here, or a kind missing from the decoder
// table, fails it.
func TestKindTableCoversTracer(t *testing.T) {
	tracer := reflect.TypeFor[obs.Tracer]()
	if len(kinds) != tracer.NumMethod() {
		t.Errorf("kind table has %d entries, obs.Tracer has %d methods", len(kinds), tracer.NumMethod())
	}
	for i := 0; i < tracer.NumMethod(); i++ {
		m := tracer.Method(i)
		payload := m.Type.In(0)
		var want *Event
		for _, e := range allKindsEvents() {
			if reflect.TypeOf(e.Ev) == payload {
				want = &e
				break
			}
		}
		if want == nil {
			t.Errorf("Tracer.%s: no allKindsEvents entry of type %v", m.Name, payload)
			continue
		}
		var buf bytes.Buffer
		sink := obs.NewJSONLSink(&buf)
		reflect.ValueOf(sink).MethodByName(m.Name).Call([]reflect.Value{reflect.ValueOf(want.Ev)})
		if err := sink.Err(); err != nil {
			t.Fatal(err)
		}
		got, _, err := ReadAll(&buf, Strict)
		if err != nil {
			t.Errorf("Tracer.%s: %v", m.Name, err)
			continue
		}
		if len(got) != 1 || !reflect.DeepEqual(got[0], *want) {
			t.Errorf("Tracer.%s round-tripped to %#v, want %#v", m.Name, got, *want)
		}
	}
}

// TestWriteRejectsForeignPayload: Write encodes only the nine event types,
// each under its own kind.
func TestWriteRejectsForeignPayload(t *testing.T) {
	for _, e := range []Event{
		{Kind: "bogus", Ev: 42},
		{Kind: obs.KindLoad, Ev: 42},
		{Kind: obs.KindLoad, Ev: obs.EvictEvent{File: 1}},
		{Kind: obs.KindLoad, Ev: &obs.LoadEvent{File: 1}},
	} {
		if err := Write(io.Discard, []Event{e}); err == nil {
			t.Errorf("Write accepted %q with payload %T", e.Kind, e.Ev)
		}
	}
}

// FuzzTraceDecode asserts the reader never panics on corrupt JSONL, in
// either mode, and that strict-accepted input round-trips through Write.
// The checked-in corpus (testdata/fuzz/FuzzTraceDecode) seeds it with lines
// from the golden trace and mutations of them.
func FuzzTraceDecode(f *testing.F) {
	if raw, err := os.ReadFile(filepath.FromSlash(goldenPath)); err == nil {
		f.Add(raw)
		for _, line := range bytes.Split(raw, []byte("\n")) {
			if len(line) > 0 {
				f.Add(line)
			}
		}
	}
	f.Add([]byte(`{"kind":"stage","ev":{"phase":"retry"}}`))
	f.Add([]byte(`{"kind":"load","ev":{"at":1e309}}`))
	f.Add([]byte("{\"kind\":\"load\"\x00,\"ev\":{}}"))
	f.Add([]byte(`{"kind":"admit","ev":null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, _, err := ReadAll(bytes.NewReader(data), Strict)
		if _, _, lerr := ReadAll(bytes.NewReader(data), Lenient); lerr != nil && err == nil {
			t.Fatalf("lenient failed (%v) where strict succeeded", lerr)
		}
		if err != nil {
			return
		}
		// Anything the strict reader accepts must re-encode cleanly and
		// decode back to the same events.
		var buf bytes.Buffer
		if werr := Write(&buf, events); werr != nil {
			t.Fatalf("Write failed on strict-accepted events: %v", werr)
		}
		again, _, rerr := ReadAll(bytes.NewReader(buf.Bytes()), Strict)
		if rerr != nil {
			t.Fatalf("re-decode failed: %v", rerr)
		}
		if !reflect.DeepEqual(events, again) {
			t.Fatalf("round trip diverged:\n%#v\n%#v", events, again)
		}
	})
}
