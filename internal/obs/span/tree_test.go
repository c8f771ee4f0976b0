package span

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"fbcache/internal/obs"
)

// ev builds a SpanEvent the way Span.Event does, from explicit times.
func ev(req, id, parent uint64, op string, start, end float64) obs.SpanEvent {
	return obs.SpanEvent{At: end, Req: req, Span: id, Parent: parent, Op: op, DurSec: end - start}
}

func TestTreesReconstruction(t *testing.T) {
	events := []obs.SpanEvent{
		// Request 2 finishes first but starts second; child order shuffled.
		ev(2, 10, 0, "stage", 1.5, 2.0),
		ev(2, 12, 10, "stage.admit", 1.8, 1.9),
		ev(2, 11, 10, "stage.wait", 1.6, 1.7),
		// Request 1: root whose parent lives in another process — still a root.
		ev(1, 5, 999, "stage", 1.0, 3.0),
		ev(1, 6, 5, "stage.admit", 1.1, 1.2),
		// Grandchild nesting.
		ev(1, 7, 6, "stage.store", 1.15, 1.18),
	}
	roots := Trees(events)
	if len(roots) != 2 {
		t.Fatalf("got %d roots, want 2", len(roots))
	}
	if roots[0].Req != 1 || roots[1].Req != 2 {
		t.Fatalf("roots ordered %d,%d by start; want 1,2", roots[0].Req, roots[1].Req)
	}
	r1 := roots[0]
	if len(r1.Children) != 1 || r1.Children[0].Op != "stage.admit" {
		t.Fatalf("request 1 children = %+v, want one admit leg", r1.Children)
	}
	if gc := r1.Children[0].Children; len(gc) != 1 || gc[0].Op != "stage.store" {
		t.Fatalf("grandchild = %+v, want the store leg under admit", gc)
	}
	r2 := roots[1]
	if len(r2.Children) != 2 || r2.Children[0].Op != "stage.wait" || r2.Children[1].Op != "stage.admit" {
		t.Fatalf("request 2 children = %+v, want wait then admit by start time", r2.Children)
	}

	// Same events, different order → identical trees (determinism).
	shuffled := []obs.SpanEvent{events[5], events[2], events[0], events[4], events[3], events[1]}
	again := Trees(shuffled)
	want, _ := json.Marshal(roots)
	got, _ := json.Marshal(again)
	if string(want) != string(got) {
		t.Fatalf("tree depends on event order:\n%s\n%s", want, got)
	}
}

func TestTreesSelfParentDoesNotCycle(t *testing.T) {
	roots := Trees([]obs.SpanEvent{ev(1, 5, 5, "stage", 0, 1)})
	if len(roots) != 1 || len(roots[0].Children) != 0 {
		t.Fatalf("self-parented span = %+v, want a lone root", roots)
	}
}

func TestFlightHandler(t *testing.T) {
	rec := newRecorder(Options{SlowThreshold: time.Nanosecond}, 1, 64, neverSample)
	serveOne(rec, Context{}, ErrBusy)

	rr := httptest.NewRecorder()
	FlightHandler(rec).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/flight", nil))
	if rr.Code != 200 {
		t.Fatalf("status %d", rr.Code)
	}
	var snap struct {
		Counters Counters `json:"counters"`
		Requests []*Node  `json:"requests"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatalf("response not JSON: %v\n%s", err, rr.Body.String())
	}
	if snap.Counters.Requests != 1 || snap.Counters.Anomalies != 1 {
		t.Errorf("counters = %+v, want 1 request / 1 anomaly", snap.Counters)
	}
	if len(snap.Requests) != 1 {
		t.Fatalf("got %d request trees, want 1", len(snap.Requests))
	}
	root := snap.Requests[0]
	if root.Op != "stage" || root.Err != "busy" || len(root.Children) != 2 {
		t.Errorf("tree root = %+v with %d children, want busy stage with 2 legs",
			root.SpanEvent, len(root.Children))
	}
}

func TestFlightHandlerNilRecorder(t *testing.T) {
	rr := httptest.NewRecorder()
	FlightHandler(nil).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/flight", nil))
	if rr.Code != 200 {
		t.Fatalf("status %d", rr.Code)
	}
	var snap map[string]json.RawMessage
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatalf("nil-recorder response not JSON: %v", err)
	}
	if string(snap["requests"]) != "[]" {
		t.Errorf("requests = %s, want []", snap["requests"])
	}
}

func TestSpanEventRoundTripsThroughRecorder(t *testing.T) {
	rec := newSlow(slowOpts())
	serveOne(rec, Context{}, ErrStore)
	for _, s := range rec.Kept() {
		e := s.Event()
		if e.Op != s.Op.String() || e.Req != uint64(s.Req) || e.Span != uint64(s.ID) {
			t.Errorf("Event() identity fields diverge: %+v vs %+v", e, s)
		}
		if e.DurSec < 0 || e.At <= 0 {
			t.Errorf("Event() time fields out of range: %+v", e)
		}
		if s.Err == ErrStore && e.Err != "store" {
			t.Errorf("err name = %q, want store", e.Err)
		}
	}
}

func TestOpAndErrNames(t *testing.T) {
	seen := map[string]Op{}
	for op := OpNone; op < opCount; op++ {
		name := op.String()
		if name == "" || name == "unknown" {
			t.Errorf("op %d has no name", op)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("ops %d and %d share name %q", prev, op, name)
		}
		seen[name] = op
	}
	if Op(200).String() != "unknown" {
		t.Error("out-of-range op did not stringify as unknown")
	}
	if ErrNone.String() != "" {
		t.Errorf("ErrNone = %q, want empty", ErrNone.String())
	}
	for e := ErrNone + 1; e < errCount; e++ {
		if e.String() == "" || e.String() == "unknown" {
			t.Errorf("err %d has no name", e)
		}
	}
	if ErrCode(200).String() != "unknown" {
		t.Error("out-of-range err did not stringify as unknown")
	}
}
