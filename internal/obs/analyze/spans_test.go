package analyze

import (
	"math"
	"testing"

	"fbcache/internal/obs"
	"fbcache/internal/obs/traceio"
)

// spanEvent wraps a SpanEvent into a trace event the way traceio decodes it.
func spanEvent(e obs.SpanEvent) traceio.Event {
	return traceio.Event{Kind: obs.KindSpan, Ev: e}
}

// spanFixture is a two-request flight dump: request 1 is a fast stage with
// an admit child, request 2 is a slow busy stage with a wait child. A
// non-span event is interleaved to prove filtering.
func spanFixture() []traceio.Event {
	return []traceio.Event{
		spanEvent(obs.SpanEvent{At: 1.05, Req: 1, Span: 2, Parent: 1, Op: "stage.admit", DurSec: 0.03, Bytes: 100, Files: 2}),
		{Kind: obs.KindLoad, Ev: obs.LoadEvent{File: 7, Bytes: 100}},
		spanEvent(obs.SpanEvent{At: 1.10, Req: 1, Span: 1, Op: "stage", DurSec: 0.10, Bytes: 100, Files: 2}),
		spanEvent(obs.SpanEvent{At: 2.45, Req: 2, Span: 4, Parent: 3, Op: "stage.wait", DurSec: 0.40, Err: "busy"}),
		spanEvent(obs.SpanEvent{At: 2.50, Req: 2, Span: 3, Op: "stage", DurSec: 0.50, Err: "busy"}),
	}
}

func TestSpansReport(t *testing.T) {
	rep := Spans(spanFixture(), 10)
	if rep.Spans != 4 || rep.Requests != 2 {
		t.Fatalf("spans/requests = %d/%d, want 4/2", rep.Spans, rep.Requests)
	}

	ops := map[string]OpLatency{}
	for _, o := range rep.Ops {
		ops[o.Op] = o
	}
	st, ok := ops["stage"]
	if !ok {
		t.Fatal("no stage row")
	}
	if st.Count != 2 || st.Errors != 1 {
		t.Errorf("stage count/errors = %d/%d, want 2/1", st.Count, st.Errors)
	}
	// Exact quantiles over {0.10, 0.50}: p50 interpolates to the midpoint,
	// max is the busy request.
	if math.Abs(st.P50-0.30) > 1e-9 || st.Max != 0.50 {
		t.Errorf("stage p50/max = %v/%v, want 0.30/0.50", st.P50, st.Max)
	}
	if w := ops["stage.wait"]; w.Count != 1 || w.Errors != 1 || w.P99 != 0.40 {
		t.Errorf("stage.wait row = %+v", w)
	}
	// Rows sort by op name.
	for i := 1; i < len(rep.Ops); i++ {
		if rep.Ops[i-1].Op >= rep.Ops[i].Op {
			t.Errorf("ops out of order: %q before %q", rep.Ops[i-1].Op, rep.Ops[i].Op)
		}
	}

	if len(rep.Slowest) != 2 {
		t.Fatalf("slowest = %d entries, want 2", len(rep.Slowest))
	}
	if s := rep.Slowest[0]; s.Req != 2 || s.DurSec != 0.50 || s.Err != "busy" || s.Spans != 2 {
		t.Errorf("slowest[0] = %+v, want req 2 (0.5s busy, 2 spans)", s)
	}
	if s := rep.Slowest[1]; s.Req != 1 || s.Spans != 2 {
		t.Errorf("slowest[1] = %+v, want req 1 with 2 spans", s)
	}

	// Trees nest the children under their request roots, oldest first.
	if len(rep.Trees) != 2 || rep.Trees[0].Req != 1 || rep.Trees[1].Req != 2 {
		t.Fatalf("trees = %+v", rep.Trees)
	}
	if len(rep.Trees[0].Children) != 1 || rep.Trees[0].Children[0].Op != "stage.admit" {
		t.Errorf("request 1 tree lost its admit child: %+v", rep.Trees[0])
	}
}

func TestSpansTopKAndEmpty(t *testing.T) {
	rep := Spans(spanFixture(), 1)
	if len(rep.Slowest) != 1 || rep.Slowest[0].Req != 2 {
		t.Errorf("top-1 slowest = %+v, want only req 2", rep.Slowest)
	}

	// A trace with no span events yields an empty report, not a panic.
	empty := Spans([]traceio.Event{{Kind: obs.KindLoad, Ev: obs.LoadEvent{File: 1}}}, 0)
	if empty.Spans != 0 || empty.Requests != 0 || len(empty.Ops) != 0 || len(empty.Slowest) != 0 {
		t.Errorf("empty report = %+v", empty)
	}
}
