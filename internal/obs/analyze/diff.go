package analyze

import (
	"bytes"
	"reflect"
	"sort"

	"fbcache/internal/obs/traceio"
)

// KindCount is one event kind's cardinality on each side of a diff.
type KindCount struct {
	Kind string
	A, B int
}

// StatDelta is one TraceStats field on each side of a diff.
type StatDelta struct {
	Name string
	A, B int64
}

// DiffResult compares two traces event-by-event and metric-by-metric.
type DiffResult struct {
	LenA, LenB int

	// FirstDiverge is the index of the first event where the traces differ
	// (including one trace ending early); -1 when the event streams are
	// identical. DivergeA/DivergeB hold the JSONL rendering of the
	// diverging events, "" for the side that already ended.
	FirstDiverge       int
	DivergeA, DivergeB string

	// Kinds lists per-kind event counts for both sides (sorted by kind,
	// only kinds present in either trace); StatDeltas lists the TraceStats
	// fields that differ.
	Kinds      []KindCount
	StatDeltas []StatDelta

	StatsA, StatsB TraceStats
}

// Identical reports byte-equivalent traces: same events in the same order.
func (d DiffResult) Identical() bool { return d.FirstDiverge < 0 }

// renderEvent produces the single JSONL line for e (without the newline).
func renderEvent(e traceio.Event) string {
	var buf bytes.Buffer
	if err := traceio.Write(&buf, []traceio.Event{e}); err != nil {
		return "<unrenderable: " + err.Error() + ">"
	}
	return string(bytes.TrimRight(buf.Bytes(), "\n"))
}

// Diff compares two decoded traces. Two same-seed, same-policy runs must
// come back Identical; runs differing only in policy diverge at the first
// replacement decision, and the kind counts and stat deltas quantify how
// differently the two policies behaved (eviction churn, retry volume,
// bytes moved).
func Diff(a, b []traceio.Event) DiffResult {
	d := DiffResult{LenA: len(a), LenB: len(b), FirstDiverge: -1}

	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if !reflect.DeepEqual(a[i], b[i]) {
			d.FirstDiverge = i
			d.DivergeA = renderEvent(a[i])
			d.DivergeB = renderEvent(b[i])
			break
		}
	}
	if d.FirstDiverge < 0 && len(a) != len(b) {
		d.FirstDiverge = n
		if n < len(a) {
			d.DivergeA = renderEvent(a[n])
		}
		if n < len(b) {
			d.DivergeB = renderEvent(b[n])
		}
	}

	counts := make(map[string]*KindCount)
	tally := func(events []traceio.Event, side int) {
		for _, e := range events {
			c := counts[e.Kind]
			if c == nil {
				c = &KindCount{Kind: e.Kind}
				counts[e.Kind] = c
			}
			if side == 0 {
				c.A++
			} else {
				c.B++
			}
		}
	}
	tally(a, 0)
	tally(b, 1)
	for _, c := range counts {
		d.Kinds = append(d.Kinds, *c)
	}
	sort.Slice(d.Kinds, func(i, j int) bool { return d.Kinds[i].Kind < d.Kinds[j].Kind })

	d.StatsA = Stats(a)
	d.StatsB = Stats(b)
	d.StatDeltas = statDeltas(d.StatsA, d.StatsB)
	return d
}

// statDeltas lists the TraceStats fields whose values differ, by field
// name, via reflection so new counters are picked up automatically.
func statDeltas(a, b TraceStats) []StatDelta {
	var out []StatDelta
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	t := va.Type()
	for i := 0; i < t.NumField(); i++ {
		fa, fb := va.Field(i).Int(), vb.Field(i).Int()
		if fa != fb {
			out = append(out, StatDelta{Name: t.Field(i).Name, A: fa, B: fb})
		}
	}
	return out
}
