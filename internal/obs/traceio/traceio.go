// Package traceio reads and re-writes the JSONL event traces produced by
// obs.JSONLSink (cachesim -trace-out, srmbench -trace-out, the golden trace
// under internal/simulate/testdata): a streaming decoder that turns each
// {"kind":...,"ev":...} line (an obs.Record) back into the typed obs event
// it came from, and a writer that re-encodes events the way the live sink
// encodes them, so Read∘Write is the identity on well-formed traces.
// Both directions check payloads against one kind→type table; the kind names
// themselves are declared in obs.
//
// Decoding is streaming — Decoder.Next returns one event at a time without
// holding the trace in memory — and comes in two modes. Strict fails on the
// first malformed line (truncated JSON, unknown kind, mistyped field) with
// its line number; Lenient skips such lines and counts them, for salvaging
// analytics from a trace whose writer crashed mid-line. The offline
// analytics over these events live in internal/obs/analyze and are driven
// by cmd/fbtrace.
package traceio

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"

	"fbcache/internal/obs"
)

// Event is one decoded trace line: the kind discriminator plus the typed
// payload — one of the nine obs event structs, held by value. It is the
// record obs.JSONLSink writes, so Write re-encodes it unchanged.
type Event = obs.Record

// Mode selects how the decoder treats malformed lines.
type Mode int

const (
	// Strict fails on the first malformed line, reporting its line number.
	Strict Mode = iota
	// Lenient skips malformed lines and counts them (ReadAll's skipped).
	Lenient
)

// maxLine bounds one trace line; a line longer than this is malformed by
// construction (the longest legitimate event is well under 1 KiB).
const maxLine = 1 << 20

// kinds maps each kind discriminator to the obs event type its payload
// decodes into — the one table both directions check against.
var kinds = map[string]reflect.Type{
	obs.KindAdmit:       reflect.TypeFor[obs.AdmitEvent](),
	obs.KindLoad:        reflect.TypeFor[obs.LoadEvent](),
	obs.KindEvict:       reflect.TypeFor[obs.EvictEvent](),
	obs.KindSelectRound: reflect.TypeFor[obs.SelectRoundEvent](),
	obs.KindCreditDecay: reflect.TypeFor[obs.CreditDecayEvent](),
	obs.KindStage:       reflect.TypeFor[obs.StageEvent](),
	obs.KindJobServed:   reflect.TypeFor[obs.JobServedEvent](),
	obs.KindReplicaPlan: reflect.TypeFor[obs.ReplicaPlanEvent](),
	obs.KindSpan:        reflect.TypeFor[obs.SpanEvent](),
}

// Decoder streams events out of a JSONL trace.
type Decoder struct {
	sc      *bufio.Scanner
	mode    Mode
	line    int
	skipped int
}

// NewDecoder wraps r. The caller owns r's lifecycle.
func NewDecoder(r io.Reader, mode Mode) *Decoder {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxLine)
	return &Decoder{sc: sc, mode: mode}
}

// Next returns the next event, or io.EOF at the end of the trace. Blank
// lines are skipped in both modes (a trailing newline is not an error). In
// Strict mode any malformed line aborts with an error naming it; in Lenient
// mode malformed lines are counted and skipped — only I/O errors (including
// a line exceeding the 1 MiB bound, which the underlying scanner cannot
// recover from) are returned.
func (d *Decoder) Next() (Event, error) {
	for d.sc.Scan() {
		d.line++
		line := bytes.TrimSpace(d.sc.Bytes())
		if len(line) == 0 {
			continue
		}
		ev, err := decodeLine(line)
		if err != nil {
			if d.mode == Lenient {
				d.skipped++
				continue
			}
			return Event{}, fmt.Errorf("traceio: line %d: %w", d.line, err)
		}
		return ev, nil
	}
	if err := d.sc.Err(); err != nil {
		return Event{}, fmt.Errorf("traceio: line %d: %w", d.line+1, err)
	}
	return Event{}, io.EOF
}

// Line reports the number of lines consumed so far (1-based after the first
// Next), for error attribution by callers doing their own validation.
func (d *Decoder) Line() int { return d.line }

func decodeLine(line []byte) (Event, error) {
	var rec struct {
		Kind string          `json:"kind"`
		Ev   json.RawMessage `json:"ev"`
	}
	if err := json.Unmarshal(line, &rec); err != nil {
		return Event{}, err
	}
	typ, ok := kinds[rec.Kind]
	if !ok {
		return Event{}, fmt.Errorf("unknown event kind %q", rec.Kind)
	}
	if len(rec.Ev) == 0 || string(rec.Ev) == "null" {
		return Event{}, fmt.Errorf("event kind %q has no payload", rec.Kind)
	}
	ev := reflect.New(typ)
	if err := json.Unmarshal(rec.Ev, ev.Interface()); err != nil {
		return Event{}, fmt.Errorf("decoding %q payload: %w", rec.Kind, err)
	}
	return Event{Kind: rec.Kind, Ev: ev.Elem().Interface()}, nil
}

// ReadAll decodes a whole trace. In Lenient mode the skipped-line count is
// also returned; in Strict mode it is always zero.
func ReadAll(r io.Reader, mode Mode) (events []Event, skipped int, err error) {
	d := NewDecoder(r, mode)
	for {
		ev, err := d.Next()
		if err == io.EOF {
			return events, d.skipped, nil
		}
		if err != nil {
			return events, d.skipped, err
		}
		events = append(events, ev)
	}
}

// ReadFile is ReadAll over a file.
func ReadFile(path string, mode Mode) (events []Event, skipped int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer func() {
		_ = f.Close() // read-only handle
	}()
	return ReadAll(f, mode)
}

// Write re-encodes events as obs.JSONLSink does, one obs.Record per line
// through a default json.Encoder, so the output is byte-identical to what
// a live sink would have produced for the same event sequence:
// ReadAll(Write(events)) round-trips and diffing a rewritten trace against
// its source is a no-op.
// An event whose payload is not the type its kind names is rejected.
func Write(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	for i, e := range events {
		if typ, ok := kinds[e.Kind]; !ok || reflect.TypeOf(e.Ev) != typ {
			return fmt.Errorf("traceio: event %d: %T is not a %q event", i, e.Ev, e.Kind)
		}
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}
