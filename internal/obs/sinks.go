package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// The kind discriminators of the JSONL trace records, one per Tracer
// method. They are declared only here: JSONLSink writes them and
// internal/obs/traceio maps them back to event types.
const (
	KindAdmit       = "admit"
	KindLoad        = "load"
	KindEvict       = "evict"
	KindSelectRound = "select_round"
	KindCreditDecay = "credit_decay"
	KindStage       = "stage"
	KindJobServed   = "job_served"
	KindReplicaPlan = "replica_plan"
	KindSpan        = "span"
)

// Record is one JSONL trace line: an event wrapped with its kind
// discriminator, written by a default json.Encoder — JSONLSink live, and
// internal/obs/traceio when it re-encodes a decoded trace. encoding/json
// emits struct fields in declaration order, so each line starts with
// {"kind":...} and the record layout is deterministic — golden-testable.
type Record struct {
	Kind string `json:"kind"`
	Ev   any    `json:"ev"`
}

// JSONLSink writes one JSON object per event, newline-delimited. Safe for
// concurrent use; write errors are sticky and reported by Err so hot paths
// never have to check.
type JSONLSink struct {
	mu  sync.Mutex
	enc *json.Encoder // guarded by mu
	err error         // guarded by mu
}

// NewJSONLSink wraps w. The caller owns w's lifecycle (flush/close).
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w)}
}

func (s *JSONLSink) emit(kind string, ev any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(Record{Kind: kind, Ev: ev})
}

// Err reports the first write error, if any.
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Admit implements Tracer.
func (s *JSONLSink) Admit(e AdmitEvent) { s.emit(KindAdmit, e) }

// Load implements Tracer.
func (s *JSONLSink) Load(e LoadEvent) { s.emit(KindLoad, e) }

// Evict implements Tracer.
func (s *JSONLSink) Evict(e EvictEvent) { s.emit(KindEvict, e) }

// SelectRound implements Tracer.
func (s *JSONLSink) SelectRound(e SelectRoundEvent) { s.emit(KindSelectRound, e) }

// CreditDecay implements Tracer.
func (s *JSONLSink) CreditDecay(e CreditDecayEvent) { s.emit(KindCreditDecay, e) }

// Stage implements Tracer.
func (s *JSONLSink) Stage(e StageEvent) { s.emit(KindStage, e) }

// JobServed implements Tracer.
func (s *JSONLSink) JobServed(e JobServedEvent) { s.emit(KindJobServed, e) }

// ReplicaPlan implements Tracer.
func (s *JSONLSink) ReplicaPlan(e ReplicaPlanEvent) { s.emit(KindReplicaPlan, e) }

// Span implements Tracer.
func (s *JSONLSink) Span(e SpanEvent) { s.emit(KindSpan, e) }
