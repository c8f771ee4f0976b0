// Package obs is the repository's observability layer: a zero-dependency,
// allocation-conscious metrics registry and a tracing hook interface that
// make the quantities the paper's evaluation (§6) reasons about — hit and
// byte-miss ratios, eviction churn, staging retries, per-request v'(r)
// selection outcomes and Landlord credit decay — inspectable at runtime
// without printf archaeology.
//
// The package has three parts:
//
//   - Registry (registry.go): read-through counters and gauges
//     (CounterFunc, GaugeFunc) and fixed-bucket histograms, with a
//     deterministic Snapshot. Histograms are safe for concurrent use (the
//     SRM service observes them under load); the registry itself never
//     reads the wall clock, so simulation code can record sim-time
//     observations without perturbing determinism.
//   - Tracer (trace.go, sinks.go): a hook interface with one method per
//     typed event — Admit, Load, Evict, SelectRound, CreditDecay, Stage
//     (Start/Retry/Failover/Done phases), JobServed, ReplicaPlan and Span —
//     emitted by internal/core, internal/policy/landlord, internal/cache,
//     internal/simulate and the span flight recorder (internal/obs/span).
//     Emit sites guard with a nil check, so an untraced run pays only an
//     untaken branch. The sinks are NopTracer and JSONLSink, which writes
//     one {"kind":...,"ev":...} Record per event; the nine kind names are
//     declared here once and internal/obs/traceio decodes them back.
//   - Exposition (prom.go, http.go): hand-rolled Prometheus text format
//     and a DebugMux bundling /metrics and net/http/pprof for cmd/srmd's
//     -debug-addr flag.
//
// obs sits below every other internal package (it imports only the standard
// library), so any layer — simulator core, policies, the SRM service, the
// experiment harness — can publish through it without import cycles. This is
// the seam performance PRs measure through; see the no-op-overhead
// benchmarks in internal/core and internal/policy/landlord.
package obs
