package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind classifies a metric.
type Kind uint8

const (
	// KindCounter is a monotonically non-decreasing value.
	KindCounter Kind = iota
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindHistogram is a fixed-bucket distribution of observations.
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Histogram is a fixed-bucket distribution. Bucket layouts are chosen at
// registration and never change, so snapshots from the same registry are
// always comparable. Safe for concurrent use.
type Histogram struct {
	bounds  []float64 // sorted upper bounds; an implicit +Inf bucket follows
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum reports the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// ExpBuckets returns n upper bounds start, start*factor, start*factor², ...
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// metric is one registered instrument.
type metric struct {
	name string // may carry a {label="value",...} suffix
	help string
	kind Kind

	hist *Histogram
	fn   func() float64 // a counter or gauge, read at snapshot time
}

// Registry holds named instruments and produces deterministic snapshots.
// Registration typically happens once at setup; instruments themselves are
// lock-free. The registry never reads the wall clock.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]*metric // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// register validates and stores m, panicking on duplicate or invalid names:
// instrument registration is setup code, and a misnamed metric is a
// programming error best caught at boot, not at scrape time.
func (r *Registry) register(m *metric) {
	if err := checkName(m.name); err != nil {
		panic(fmt.Sprintf("obs: %v", err))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.metrics[m.name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", m.name))
	}
	r.metrics[m.name] = m
}

// checkName enforces the Prometheus exposition grammar: a metric family
// [a-zA-Z_:][a-zA-Z0-9_:]* optionally followed by a {label="value",...}
// block (emitted verbatim).
func checkName(name string) error {
	family, labels := splitName(name)
	if family == "" {
		return fmt.Errorf("empty metric name")
	}
	for i, c := range family {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return fmt.Errorf("invalid metric name %q", name)
		}
	}
	if labels != "" && (labels[0] != '{' || labels[len(labels)-1] != '}') {
		return fmt.Errorf("malformed label block in %q", name)
	}
	return nil
}

// splitName separates a registered name into family and label block.
func splitName(name string) (family, labels string) {
	for i, c := range name {
		if c == '{' {
			return name[:i], name[i:]
		}
	}
	return name, ""
}

// NewHistogram returns an unregistered histogram with the given upper
// bounds (sorted ascending; an implicit +Inf bucket is appended) — for
// components that observe before, or without, a registry existing (e.g.
// internal/srm records request sizes from Stage and only exposes the
// distribution once NewRegistry attaches). Expose it later with
// Registry.RegisterHistogram. Panics on an empty or unsorted layout.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("obs: histogram bounds not sorted")
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// NewHistogram registers and returns a histogram with the given upper
// bounds (sorted ascending; an implicit +Inf bucket is appended).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	h := NewHistogram(bounds)
	r.register(&metric{name: name, help: help, kind: KindHistogram, hist: h})
	return h
}

// NewExpHistogram returns an unregistered histogram with n exponential
// bucket bounds start, start*factor, start*factor², ... — the log-scale
// layout latency distributions need, where fixed-width buckets would either
// blur the fast path or truncate the tail. Quantile interpolation (see
// Metric.Quantile) has constant relative error ≤ factor-1 on such a layout.
// Panics unless start > 0, factor > 1 and n ≥ 1, which together guarantee
// the strictly-increasing bounds NewHistogram requires.
func NewExpHistogram(start, factor float64, n int) *Histogram {
	if !(start > 0) {
		panic(fmt.Sprintf("obs: exp histogram start %v, need > 0", start))
	}
	if !(factor > 1) {
		panic(fmt.Sprintf("obs: exp histogram factor %v, need > 1", factor))
	}
	if n < 1 {
		panic(fmt.Sprintf("obs: exp histogram needs n >= 1 buckets, got %d", n))
	}
	return NewHistogram(ExpBuckets(start, factor, n))
}

// NewExpHistogram registers and returns an exponential-bucket histogram
// (see the package-level NewExpHistogram for the layout and validation).
func (r *Registry) NewExpHistogram(name, help string, start, factor float64, n int) *Histogram {
	h := NewExpHistogram(start, factor, n)
	r.register(&metric{name: name, help: help, kind: KindHistogram, hist: h})
	return h
}

// RegisterHistogram exposes an existing histogram (see the package-level
// NewHistogram) under name. The registry holds a reference, not a copy:
// observations made after registration show up in later snapshots.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram) {
	if h == nil {
		panic(fmt.Sprintf("obs: RegisterHistogram(%q) with nil histogram", name))
	}
	r.register(&metric{name: name, help: help, kind: KindHistogram, hist: h})
}

// CounterFunc registers a counter whose value is read from fn at snapshot
// time. fn must be monotone and safe for concurrent calls; use it to expose
// counters that live behind another component's lock (e.g. srm.Snapshot).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(&metric{name: name, help: help, kind: KindCounter, fn: fn})
}

// GaugeFunc registers a gauge read from fn at snapshot time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&metric{name: name, help: help, kind: KindGauge, fn: fn})
}

// Bucket is one cumulative histogram bucket in a snapshot.
type Bucket struct {
	// UpperBound is the bucket's inclusive upper bound; +Inf for the last.
	UpperBound float64
	// Count is the cumulative number of observations ≤ UpperBound.
	Count int64
}

// Metric is one instrument's state at snapshot time.
type Metric struct {
	Name string
	Help string
	Kind Kind
	// Value carries counters (as float64) and gauges.
	Value float64
	// Buckets, Sum and Count carry histograms.
	Buckets []Bucket
	Sum     float64
	Count   int64
}

// Snapshot is a point-in-time copy of every registered metric, sorted by
// name. Two snapshots of the same registry always list the same metrics in
// the same order, so diffs and golden tests are stable.
type Snapshot struct {
	Metrics []Metric
}

// Snapshot captures the current value of every metric.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	metrics := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		metrics = append(metrics, m)
	}
	r.mu.RUnlock()
	sort.Slice(metrics, func(i, j int) bool { return metrics[i].name < metrics[j].name })

	out := Snapshot{Metrics: make([]Metric, 0, len(metrics))}
	for _, m := range metrics {
		s := Metric{Name: m.name, Help: m.help, Kind: m.kind}
		switch {
		case m.fn != nil:
			s.Value = m.fn()
		case m.hist != nil:
			h := m.hist
			s.Sum = h.Sum()
			s.Count = h.Count()
			s.Buckets = make([]Bucket, len(h.bounds)+1)
			cum := int64(0)
			for i := range h.counts {
				cum += h.counts[i].Load()
				ub := math.Inf(1)
				if i < len(h.bounds) {
					ub = h.bounds[i]
				}
				s.Buckets[i] = Bucket{UpperBound: ub, Count: cum}
			}
		}
		out.Metrics = append(out.Metrics, s)
	}
	return out
}

// Get finds a metric by name.
func (s Snapshot) Get(name string) (Metric, bool) {
	i := sort.Search(len(s.Metrics), func(i int) bool { return s.Metrics[i].Name >= name })
	if i < len(s.Metrics) && s.Metrics[i].Name == name {
		return s.Metrics[i], true
	}
	return Metric{}, false
}
