// Package obs is the observability layer of the BlindBox pipeline: a
// stdlib-only metrics registry (atomic counters, gauges and fixed-bucket
// histograms, exposed in Prometheus text format and as JSON), per-flow
// trace spans emitted to pluggable sinks, and the admin HTTP endpoint that
// serves both together with net/http/pprof.
//
// The paper's evaluation (§7) is entirely about where time goes —
// tokenization, DPIEnc encryption, detection, rule preparation — and a
// deployed middlebox needs those same quantities live: shard queue depths,
// detection-barrier stalls, per-stage latency. Every pipeline package
// accepts an optional *Registry; the disabled path is a nil registry, whose
// handles are nil pointers with no-op methods, so uninstrumented hot paths
// pay only a nil check.
//
// Concurrency: all metric operations (Add, Set, Observe, With) are safe for
// concurrent use with each other and with scrapes. Registration is
// idempotent — asking a registry for an existing name returns the existing
// metric — so per-connection components can share one registry.
package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
)

// nameRE is the Prometheus metric/label name grammar.
var nameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// ValidName reports whether s is a valid metric or label name.
func ValidName(s string) bool { return nameRE.MatchString(s) }

// Counter is a monotonically increasing uint64. A nil Counter is a valid
// no-op.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil Counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous int64 value. A nil Gauge is a valid no-op.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current gauge value (0 for a nil Gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket cumulative histogram in the Prometheus style:
// counts[i] tallies observations <= bounds[i], with one implicit +Inf
// bucket at the end. A nil Histogram is a valid no-op.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64   // math.Float64bits of the running sum
	count  atomic.Uint64
}

// LatencyBuckets are the default histogram bounds for durations in seconds,
// spanning 1µs (one AES batch) to 2.5s (a stalled shard).
var LatencyBuckets = []float64{
	1e-6, 2.5e-6, 1e-5, 2.5e-5, 1e-4, 2.5e-4,
	1e-3, 2.5e-3, 1e-2, 2.5e-2, 0.1, 0.25, 1, 2.5,
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// snapshot returns cumulative bucket counts aligned with bounds plus +Inf.
func (h *Histogram) snapshot() []uint64 {
	out := make([]uint64, len(h.counts))
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	return out
}

// CounterVec is a family of counters keyed by one label. Children are
// created on first use; lookups after that are a read-locked map access,
// acceptable for event-rate (not token-rate) paths such as per-SID alert
// counts. A nil CounterVec is a valid no-op.
type CounterVec struct {
	label string
	mu    sync.RWMutex
	m     map[string]*Counter
}

// With returns the child counter for the label value, creating it if
// needed. On a nil vec it returns nil (a no-op counter).
func (v *CounterVec) With(value string) *Counter {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	c := v.m[value]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c = v.m[value]; c == nil {
		c = &Counter{}
		v.m[value] = c
	}
	return c
}

// Values returns a copy of the children's current values by label value.
func (v *CounterVec) Values() map[string]uint64 {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make(map[string]uint64, len(v.m))
	for k, c := range v.m {
		out[k] = c.Value()
	}
	return out
}

// GaugeVec is a family of gauges keyed by one label. A nil GaugeVec is a
// valid no-op.
type GaugeVec struct {
	label string
	mu    sync.RWMutex
	m     map[string]*Gauge
}

// With returns the child gauge for the label value, creating it if needed.
func (v *GaugeVec) With(value string) *Gauge {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	g := v.m[value]
	v.mu.RUnlock()
	if g != nil {
		return g
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if g = v.m[value]; g == nil {
		g = &Gauge{}
		v.m[value] = g
	}
	return g
}

// Values returns a copy of the children's current values by label value.
func (v *GaugeVec) Values() map[string]int64 {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make(map[string]int64, len(v.m))
	for k, g := range v.m {
		out[k] = g.Value()
	}
	return out
}

// metricKind discriminates registry entries for exposition.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindCounterVec
	kindGaugeVec
)

func (k metricKind) String() string {
	switch k {
	case kindCounter, kindCounterVec:
		return "counter"
	case kindGauge, kindGaugeVec:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// metric is one registered name with its typed handle (exactly one of the
// pointers is set, per kind).
type metric struct {
	name string
	help string
	kind metricKind

	counter    *Counter
	gauge      *Gauge
	histogram  *Histogram
	counterVec *CounterVec
	gaugeVec   *GaugeVec
}

// Registry holds named metrics and renders them for scrapes. The zero value
// is not usable; a nil *Registry is the documented disabled state: every
// constructor on it returns a nil handle whose methods are no-ops.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	byName  map[string]*metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

// register returns the existing metric for name or inserts a new one built
// by mk. Re-registering a name with a different kind is a programming
// error and panics — two packages fighting over one name would otherwise
// silently split their counts.
func (r *Registry) register(name, help string, kind metricKind, mk func(*metric)) *metric {
	if !ValidName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s, was %s", name, kind, m.kind))
		}
		return m
	}
	m := &metric{name: name, help: help, kind: kind}
	mk(m)
	r.byName[name] = m
	r.metrics = append(r.metrics, m)
	return m
}

// Counter returns the named counter, registering it on first use. On a nil
// registry it returns nil, a valid no-op counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindCounter, func(m *metric) { m.counter = &Counter{} }).counter
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindGauge, func(m *metric) { m.gauge = &Gauge{} }).gauge
}

// Histogram returns the named histogram, registering it on first use with
// the given bucket upper bounds (they must be sorted ascending; an implicit
// +Inf bucket is appended). Buckets are fixed at first registration.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindHistogram, func(m *metric) {
		if len(buckets) == 0 {
			buckets = LatencyBuckets
		}
		if !sort.Float64sAreSorted(buckets) {
			panic(fmt.Sprintf("obs: histogram %q buckets are not sorted", name))
		}
		bounds := append([]float64(nil), buckets...)
		m.histogram = &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	}).histogram
}

// CounterVec returns the named one-label counter family, registering it on
// first use.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	if r == nil {
		return nil
	}
	if !ValidName(label) {
		panic(fmt.Sprintf("obs: invalid label name %q", label))
	}
	return r.register(name, help, kindCounterVec, func(m *metric) {
		m.counterVec = &CounterVec{label: label, m: make(map[string]*Counter)}
	}).counterVec
}

// GaugeVec returns the named one-label gauge family, registering it on
// first use.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	if r == nil {
		return nil
	}
	if !ValidName(label) {
		panic(fmt.Sprintf("obs: invalid label name %q", label))
	}
	return r.register(name, help, kindGaugeVec, func(m *metric) {
		m.gaugeVec = &GaugeVec{label: label, m: make(map[string]*Gauge)}
	}).gaugeVec
}

// snapshotMetrics copies the metric list under the lock so scrapes read a
// stable set while registrations continue.
func (r *Registry) snapshotMetrics() []*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*metric(nil), r.metrics...)
}
