// Package obs is the module's observability plane: a small, dependency-free
// registry of counters, gauges and fixed-bucket histograms with atomic hot
// paths, exported in the Prometheus text format.
//
// The package exists so the serving plane (kernel engine, shard manager,
// routing planner, mfpd's HTTP layer) can be instrumented without pulling a
// client library into a reproduction repository: everything here is
// standard library only, and the cost of an increment on a hot path is one
// uncontended atomic add. mfpd serves the Default registry as GET /metrics;
// docs/METRICS.md documents every metric the module registers, and a CI
// guard (make docs-check) keeps the two in sync.
//
// Metrics are registered once, at package init or constructor time, and
// identical re-registration is idempotent (the existing metric is
// returned), so tests and tools can construct the same instrument sets the
// service does. Registration with the same name but a different type,
// help string, label set or bucket layout panics — that is a programming
// error, not a runtime condition.
//
// Cardinality discipline: nothing in this module labels a metric by mesh
// name. A namespace holds thousands of tenant meshes and a label per tenant
// would make every scrape O(tenants); per-mesh numbers stay on the
// /meshes/{name}/stats endpoint, while /metrics carries process-wide
// aggregates with small, fixed label sets (dimension, outcome, route
// pattern, status class).
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Default is the process-wide registry every package in this module
// registers on; mfpd serves it as GET /metrics.
var Default = NewRegistry()

// metricKind is the Prometheus family type.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// family is one named metric family: a type, a help string, a label
// schema, and one child instrument per label-value combination (a single
// child keyed "" for unlabeled metrics).
type family struct {
	name    string
	help    string
	kind    metricKind
	labels  []string
	buckets []float64 // histogram families only

	mu       sync.Mutex
	children map[string]any // label signature -> *Counter / *Gauge / *Histogram
	order    []string       // signatures sorted at export time
}

// Registry is a set of metric families. All methods are safe for
// concurrent use; the instruments it hands out are themselves safe for
// concurrent use with uncontended-atomic hot paths.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// validName reports whether name is a legal Prometheus metric or label
// name: [a-zA-Z_][a-zA-Z0-9_]* (colons are reserved for recording rules
// and deliberately rejected here).
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// register resolves or creates the family, enforcing the idempotent-if-
// identical rule.
func (r *Registry) register(name, help string, kind metricKind, labels []string, buckets []float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) || l == "le" {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || f.help != help || !equalStrings(f.labels, labels) || !equalFloats(f.buckets, buckets) {
			panic(fmt.Sprintf("obs: conflicting re-registration of %q", name))
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     kind,
		labels:   append([]string(nil), labels...),
		buckets:  append([]float64(nil), buckets...),
		children: make(map[string]any),
	}
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// child resolves or creates the instrument for the given label values.
func (f *family) child(values []string, make func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	sig := signature(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[sig]; ok {
		return c
	}
	c := make()
	f.children[sig] = c
	f.order = append(f.order, sig)
	return c
}

// signature joins label values into a map key; 0xff cannot appear in UTF-8
// text, so the join is unambiguous.
func signature(values []string) string {
	switch len(values) {
	case 0:
		return ""
	case 1:
		return values[0]
	}
	n := 0
	for _, v := range values {
		n += len(v) + 1
	}
	b := make([]byte, 0, n)
	for i, v := range values {
		if i > 0 {
			b = append(b, 0xff)
		}
		b = append(b, v...)
	}
	return string(b)
}

// Counter is a monotonically increasing value. The zero Counter is ready
// to use, but counters should normally come from a Registry so they
// export.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (negative to subtract).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution. Buckets are upper bounds in
// ascending order; an implicit +Inf bucket catches the rest. Observe is
// lock-free: a binary search over the bounds plus three atomic adds.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// CounterVec is a counter family with labels; resolve the per-label-value
// counter once with With and increment it on the hot path.
type CounterVec struct{ f *family }

// With returns the counter at the given label values (in registered
// order), creating it on first use.
func (v CounterVec) With(values ...string) *Counter {
	return v.f.child(values, func() any { return new(Counter) }).(*Counter)
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// With returns the gauge at the given label values, creating it on first
// use.
func (v GaugeVec) With(values ...string) *Gauge {
	return v.f.child(values, func() any { return new(Gauge) }).(*Gauge)
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// With returns the histogram at the given label values, creating it on
// first use.
func (v HistogramVec) With(values ...string) *Histogram {
	f := v.f
	return f.child(values, func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// Counter registers (or resolves) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return CounterVec{r.register(name, help, kindCounter, nil, nil)}.With()
}

// CounterVec registers (or resolves) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) CounterVec {
	return CounterVec{r.register(name, help, kindCounter, labels, nil)}
}

// Gauge registers (or resolves) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return GaugeVec{r.register(name, help, kindGauge, nil, nil)}.With()
}

// GaugeVec registers (or resolves) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) GaugeVec {
	return GaugeVec{r.register(name, help, kindGauge, labels, nil)}
}

// Histogram registers (or resolves) an unlabeled histogram with the given
// bucket upper bounds (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	checkBuckets(name, buckets)
	return HistogramVec{r.register(name, help, kindHistogram, nil, buckets)}.With()
}

// HistogramVec registers (or resolves) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) HistogramVec {
	checkBuckets(name, buckets)
	return HistogramVec{r.register(name, help, kindHistogram, labels, buckets)}
}

func checkBuckets(name string, buckets []float64) {
	if len(buckets) == 0 {
		panic(fmt.Sprintf("obs: histogram %q needs at least one bucket", name))
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets must ascend", name))
		}
	}
	if math.IsInf(buckets[len(buckets)-1], +1) {
		panic(fmt.Sprintf("obs: histogram %q must not list +Inf (it is implicit)", name))
	}
}

// LatencyBuckets is the default latency layout: 100µs to 10s, roughly
// logarithmic — wide enough for both sub-millisecond snapshot reads and
// multi-second planner builds on huge fault sets.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// SizeBuckets is the default size layout for event/batch counts: powers of
// two from 1 to 4096 (the shard layer's maxBatch coalescing cap).
var SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// FamilyNames returns the sorted names of every registered family,
// whether or not it has recorded any samples yet. This is what the
// docs-parity guard compares against docs/METRICS.md.
func (r *Registry) FamilyNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.families))
	for name := range r.families {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Value returns the current value of the named metric at the given label
// values (in registered label order): counters and gauges return their
// value, histograms their observation count. ok is false when the family
// or that label combination does not exist.
func (r *Registry) Value(name string, labelValues ...string) (float64, bool) {
	r.mu.Lock()
	f, ok := r.families[name]
	r.mu.Unlock()
	if !ok {
		return 0, false
	}
	f.mu.Lock()
	c, ok := f.children[signature(labelValues)]
	f.mu.Unlock()
	if !ok {
		return 0, false
	}
	switch m := c.(type) {
	case *Counter:
		return float64(m.Value()), true
	case *Gauge:
		return float64(m.Value()), true
	case *Histogram:
		return float64(m.Count()), true
	}
	return 0, false
}
