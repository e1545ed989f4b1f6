// Package telemetry is the repo's unified observability layer: a
// zero-dependency metrics registry (atomic counters, gauges and
// fixed-bucket histograms with an allocation-free hot path) rendered as
// Prometheus text exposition, slog-based structured-logging helpers, build
// information for -version flags and health payloads, and a Chrome
// trace-event writer that turns a simulation's kernel event stream into a
// Perfetto-loadable trace.
//
// Every subsystem that already had signals — the storesrv admission queue,
// storeclnt's retry/breaker counters, the scenario scheduler —
// registers its instruments here, so one /v1/metrics scrape (or one trace
// file) sees the whole system. The paper's thesis is that applications
// should be observable and predictable; this package is where the repro
// itself becomes observable.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Instrument types, used for TYPE lines and registration conflict checks.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// maxLabels bounds a family's label arity; series keys are fixed-size
// arrays so hot-path lookups never allocate.
const maxLabels = 4

// labelKey is a comparable series key. Fixed-size so With() can build one
// on the stack from variadic values without allocating.
type labelKey [maxLabels]string

// Registry holds metric families and renders them as Prometheus text
// exposition. The zero value is unusable; construct with NewRegistry.
// Registration is idempotent: registering an existing name with the same
// type and labels returns the existing family (so several clients can
// share one registry), while a conflicting re-registration panics —
// instrument names are program constants, and a clash is a programming
// error, not a runtime condition.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// family is one named metric with zero or more labeled series.
type family struct {
	name   string
	help   string
	typ    string
	labels []string
	upper  []float64 // histogram bucket upper bounds (histograms only)

	mu     sync.RWMutex
	series map[labelKey]any // *Counter, *Gauge, *Histogram, or func() float64
	order  []labelKey       // first-With order; exposition sorts a copy
}

// register returns the named family, creating it on first use and
// panicking on a type/label/bucket mismatch with an earlier registration.
func (r *Registry) register(name, help, typ string, labels []string, upper []float64) *family {
	if name == "" {
		panic("telemetry: empty metric name")
	}
	if len(labels) > maxLabels {
		panic(fmt.Sprintf("telemetry: %s: %d labels exceeds the maximum %d", name, len(labels), maxLabels))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{
			name:   name,
			help:   help,
			typ:    typ,
			labels: append([]string(nil), labels...),
			upper:  append([]float64(nil), upper...),
			series: map[labelKey]any{},
		}
		r.families[name] = f
		return f
	}
	if f.typ != typ || len(f.labels) != len(labels) {
		panic(fmt.Sprintf("telemetry: %s re-registered as %s(%v), was %s(%v)", name, typ, labels, f.typ, f.labels))
	}
	for i := range labels {
		if f.labels[i] != labels[i] {
			panic(fmt.Sprintf("telemetry: %s re-registered with labels %v, was %v", name, labels, f.labels))
		}
	}
	if typ == typeHistogram {
		if len(f.upper) != len(upper) {
			panic(fmt.Sprintf("telemetry: %s re-registered with %d buckets, was %d", name, len(upper), len(f.upper)))
		}
		for i := range upper {
			if f.upper[i] != upper[i] {
				panic(fmt.Sprintf("telemetry: %s re-registered with buckets %v, was %v", name, upper, f.upper))
			}
		}
	}
	return f
}

// at returns the series for key, creating it with mk on first use.
func (f *family) at(key labelKey, mk func() any) any {
	f.mu.RLock()
	s, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok = f.series[key]; ok {
		return s
	}
	s = mk()
	f.series[key] = s
	f.order = append(f.order, key)
	return s
}

// key builds a series key from label values, enforcing arity.
func (f *family) key(values []string) labelKey {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: %s: %d label values for %d labels", f.name, len(values), len(f.labels)))
	}
	var k labelKey
	copy(k[:], values)
	return k
}

// Counter is a monotonically increasing count. All methods are atomic and
// allocation-free.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n < 0 panics: counters only go up).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("telemetry: counter decremented")
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down. All methods are atomic and
// allocation-free; the value is a float64 stored as bits.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the value by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets. Observe is atomic and
// allocation-free: a linear scan over the (small, sorted) upper bounds, one
// atomic add, and a CAS loop for the running sum. Buckets are cumulative in
// exposition only; internally each slot counts its own interval.
type Histogram struct {
	upper  []float64 // sorted upper bounds; +Inf is implicit as the last slot
	counts []atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

// DefBuckets are the default latency buckets, in seconds — the classic
// Prometheus spread from 5ms to 10s.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

func newHistogram(upper []float64) *Histogram {
	for i := 1; i < len(upper); i++ {
		if upper[i] <= upper[i-1] {
			panic(fmt.Sprintf("telemetry: histogram buckets not strictly increasing at %v", upper[i]))
		}
	}
	return &Histogram{upper: upper, counts: make([]atomic.Int64, len(upper)+1)}
}

// Observe records v. Values equal to an upper bound land in that bucket
// (le is inclusive); values above every bound land in the implicit +Inf
// bucket.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// snapshot returns cumulative bucket counts (one per upper bound plus
// +Inf), the total count, and the sum, reading each slot once.
func (h *Histogram) snapshot() (cum []int64, count int64, sum float64) {
	cum = make([]int64, len(h.counts))
	var run int64
	for i := range h.counts {
		run += h.counts[i].Load()
		cum[i] = run
	}
	return cum, run, h.Sum()
}

// Counter registers (or finds) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, typeCounter, nil, nil)
	return f.at(labelKey{}, func() any { return &Counter{} }).(*Counter)
}

// Gauge registers (or finds) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, typeGauge, nil, nil)
	return f.at(labelKey{}, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeFunc registers a gauge whose value is read from fn at exposition
// time — the natural fit for values another subsystem already tracks
// (in-flight requests, queue depths, cache sizes). Re-registering keeps
// the first function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, typeGauge, nil, nil)
	f.at(labelKey{}, func() any { return fn })
}

// Histogram registers (or finds) an unlabeled fixed-bucket histogram.
// upper must be strictly increasing; +Inf is implicit. Nil uses DefBuckets.
func (r *Registry) Histogram(name, help string, upper []float64) *Histogram {
	if upper == nil {
		upper = DefBuckets
	}
	f := r.register(name, help, typeHistogram, nil, upper)
	return f.at(labelKey{}, func() any { return newHistogram(f.upper) }).(*Histogram)
}

// CounterVec is a counter family partitioned by labels.
type CounterVec struct{ f *family }

// CounterVec registers (or finds) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, typeCounter, labels, nil)}
}

// With returns the counter for the given label values (created on first
// use). Callers on hot paths should cache the returned instrument.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.at(v.f.key(values), func() any { return &Counter{} }).(*Counter)
}

// GaugeVec is a gauge family partitioned by labels.
type GaugeVec struct{ f *family }

// GaugeVec registers (or finds) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, typeGauge, labels, nil)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.at(v.f.key(values), func() any { return &Gauge{} }).(*Gauge)
}

// HistogramVec is a histogram family partitioned by labels; every series
// shares the family's buckets.
type HistogramVec struct{ f *family }

// HistogramVec registers (or finds) a labeled histogram family. Nil
// buckets use DefBuckets.
func (r *Registry) HistogramVec(name, help string, upper []float64, labels ...string) *HistogramVec {
	if upper == nil {
		upper = DefBuckets
	}
	return &HistogramVec{r.register(name, help, typeHistogram, labels, upper)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.at(v.f.key(values), func() any { return newHistogram(v.f.upper) }).(*Histogram)
}

// names returns the registered family names, sorted.
func (r *Registry) names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.families))
	for name := range r.families {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
