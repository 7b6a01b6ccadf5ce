// Package obs is the observability substrate: an allocation-free metrics
// core (atomic counters, gauges, and fixed-bucket histograms with
// snapshot-on-read) plus a structured, leveled, buffer-backed event log.
//
// The metrics side is built for the engine hot path: Counter.Add,
// Gauge.Set and Histogram.Observe are single atomic operations (the
// histogram adds a bounded bucket scan) and allocate nothing, so
// instrumentation can ride inside loops that are pinned by per-goal
// allocation budgets. Metric values are registered once — typically in
// package-level vars — against a Registry and exposed on demand in
// Prometheus text format (WriteProm); reading is snapshot-on-read, so
// exposition never blocks a writer.
//
// The event log (Logger) is off by default everywhere: a nil *Logger is
// a valid, silent logger, so instrumented code logs unconditionally and
// pays one nil check when logging is disabled. Lines are key=value
// pairs built into a reusable buffer with strconv's append functions, one
// Write per event.
//
// The package is dependency-free by design so every layer
// (engine, sweep, cache, coordinator, worker) can use it.
package obs

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; Add and Inc are allocation-free and safe for
// concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must not be negative; counters only go up).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic float64 that can go up and down. The zero value is
// ready to use; Set is allocation-free and safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// DefBuckets are the default latency buckets in seconds, spanning the
// sub-millisecond chunk flushes of a local sweep through multi-minute
// distributed shards.
var DefBuckets = []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120}

// SizeBuckets are default buckets for size-shaped observations (trials
// per chunk, messages per batch): powers of four from 1 to 16384.
var SizeBuckets = []float64{1, 4, 16, 64, 256, 1024, 4096, 16384}

// Histogram counts observations into a fixed set of buckets. Bounds are
// upper bounds in ascending order; an implicit +Inf bucket catches the
// rest. Observe is allocation-free (one bounded scan plus two atomic
// ops) and safe for concurrent use; reading is snapshot-on-read via
// Snapshot, so exposition never blocks observers.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is +Inf
	sum    atomic.Uint64  // float64 bits, CAS-updated
}

// NewHistogram builds a histogram over the given ascending upper bounds;
// nil means DefBuckets. Histograms are normally created through
// Registry.Histogram so they are registered for exposition.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending: %v", bounds))
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
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

// HistSnapshot is a point-in-time copy of a histogram's state.
type HistSnapshot struct {
	Bounds []float64 // upper bounds, ascending (no +Inf entry)
	Counts []int64   // per-bucket counts, len(Bounds)+1 (last is +Inf)
	Sum    float64
	Count  int64
}

// Snapshot copies the histogram's current state. Buckets are read
// individually, so a snapshot taken during concurrent observation is a
// consistent-enough view for monitoring (each bucket exact, totals
// within the in-flight window), never a torn float.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Bounds: h.bounds, Counts: make([]int64, len(h.counts))}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.Sum = math.Float64frombits(h.sum.Load())
	return s
}

// metricKind discriminates what a family holds.
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
	default:
		return "histogram"
	}
}

// family is one named metric family: either a single unlabeled metric or
// a set of children keyed by one label's value.
type family struct {
	name  string
	help  string
	kind  metricKind
	label string // "" for unlabeled families

	metric any // *Counter, *Gauge or *Histogram when label == ""

	mu       sync.Mutex     // guards children
	children map[string]any // label value -> metric, when label != ""
}

// Registry holds named metric families for exposition. Registration is
// idempotent: asking for an existing name with the same shape returns
// the existing metric, and conflicting re-registration panics (metric
// names are package-level constants, so a conflict is a programming
// error, not input).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{families: make(map[string]*family)} }

// defaultRegistry is the process-wide registry package-level metrics
// register against and /metrics endpoints expose.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// register resolves or creates the named family, enforcing shape
// agreement.
func (r *Registry) register(name, help string, kind metricKind, label string) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	if label != "" && !validName(label) {
		panic(fmt.Sprintf("obs: invalid label name %q", label))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || f.label != label {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s{%s}, was %s{%s}",
				name, kind, label, f.kind, f.label))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, label: label}
	if label != "" {
		f.children = make(map[string]any)
	}
	r.families[name] = f
	return f
}

// validName reports whether s is a legal Prometheus metric/label name.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Counter registers (or returns the existing) unlabeled counter family.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, kindCounter, "")
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.metric == nil {
		f.metric = &Counter{}
	}
	return f.metric.(*Counter)
}

// Gauge registers (or returns the existing) unlabeled gauge family.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, kindGauge, "")
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.metric == nil {
		f.metric = &Gauge{}
	}
	return f.metric.(*Gauge)
}

// Histogram registers (or returns the existing) unlabeled histogram
// family over the given bounds (nil means DefBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	f := r.register(name, help, kindHistogram, "")
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.metric == nil {
		f.metric = NewHistogram(bounds)
	}
	return f.metric.(*Histogram)
}

// CounterVec is a counter family keyed by one label.
type CounterVec struct{ f *family }

// CounterVec registers (or returns the existing) counter family labeled
// by the given label name.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	return &CounterVec{f: r.register(name, help, kindCounter, label)}
}

// With returns the counter for one label value, creating it on first
// use. The lookup is a mutex-guarded map hit: cheap enough for
// per-scenario and per-request call sites, deliberately not for
// per-round ones (hot loops hold the returned *Counter instead).
func (v *CounterVec) With(value string) *Counter {
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	c, ok := v.f.children[value]
	if !ok {
		c = &Counter{}
		v.f.children[value] = c
	}
	return c.(*Counter)
}

// HistogramVec is a histogram family keyed by one label. Children share
// the family's bucket bounds, so the exposition stays comparable across
// label values.
type HistogramVec struct {
	f      *family
	bounds []float64
}

// HistogramVec registers (or returns the existing) histogram family
// labeled by the given label name, over the given bounds (nil means
// DefBuckets).
func (r *Registry) HistogramVec(name, help string, bounds []float64, label string) *HistogramVec {
	return &HistogramVec{f: r.register(name, help, kindHistogram, label), bounds: bounds}
}

// With returns the histogram for one label value, creating it on first
// use. Like CounterVec.With, the lookup is a mutex-guarded map hit:
// call sites that observe in a loop hold the returned *Histogram.
func (v *HistogramVec) With(value string) *Histogram {
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	h, ok := v.f.children[value]
	if !ok {
		h = NewHistogram(v.bounds)
		v.f.children[value] = h
	}
	return h.(*Histogram)
}

// GaugeVec is a gauge family keyed by one label.
type GaugeVec struct{ f *family }

// GaugeVec registers (or returns the existing) gauge family labeled by
// the given label name.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, kindGauge, label)}
}

// With returns the gauge for one label value, creating it on first use.
func (v *GaugeVec) With(value string) *Gauge {
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	g, ok := v.f.children[value]
	if !ok {
		g = &Gauge{}
		v.f.children[value] = g
	}
	return g.(*Gauge)
}
