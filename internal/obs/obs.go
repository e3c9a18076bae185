// Package obs is the repository's instrumentation layer: a zero-dependency,
// concurrency-safe registry of named counters, gauges and log-scale
// histograms, plus lightweight hierarchical spans (see span.go) and JSON /
// human-text exporters (see export.go).
//
// The engines of this repository spend their time in places the paper
// proves can blow up — the superpolynomial Corollary 3.2 chains, the
// divergent FD+IND chase, the exponential finite-counterexample search —
// and this package is how that work is observed: every engine accepts an
// optional *Registry and publishes what it did under a per-engine
// namespace ("chase.rounds", "ind.expanded", ...).
//
// The design invariant is that instrumentation is FREE when disabled:
// every method is nil-safe, so engines hold possibly-nil *Counter /
// *Gauge / *Histogram / *Span values fetched once per call and touch them
// unconditionally in their hot loops. A nil receiver is a predictable
// branch and allocates nothing (bench_test.go's BenchmarkChaseObs guards
// this).
package obs

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is a named collection of instruments. The zero value is not
// usable; create one with New. A nil *Registry is a valid
// "instrumentation off" registry: every method on it (and on the nil
// instruments it hands out) is a no-op. It keeps no spans: a span tree
// belongs to the caller that started its root (see Registry.StartSpan).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// SetSpanCap does nothing: the registry keeps no spans to bound.
//
// Deprecated: depbench's in-process replay still calls it; it goes
// with that replay.
func (r *Registry) SetSpanCap(int) {}

// New creates an empty Registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Returns nil
// (a no-op counter) when r is nil.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil (a
// no-op gauge) when r is nil.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use. Returns
// nil (a no-op histogram) when r is nil.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing (by convention) atomic count.
// All methods are safe on a nil receiver and for concurrent use.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic level: a value that can move both ways, with a
// high-water-mark helper. All methods are safe on a nil receiver and for
// concurrent use.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// SetMax raises the gauge to v if v exceeds the current value — the
// idiom for high-water marks (frontier sizes, peak tuple counts).
func (g *Gauge) SetMax(v int64) {
	if g != nil {
		storeMax(&g.v, v)
	}
}

// storeMax raises a to v if v exceeds its current value.
func storeMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Add moves the gauge by delta (negative to lower it).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current level (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of log-scale buckets: bucket i holds
// observations v with bits.Len64(v) == i, i.e. 2^(i-1) <= v < 2^i, with
// bucket 0 for v <= 0.
const histBuckets = 65

// Histogram is a log₂-scale histogram of int64 observations: constant
// memory, lock-free updates, and exactly the right resolution for the
// quantities this repository measures (chain lengths, tuple counts,
// frontier sizes), which the paper proves range over many orders of
// magnitude. All methods are safe on a nil receiver and for concurrent
// use.
type Histogram struct {
	count    atomic.Int64
	sum      atomic.Int64
	max      atomic.Int64
	bucket   [histBuckets]atomic.Int64
	exemplar [histBuckets]atomic.Pointer[string]
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.bucket[h.observe(v)].Add(1)
}

// ObserveExemplar records one value and remembers traceID as the
// bucket's exemplar: the identity of the most recent observation that
// landed there, so a slow histogram bucket links directly to a recorded
// trace (see Recorder.Get). The exemplar write is one atomic pointer
// store; plain Observe never touches the exemplar slots, so hot paths
// that have no trace to offer pay nothing for the feature.
func (h *Histogram) ObserveExemplar(v int64, traceID string) {
	if h == nil {
		return
	}
	i := h.observe(v)
	h.bucket[i].Add(1)
	h.exemplar[i].Store(&traceID)
}

// observe updates count/sum/max and returns the bucket index for v.
func (h *Histogram) observe(v int64) int {
	h.count.Add(1)
	h.sum.Add(v)
	storeMax(&h.max, v)
	if v > 0 {
		return bits.Len64(uint64(v))
	}
	return 0
}

// Bucket is one non-empty histogram bucket: Count observations v with
// v <= Le (and v greater than the previous bucket's Le). Exemplar, when
// set, is the trace ID of the most recent ObserveExemplar observation
// that landed in this bucket.
type Bucket struct {
	Le       int64  `json:"le"`
	Count    int64  `json:"count"`
	Exemplar string `json:"exemplar,omitempty"`
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Max     int64    `json:"max"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// snapshot copies the histogram. Concurrent Observes may straddle the
// copy; each bucket is internally consistent.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	for i := range h.bucket {
		n := h.bucket[i].Load()
		if n == 0 {
			continue
		}
		le := int64(0)
		if i > 0 {
			le = int64(1)<<uint(i) - 1
		}
		b := Bucket{Le: le, Count: n}
		if ex := h.exemplar[i].Load(); ex != nil {
			b.Exemplar = *ex
		}
		s.Buckets = append(s.Buckets, b)
	}
	return s
}

// Snapshot is a point-in-time copy of a Registry, the unit the exporters
// work on. It is a plain data structure that round-trips through
// encoding/json.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	// Spans are ended root span trees a caller attaches for its report
	// (the CLIs' -stats and -trace-json). Registry.Snapshot leaves it
	// empty.
	Spans []*Span `json:"spans,omitempty"`
}

// Snapshot copies the registry's current state. Returns nil for a nil
// registry.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Snapshot{}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.snapshot()
		}
	}
	return s
}

// Merge adds src's instruments into r: counters add, gauges take the
// higher of the two levels (every gauge an engine publishes is a
// high-water mark), and histograms add bucket by bucket. A server that runs one request's engines on a
// registry of their own, to report exactly that request's work, merges
// it into the shared registry afterwards so the process totals are the
// same as if the engines had written to it directly. r and src must be
// different registries; a nil r or src is a no-op.
func (r *Registry) Merge(src *Registry) {
	if r == nil || src == nil {
		return
	}
	src.mu.Lock()
	defer src.mu.Unlock()
	for name, c := range src.counters {
		r.Counter(name).Add(c.Value())
	}
	for name, g := range src.gauges {
		r.Gauge(name).SetMax(g.Value())
	}
	for name, h := range src.hists {
		dst := r.Histogram(name)
		dst.count.Add(h.count.Load())
		dst.sum.Add(h.sum.Load())
		storeMax(&dst.max, h.max.Load())
		for i := range h.bucket {
			dst.bucket[i].Add(h.bucket[i].Load())
			if ex := h.exemplar[i].Load(); ex != nil {
				dst.exemplar[i].Store(ex)
			}
		}
	}
}

// sortedKeys returns the map's keys in order (for deterministic reports).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
