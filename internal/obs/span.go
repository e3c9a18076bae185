package obs

import (
	"strconv"
	"sync"
	"time"
)

// Span is one timed node of a hierarchical trace: a named interval of wall
// clock with string attributes and child spans. A core.System.Implies call
// produces one span tree covering engine dispatch, chase rounds, IND
// frontier search, unary closure and search enumeration.
//
// Spans follow the package's nil discipline: StartSpan on a nil *Registry
// or nil *Span returns nil, and every method on a nil *Span is a no-op, so
// callers thread a possibly-nil span without branching.
//
// A Span is shared between the goroutine running it and any goroutine
// snapshotting the registry (a registered span is visible to
// Registry.Snapshot while still running), so every mutable field — end
// time, attributes, children — is guarded by the mutex. Sibling spans
// may be created from concurrent goroutines (depserve's batch workers
// each open one per goal).
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	end      time.Time // zero while running
	attrs    []Attr
	children []*Span
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// StartSpan opens a root span on the registry. The span is registered
// immediately (a snapshot taken before End reports it as still running).
func (r *Registry) StartSpan(name string) *Span {
	if r == nil {
		return nil
	}
	sp := &Span{name: name, start: time.Now()}
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.trimSpansLocked()
	r.mu.Unlock()
	return sp
}

// StartSpan opens a child span under s.
func (s *Span) StartSpan(name string) *Span {
	if s == nil {
		return nil
	}
	child := &Span{name: name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, child)
	s.mu.Unlock()
	return child
}

// End closes the span, fixing its duration. Ending twice keeps the first
// end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// SetAttr annotates the span with a string value.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// SetInt annotates the span with an integer value.
func (s *Span) SetInt(key string, value int64) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.FormatInt(value, 10))
}

// SpanSnapshot is the exportable form of a span subtree. DurationNS is
// wall-clock nanoseconds (up to "now" when the span is still running, in
// which case Running is true).
type SpanSnapshot struct {
	Name       string          `json:"name"`
	DurationNS int64           `json:"duration_ns"`
	Running    bool            `json:"running,omitempty"`
	Attrs      []Attr          `json:"attrs,omitempty"`
	Children   []*SpanSnapshot `json:"children,omitempty"`
}

// Snapshot copies the span subtree. Returns nil for a nil span.
func (s *Span) Snapshot() *SpanSnapshot {
	if s == nil {
		return nil
	}
	out := &SpanSnapshot{Name: s.name}
	s.mu.Lock()
	if s.end.IsZero() {
		out.DurationNS = time.Since(s.start).Nanoseconds()
		out.Running = true
	} else {
		out.DurationNS = s.end.Sub(s.start).Nanoseconds()
	}
	out.Attrs = append([]Attr(nil), s.attrs...)
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		out.Children = append(out.Children, c.Snapshot())
	}
	return out
}
