package obs

import (
	"strconv"
	"sync"
	"time"
)

// Span is one timed node of a hierarchical trace: a named interval of wall
// clock with string attributes and child spans. A core.System.Implies call
// produces one span tree covering engine dispatch, chase rounds, IND
// frontier search, unary closure and search enumeration, and returns it
// as core.Answer.Trace.
//
// Spans follow the package's nil discipline: StartSpan on a nil *Registry
// or nil *Span returns nil, and every method on a nil *Span is a no-op, so
// callers thread a possibly-nil span without branching.
//
// A span tree belongs to whoever started its root, and its exported
// fields are its only form: the flight recorder, the OTLP encoder, the
// text report and every JSON reply hold and read the tree as built. The
// mutex orders the writers (sibling spans may be opened from concurrent
// goroutines). Readers take no lock: a tree is read only after its root
// has ended and the tree was handed off through a mutex or a channel
// (the recorder's shard lock, the exporter's queue), and nothing writes
// to it after that.
type Span struct {
	Name string `json:"name"`
	// DurationNS is the wall-clock time from start to End. It stays 0
	// while the span runs, and Running is true until End.
	DurationNS int64   `json:"duration_ns"`
	Running    bool    `json:"running,omitempty"`
	Attrs      []Attr  `json:"attrs,omitempty"`
	Children   []*Span `json:"children,omitempty"`

	start time.Time
	mu    sync.Mutex
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// StartSpan opens a root span. The registry keeps no reference to it:
// the tree is the caller's to hand on or drop. A nil registry returns
// nil, so instrumentation-off callers build no tree.
func (r *Registry) StartSpan(name string) *Span {
	if r == nil {
		return nil
	}
	return &Span{Name: name, Running: true, start: time.Now()}
}

// StartSpan opens a child span under s.
func (s *Span) StartSpan(name string) *Span {
	if s == nil {
		return nil
	}
	child := &Span{Name: name, Running: true, start: time.Now()}
	s.mu.Lock()
	s.Children = append(s.Children, child)
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
	if s.Running {
		s.DurationNS = time.Since(s.start).Nanoseconds()
		s.Running = false
	}
	s.mu.Unlock()
}

// SetAttr annotates the span with a string value.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// SetInt annotates the span with an integer value.
func (s *Span) SetInt(key string, value int64) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.FormatInt(value, 10))
}
