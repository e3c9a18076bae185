package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// This file is the flight recorder: a bounded in-process store of the
// last N completed request records, queryable while the process runs.
// Metrics aggregate and a response carries no span tree — the recorder
// is the piece that lets an operator go from "the p99 moved"
// to the exact request that moved it: latency-histogram exemplars (see
// Histogram.ObserveExemplar) carry trace IDs, and the recorder resolves
// a trace ID back to the full record — span tree, verdict, cache
// status, wide-event attributes — after the response is long gone.

// RequestRecord is one completed request as the flight recorder retains
// it: identity (TraceID), the request's wide-event attributes, outcome,
// and the query's span tree.
type RequestRecord struct {
	// TraceID is the request's identity — the same ID the X-Trace-Id
	// response header, the traceparent response header, the access log,
	// and histogram exemplars carry. With trace-context propagation on
	// (internal/serve) it is a W3C 32-hex trace ID, honored from the
	// caller's traceparent when one arrived valid.
	TraceID string `json:"trace_id"`
	// SpanID is the server's own 16-hex span ID for this request (the
	// parent-id the response traceparent advertises); ParentSpanID is
	// the caller's span ID when the request carried a valid traceparent.
	SpanID       string `json:"span_id,omitempty"`
	ParentSpanID string `json:"parent_span_id,omitempty"`
	// Route is the registered route pattern (bounded cardinality).
	Route string `json:"route"`
	// Status is the HTTP status code of the response.
	Status int `json:"status"`
	// Start is when the request began.
	Start time.Time `json:"start"`
	// DurationNS is the wall-clock time the request took.
	DurationNS int64 `json:"duration_ns"`
	// Goal, Mode, Verdict, Engine and Cache describe the implication
	// query, when the record is one ("" otherwise). Cache is "hit",
	// "miss", or "" when the answer cache was not consulted.
	Goal    string `json:"goal,omitempty"`
	Mode    string `json:"mode,omitempty"`
	Verdict string `json:"verdict,omitempty"`
	Engine  string `json:"engine,omitempty"`
	Cache   string `json:"cache,omitempty"`
	// Attrs carries any further wide-event annotations.
	Attrs []Attr `json:"attrs,omitempty"`
	// Trace is the query's span tree as core built it (engine dispatch
	// down to chase rounds), nil for requests that ran no engine.
	Trace *Span `json:"trace,omitempty"`
	// DepProfile is the query's per-dependency cost attribution, set when
	// the request asked for profiling.
	DepProfile *DepProfile `json:"dep_profile,omitempty"`

	seq uint64 // recorder-assigned, for newest-first ordering
}

// recorderShards stripes the recorder's mutexes: appends from concurrent
// request goroutines land on different shards and rarely contend.
const recorderShards = 8

// recorderShard is one stripe: a fixed-size ring written round-robin.
type recorderShard struct {
	mu   sync.Mutex
	ring []*RequestRecord // len = shard capacity; nil until written
	next int              // ring position of the next write
}

// Recorder retains the last N completed RequestRecords in a sharded
// ring buffer: Add is O(1) — an atomic sequence fetch plus one shard
// mutex — and eviction is implicit (the ring overwrites its oldest
// slot). A nil *Recorder is a valid "recording off" recorder: Add is a
// no-op, Recent and Get return nothing.
type Recorder struct {
	shards [recorderShards]recorderShard
	seq    atomic.Uint64
	cap    int
}

// NewRecorder creates a Recorder retaining the last n records (rounded
// up to a multiple of the shard count; minimum one record per shard).
// n <= 0 returns nil, the recording-off recorder.
func NewRecorder(n int) *Recorder {
	if n <= 0 {
		return nil
	}
	per := (n + recorderShards - 1) / recorderShards
	r := &Recorder{cap: per * recorderShards}
	for i := range r.shards {
		r.shards[i].ring = make([]*RequestRecord, per)
	}
	return r
}

// Cap returns the number of records the recorder retains (0 when nil).
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return r.cap
}

// Add retains a completed record, evicting the oldest record of its
// shard once the shard's ring is full. The record is retained by
// pointer and must not be mutated after Add.
func (r *Recorder) Add(rec *RequestRecord) {
	if r == nil || rec == nil {
		return
	}
	rec.seq = r.seq.Add(1)
	sh := &r.shards[rec.seq%recorderShards]
	sh.mu.Lock()
	sh.ring[sh.next] = rec
	sh.next = (sh.next + 1) % len(sh.ring)
	sh.mu.Unlock()
}

// Recent returns up to limit retained records, newest first (limit <= 0
// means all retained records).
func (r *Recorder) Recent(limit int) []*RequestRecord {
	if r == nil {
		return nil
	}
	var out []*RequestRecord
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for _, rec := range sh.ring {
			if rec != nil {
				out = append(out, rec)
			}
		}
		sh.mu.Unlock()
	}
	// Newest first: sequence numbers are globally monotone.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].seq > out[j-1].seq; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// Get resolves a trace ID to its retained record, or nil when the
// record was never retained or has been evicted. This is the exemplar
// round trip: a histogram bucket's exemplar trace ID resolves here to
// the full span tree of the request that landed in that bucket.
func (r *Recorder) Get(traceID string) *RequestRecord {
	if r == nil {
		return nil
	}
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for _, rec := range sh.ring {
			if rec != nil && rec.TraceID == traceID {
				sh.mu.Unlock()
				return rec
			}
		}
		sh.mu.Unlock()
	}
	return nil
}
