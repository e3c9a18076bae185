package serve

import (
	"context"
	"maps"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"indfd/internal/obs"
)

// stateKey is the context key under which a request's state travels.
type stateKey struct{}

// requestState is what the middleware resolves about a request before
// its handler runs — the request ID, the W3C trace context, and the
// draft flight-recorder record when the request is recorded — carried
// as the request context's one value. RequestID, TraceID and record
// read it. It holds nothing of the response, so a context that
// outlives its request keeps no writer alive.
type requestState struct {
	id  string
	tc  traceContext
	rec *obs.RequestRecord
}

// stateOf returns the request's state, or nil when the context did not
// pass through the middleware.
func stateOf(ctx context.Context) *requestState {
	st, _ := ctx.Value(stateKey{}).(*requestState)
	return st
}

// RequestID returns the request ID the middleware assigned, or "" when
// the context did not pass through the middleware.
func RequestID(ctx context.Context) string {
	if st := stateOf(ctx); st != nil {
		return st.id
	}
	return ""
}

// record returns the request's draft RequestRecord for the handler to
// enrich (goal, verdict, engine, cache status, span tree), or nil when
// the flight recorder is off or this route is not recorded. The
// middleware finalizes and retains the record after the handler
// returns.
func record(ctx context.Context) *obs.RequestRecord {
	if st := stateOf(ctx); st != nil {
		return st.rec
	}
	return nil
}

// statusWriter captures the status code and body size a handler wrote,
// so the access log and the http.requests counter can label by outcome.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// Flush forwards to the underlying writer so the pprof trace endpoint
// (which streams) keeps working behind the wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// accessLogSample is the access log's sampling period: of the requests
// that are neither slow nor failed, one in accessLogSample gets an Info
// line, marked as standing for that many.
const accessLogSample = 64

// instrument wraps a handler with the per-request observability stack:
// a request ID (assigned, carried in the context, and echoed in the
// X-Request-Id response header), W3C trace context — an incoming valid
// traceparent's trace ID is honored, a malformed or absent one falls
// back to a freshly minted ID, and every response carries `traceparent`
// (with this server's own span ID as parent-id), an echoed
// `tracestate`, and the same trace ID in the legacy X-Trace-Id header —
// the http.in_flight gauge, a per-endpoint latency histogram in
// microseconds with the trace ID as each bucket's exemplar, a
// per-endpoint-and-status request counter, a flight-recorder record
// (see obs.Recorder; the handler enriches the draft via record(ctx))
// that also feeds the OTLP exporter, and a structured access log. The
// log writes a Warn line with a slow_query marker for every request
// that outran Config.SlowQuery and an Info line for every response
// with status 400 or above; of the rest, it writes an Info line for one
// request in accessLogSample — the one whose sequence number (the
// counter in its request ID) is 1 modulo accessLogSample — with a
// sample_rate attribute saying how many requests the line stands for.
// Every request still counts in the metrics, the recorder, the digests
// and the exporter. The trace ID in the record, the exemplars, the
// access log and both response headers is one and the same string, so
// any of them resolves at /debug/traces/{id}.
//
// route is the label the metrics carry; it is the registered pattern,
// not the raw URL path, so label cardinality stays bounded no matter
// what clients request. Liveness probes (/healthz, /readyz) are not
// recorded or exported — at typical probe rates they would evict every
// interesting record — but still carry trace IDs and exemplars. The
// response traceparent's sampled flag says whether the request was
// recorded.
func (s *Server) instrument(route string, h http.HandlerFunc) http.Handler {
	// The instruments are resolved once, not per request: the latency
	// histogram here, each status code's request counter on its first
	// use. The handler's hot path only touches atomics.
	latency := s.reg.Histogram(obs.MetricName("http.latency_us", "path", route))
	requests := newCounterSet(func(code int) *obs.Counter {
		return s.reg.Counter(obs.MetricName("http.requests", "path", route, "code", strconv.Itoa(code)))
	})
	recorded := route != "/healthz" && route != "/readyz" && (s.rec != nil || s.exp != nil)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, seq := s.nextRequestID()
		st := &requestState{id: id, tc: traceContext{spanID: newSpanID()}}
		// Headers are read and written under their canonical keys, which
		// Header.Get and Header.Set would otherwise rebuild per call.
		hdr := w.Header()
		if trace, parent, ok := parseTraceparent(headerValue(r.Header, "Traceparent")); ok {
			st.tc.traceID, st.tc.parentSpanID = trace, parent
			s.cTraceHonored.Inc()
			if state := truncateTracestate(headerValue(r.Header, "Tracestate")); state != "" {
				hdr["Tracestate"] = []string{state}
			}
		} else {
			st.tc.traceID = newTraceID()
			s.cTraceMinted.Inc()
		}
		// One backing array for the three values, capped per key as
		// Header.Clone does, so an Add to one key cannot overwrite the next.
		vals := []string{id, st.tc.traceID, formatTraceparent(st.tc.traceID, st.tc.spanID, recorded)}
		hdr["X-Request-Id"] = vals[0:1:1]
		hdr["X-Trace-Id"] = vals[1:2:2]
		hdr["Traceparent"] = vals[2:3:3]
		if recorded {
			st.rec = &obs.RequestRecord{
				TraceID:      st.tc.traceID,
				SpanID:       st.tc.spanID,
				ParentSpanID: st.tc.parentSpanID,
				Route:        route,
			}
		}
		r = r.WithContext(context.WithValue(r.Context(), stateKey{}, st))

		s.gInFlight.Add(1)
		defer s.gInFlight.Add(-1)

		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		if d := s.testDelayNS.Load(); d > 0 {
			time.Sleep(time.Duration(d)) // test-only latency fault injection
		}
		h(sw, r)
		elapsed := time.Since(start)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}

		latency.ObserveExemplar(elapsed.Microseconds(), st.tc.traceID)
		// The route-agnostic aggregate series feed the tsdb and the
		// watchdog's selector-less SLO clauses: one latency histogram
		// (µs) over every route, a total-request counter, and an error
		// counter. Errors are 5xx only — a client's 400 is not a burn on
		// the server's error budget, but a deadline-killed 503 is.
		s.hLatency.Observe(elapsed.Microseconds())
		s.cRequests.Inc()
		if sw.status >= 500 {
			s.cErrors.Inc()
		}
		requests.get(sw.status).Inc()
		if rec := st.rec; rec != nil {
			rec.Status = sw.status
			rec.Start = start
			rec.DurationNS = elapsed.Nanoseconds()
			s.rec.Add(rec)
			s.exp.Export(rec)
		}

		slow := elapsed >= s.cfg.SlowQuery
		routine := !slow && sw.status < http.StatusBadRequest
		if routine && (seq-1)%accessLogSample != 0 {
			return
		}
		attrs := []any{
			"request_id", id,
			"trace_id", st.tc.traceID,
			"method", r.Method,
			"path", r.URL.Path,
			"route", route,
			"status", sw.status,
			"bytes", sw.bytes,
			"elapsed_us", elapsed.Microseconds(),
			"remote", r.RemoteAddr,
		}
		switch {
		case slow:
			s.cSlow.Inc()
			attrs = append(attrs, "slow_query", true,
				"threshold_ms", s.cfg.SlowQuery.Milliseconds())
			s.log.Warn("request", attrs...)
		case routine:
			s.log.Info("request", append(attrs, "sample_rate", accessLogSample)...)
		default:
			s.log.Info("request", attrs...)
		}
	})
}

// headerValue is Header.Get for a key already in canonical form.
func headerValue(h http.Header, key string) string {
	if v := h[key]; len(v) > 0 {
		return v[0]
	}
	return ""
}

// nextRequestID mints a process-unique request ID: a per-process base
// (start-time derived, so IDs from different depserve runs differ) plus
// a monotone counter, which it also returns as the request's sequence
// number, counting from 1.
func (s *Server) nextRequestID() (string, uint64) {
	var buf, num [32]byte
	seq := s.nextID.Add(1)
	id := append(append(buf[:0], s.idBase...), '-')
	digits := strconv.AppendUint(num[:0], seq, 10)
	for i := len(digits); i < 6; i++ {
		id = append(id, '0') // zero-padded to six digits
	}
	return string(append(id, digits...)), seq
}

// counterSet resolves one labelled counter family once per label key: a
// copy-on-write map behind an atomic pointer, so a repeat key costs one
// atomic load and one map probe, and the registry's mutex is taken only
// the first time a key shows up. Each series is the one resolve names,
// created in the registry on its first use.
type counterSet[K comparable] struct {
	resolve func(K) *obs.Counter
	mu      sync.Mutex // serializes first uses
	m       atomic.Pointer[map[K]*obs.Counter]
}

func newCounterSet[K comparable](resolve func(K) *obs.Counter) *counterSet[K] {
	cs := &counterSet[K]{resolve: resolve}
	cs.m.Store(&map[K]*obs.Counter{})
	return cs
}

// get returns the counter for k, resolving it on first use.
func (cs *counterSet[K]) get(k K) *obs.Counter {
	if c, ok := (*cs.m.Load())[k]; ok {
		return c
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if c, ok := (*cs.m.Load())[k]; ok {
		return c
	}
	next := maps.Clone(*cs.m.Load())
	c := cs.resolve(k)
	next[k] = c
	cs.m.Store(&next)
	return c
}
