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

// ridKey is the context key under which the per-request ID travels.
type ridKey struct{}

// RequestID returns the request ID the middleware assigned, or "" when
// the context did not pass through the middleware.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(ridKey{}).(string)
	return id
}

// recKey is the context key under which the draft flight-recorder
// record travels from the middleware into the handler.
type recKey struct{}

// record returns the request's draft RequestRecord for the handler to
// enrich (goal, verdict, engine, cache status, span tree), or nil when
// the flight recorder is off or this route is not recorded. The
// middleware finalizes and retains the record after the handler
// returns.
func record(ctx context.Context) *obs.RequestRecord {
	rec, _ := ctx.Value(recKey{}).(*obs.RequestRecord)
	return rec
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

// instrument wraps a handler with the per-request observability stack:
// a request ID (assigned, stored in the context, and echoed in the
// X-Request-ID response header), W3C trace context — an incoming valid
// traceparent's trace ID is honored, a malformed or absent one falls
// back to a freshly minted ID, and every response carries `traceparent`
// (with this server's own span ID as parent-id), an echoed
// `tracestate`, and the same trace ID in the legacy X-Trace-Id header —
// the http.in_flight gauge, a per-endpoint latency histogram in
// microseconds with the trace ID as each bucket's exemplar, a
// per-endpoint-and-status request counter, a flight-recorder record
// (see obs.Recorder; the handler enriches the draft via record(ctx))
// that also feeds the OTLP exporter, and one structured log record per
// request — at Warn with a slow_query marker when the request outran
// Config.SlowQuery, at Info otherwise. The trace ID in the record, the
// exemplars, the access log and both response headers is one and the
// same string, so any of them resolves at /debug/traces/{id}.
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
		id := s.nextRequestID()
		tc := traceContext{spanID: newSpanID()}
		if trace, parent, ok := parseTraceparent(r.Header.Get("traceparent")); ok {
			tc.traceID, tc.parentSpanID, tc.remote = trace, parent, true
			s.cTraceHonored.Inc()
			if state := truncateTracestate(r.Header.Get("tracestate")); state != "" {
				w.Header().Set("tracestate", state)
			}
		} else {
			tc.traceID = newTraceID()
			s.cTraceMinted.Inc()
		}
		w.Header().Set("X-Request-ID", id)
		w.Header().Set("X-Trace-Id", tc.traceID)
		w.Header().Set("traceparent", formatTraceparent(tc.traceID, tc.spanID, recorded))
		ctx := context.WithValue(r.Context(), ridKey{}, id)
		ctx = context.WithValue(ctx, traceKey{}, tc)
		var rec *obs.RequestRecord
		if recorded {
			rec = &obs.RequestRecord{
				TraceID:      tc.traceID,
				SpanID:       tc.spanID,
				ParentSpanID: tc.parentSpanID,
				Route:        route,
			}
			ctx = context.WithValue(ctx, recKey{}, rec)
		}
		r = r.WithContext(ctx)

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

		latency.ObserveExemplar(elapsed.Microseconds(), tc.traceID)
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
		if rec != nil {
			rec.Status = sw.status
			rec.Start = start
			rec.DurationNS = elapsed.Nanoseconds()
			s.rec.Add(rec)
			s.exp.Export(rec)
		}

		attrs := []any{
			"request_id", id,
			"trace_id", tc.traceID,
			"method", r.Method,
			"path", r.URL.Path,
			"route", route,
			"status", sw.status,
			"bytes", sw.bytes,
			"elapsed_us", elapsed.Microseconds(),
			"remote", r.RemoteAddr,
		}
		if elapsed >= s.cfg.SlowQuery {
			s.cSlow.Inc()
			attrs = append(attrs, "slow_query", true,
				"threshold_ms", s.cfg.SlowQuery.Milliseconds())
			s.log.Warn("request", attrs...)
		} else {
			s.log.Info("request", attrs...)
		}
	})
}

// nextRequestID mints a process-unique request ID: a per-process base
// (start-time derived, so IDs from different depserve runs differ) plus
// a monotone counter.
func (s *Server) nextRequestID() string {
	var buf, num [32]byte
	id := append(append(buf[:0], s.idBase...), '-')
	digits := strconv.AppendUint(num[:0], s.nextID.Add(1), 10)
	for i := len(digits); i < 6; i++ {
		id = append(id, '0') // zero-padded to six digits
	}
	return string(append(id, digits...))
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
