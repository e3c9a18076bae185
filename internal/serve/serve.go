// Package serve is the HTTP layer of depserve, the resident implication
// service: a JSON API over internal/core plus the live observability the
// engines deserve — the decision procedures served here are exactly the
// ones the paper proves can blow up (PSPACE-hard IND implication,
// divergent FD+IND chases), so every request runs under a deadline, is
// tagged with a request ID, and is measured into a shared obs registry
// that GET /metrics exposes in the Prometheus text format while the
// process runs; slow, failed and sampled requests are logged as
// structured JSON.
//
// Endpoints:
//
//	POST /v1/implies    implication query (schema + Σ + goal, one .dep
//	                    scheme or dependency per entry), answered by
//	                    the strongest exact engine; 503 with partial
//	                    stats on deadline
//	POST /v1/explain    implication query answered with its evidence: a
//	                    formal ind/fd proof, the chase's provenance
//	                    derivation DAG, or a counterexample
//	POST /v1/satisfies  satisfaction check of concrete tuples against Σ
//	POST /v1/batch      up to max-batch goals against one inline or
//	                    registered Σ, answered with one shared setup;
//	                    per-goal answers carry cache and timing fields
//	PUT  /v1/schemas/{name}   register a named (schema, Σ) set, compiled
//	                    once (parse, canonical Σ, component indexes);
//	                    re-PUT bumps the version and evicts only the
//	                    cached answers tagged with a changed member
//	GET  /v1/schemas          list registered schemas
//	GET  /v1/schemas/{name}   current version's schema and Σ
//	DELETE /v1/schemas/{name} remove (version numbers never reused)
//	POST /v1/schemas/{name}/algebra  union/intersect/minimal-cover over
//	                    registered Σ sets
//	GET  /metrics       Prometheus text exposition of the registry
//	GET  /healthz       liveness (always 200 once the mux is up; JSON
//	                    body with uptime and build identity)
//	GET  /readyz        readiness (503 until SetReady(true))
//	GET  /debug/obs     full obs.Snapshot as JSON (counters, gauges,
//	                    histograms; span trees are at /debug/traces)
//	GET  /debug/otlp    the same telemetry as one OTLP/JSON document
//	                    (resourceSpans from the flight recorder,
//	                    resourceMetrics from the registry)
//	GET  /debug/traces  the flight recorder: last N completed requests
//	                    (span trees, verdicts, cache status), newest
//	                    first; /debug/traces/{id} resolves one trace ID —
//	                    the ID every response's X-Trace-Id header and
//	                    every latency-histogram exemplar carries
//	GET  /debug/digests query-digest analytics: per query shape (the
//	                    canonical fingerprint) the call count, latency
//	                    histogram, error and cache-hit rates, and the
//	                    merged per-dependency cost profile, sorted by
//	                    total engine time
//	GET  /debug/timeseries  retained telemetry history from the tsdb
//	                    ring (per-tick counter deltas, gauge values and
//	                    histogram quantiles; ?since= ?step= ?match=)
//	GET  /debug/alerts  the watchdog: rules, active alerts, and the
//	                    bounded fire/resolve event log
//	GET  /debug/pprof/  net/http/pprof profiles and execution traces
//
// Request fields are parsed in place, entry by entry, with
// parser.ParseScheme and parser.ParseDependency (the .dep grammar's
// per-line forms); no handler builds a .dep document, and errors name
// their entry ("sigma[1]: …").
//
// While the answer cache is on, a schema and Σ sent as request fields
// are compiled once: a bounded LRU memo (compile.go) maps the schema
// and sigma fields, as the raw JSON bytes the body carried, to the
// compiled system, so a repeat inline request or a re-PUT of a
// registered text skips decoding the fields, the parse and the compile.
// Goals are still parsed and validated on every request, each once, and
// each goal's text is rendered once for the response, the cache key,
// the digest and the proof. Only a request the flight recorder keeps
// builds a span tree. Every chase, inline or registered, draws its
// engine from one pool.
//
// Every request is stamped with W3C trace context: a valid incoming
// traceparent's trace ID is honored (so depserve's spans land in the
// caller's trace), otherwise one is minted; the response carries
// traceparent, an echoed tracestate, and the legacy X-Trace-Id. Every
// error response, including the mux's own 404/405s, is the JSON
// envelope {"error": "..."}.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"indfd/internal/chase"
	"indfd/internal/core"
	"indfd/internal/data"
	"indfd/internal/deps"
	"indfd/internal/obs"
	"indfd/internal/obs/tsdb"
	"indfd/internal/parser"
	"indfd/internal/registry"
	"indfd/internal/schema"
)

// Config parameterizes a Server. The zero value of every field has a
// usable default except Reg, which must be non-nil (a metrics-less
// server would defeat the point).
type Config struct {
	// Reg is the shared registry every request's engine work lands in;
	// /metrics and /debug/obs expose it. It holds instruments only: each
	// query's span tree goes to the flight recorder with its request.
	Reg *obs.Registry
	// Logger receives the access log — a line for every slow or failed
	// request and for one in 64 of the rest (see instrument) — and the
	// server's own errors. Defaults to JSON on stderr.
	Logger *slog.Logger
	// DefaultDeadline bounds a request that does not set timeout_ms
	// (default 10s).
	DefaultDeadline time.Duration
	// MaxDeadline caps the per-request timeout_ms (default 60s).
	MaxDeadline time.Duration
	// SlowQuery is the latency above which a request is logged at Warn
	// level and counted in http.slow_requests (default 500ms).
	SlowQuery time.Duration
	// ChaseBudget is the default chase tuple budget when a request does
	// not set one (0 = the chase package's default).
	ChaseBudget int
	// SearchFallback enables the bounded counterexample search for
	// inconclusive chases on every request; a request can only turn it on.
	SearchFallback bool
	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64
	// CacheSize bounds the answer cache (entries); 0 disables caching,
	// including the compiled-system memo (compile.go), which is on
	// exactly when the answer cache is.
	// Implication answers are pure functions of the request, so a hit is
	// exact, not stale — but only complete answers are stored (a
	// deadline-killed 503 is never cached). Responses carry X-Cache:
	// HIT|MISS when the cache is on.
	CacheSize int
	// CacheTTL expires cached answers after this duration (0 = never).
	// Answers cannot go stale; a TTL only bounds memory held by entries
	// that stopped being asked for.
	CacheTTL time.Duration
	// TraceBuffer is how many completed requests the flight recorder
	// retains for /debug/traces (default 128; negative disables
	// recording).
	TraceBuffer int
	// DigestSize bounds the query-digest store serving /debug/digests:
	// the number of distinct query fingerprints whose workload statistics
	// are retained, admitted by space-saving replacement (default 256;
	// negative disables digests).
	DigestSize int
	// Exporter, when non-nil, receives every completed (non-probe)
	// request record for OTLP export (see obs.NewExporter; depserve
	// builds one from -otlp-file / -otlp-endpoint). The hand-off is one
	// non-blocking channel send: a slow collector drops records (counted
	// in obs.export_dropped), never delays a response.
	Exporter *obs.Exporter
	// MaxBatch caps the number of goals in one POST /v1/batch body
	// (default 256).
	MaxBatch int
	// BatchFanout is not read: a batch answers its goals in order, on
	// the request's goroutine.
	//
	// Deprecated: depbench's in-process replay still sets it; it goes
	// with that replay.
	BatchFanout int
	// TSDB, when non-nil, serves GET /debug/timeseries: the in-process
	// time-series history the depserve sampler loop feeds (see
	// internal/obs/tsdb). The server only reads it; the caller owns the
	// sampling ticker.
	TSDB *tsdb.Store
	// Watchdog, when non-nil, serves GET /debug/alerts and degrades
	// /readyz while critical alerts fire. The caller owns its
	// evaluation ticker (alongside the TSDB sampler).
	Watchdog *tsdb.Watchdog
}

// Server answers implication traffic over HTTP. Create with New; the
// instrumented handler comes from Handler.
type Server struct {
	cfg     Config
	reg     *obs.Registry
	log     *slog.Logger
	handler http.Handler
	ready   atomic.Bool
	nextID  atomic.Uint64
	idBase  string
	started time.Time
	cache   *core.AnswerCache
	memo    *compileMemo
	rec     *obs.Recorder
	exp     *obs.Exporter
	dig     *obs.DigestStore
	schemas *registry.Registry
	ts      *tsdb.Store
	wd      *tsdb.Watchdog

	gInFlight     *obs.Gauge
	cSlow         *obs.Counter
	cDeadline     *obs.Counter
	cTraceHonored *obs.Counter
	cTraceMinted  *obs.Counter
	cRequests     *obs.Counter
	cErrors       *obs.Counter
	hLatency      *obs.Histogram
	answers       *counterSet[answerLabels]
	satisfies     *counterSet[bool]   // serve.satisfies{satisfied}
	batch         *counterSet[string] // batch.requests, batch.goals, batch.goal_errors

	// testDelayNS, when positive, sleeps every instrumented request by
	// that many nanoseconds before the handler runs — the latency-fault
	// injector the watchdog integration test flips while traffic flies
	// (an atomic, so flipping it mid-run is race-clean). Never set in
	// production.
	testDelayNS atomic.Int64
}

// New builds a Server. It panics when cfg.Reg is nil — the server
// exists to expose metrics, so an instrumentation-off server is a
// programming error, not a configuration.
func New(cfg Config) *Server {
	if cfg.Reg == nil {
		panic("serve: Config.Reg must be non-nil")
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	if cfg.DefaultDeadline <= 0 {
		cfg.DefaultDeadline = 10 * time.Second
	}
	if cfg.MaxDeadline <= 0 {
		cfg.MaxDeadline = 60 * time.Second
	}
	if cfg.SlowQuery <= 0 {
		cfg.SlowQuery = 500 * time.Millisecond
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.TraceBuffer == 0 {
		cfg.TraceBuffer = 128
	}
	if cfg.DigestSize == 0 {
		cfg.DigestSize = 256
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 256
	}
	s := &Server{
		cfg:           cfg,
		reg:           cfg.Reg,
		log:           cfg.Logger,
		started:       time.Now(),
		gInFlight:     cfg.Reg.Gauge("http.in_flight"),
		cSlow:         cfg.Reg.Counter("http.slow_requests"),
		cDeadline:     cfg.Reg.Counter("serve.deadline_exceeded"),
		cTraceHonored: cfg.Reg.Counter("http.traceparent_honored"),
		cTraceMinted:  cfg.Reg.Counter("http.traceparent_minted"),
		cRequests:     cfg.Reg.Counter("serve.requests_total"),
		cErrors:       cfg.Reg.Counter("serve.errors_total"),
		hLatency:      cfg.Reg.Histogram("serve.http_latency"),
		ts:            cfg.TSDB,
		wd:            cfg.Watchdog,
		cache:         core.NewAnswerCache(cfg.CacheSize, cfg.CacheTTL, cfg.Reg),
		rec:           obs.NewRecorder(cfg.TraceBuffer),
		exp:           cfg.Exporter,
		dig:           obs.NewDigestStore(cfg.DigestSize, cfg.Reg),
		schemas:       registry.New(cfg.Reg),
		answers: newCounterSet(func(k answerLabels) *obs.Counter {
			return cfg.Reg.Counter(obs.MetricName("serve.answers", "engine", k.engine, "verdict", k.verdict))
		}),
		satisfies: newCounterSet(func(ok bool) *obs.Counter {
			return cfg.Reg.Counter(obs.MetricName("serve.satisfies", "satisfied", strconv.FormatBool(ok)))
		}),
		batch: newCounterSet(cfg.Reg.Counter),
	}
	s.idBase = fmt.Sprintf("%x", s.started.UnixNano()&0xfffffff)
	if cfg.CacheSize > 0 {
		s.memo = newCompileMemo(cfg.Reg)
	}

	mux := http.NewServeMux()
	mux.Handle("POST /v1/implies", s.instrument("/v1/implies", s.handleImplies))
	mux.Handle("POST /v1/explain", s.instrument("/v1/explain", s.handleExplain))
	mux.Handle("POST /v1/satisfies", s.instrument("/v1/satisfies", s.handleSatisfies))
	mux.Handle("POST /v1/batch", s.instrument("/v1/batch", s.handleBatch))
	mux.Handle("GET /v1/schemas", s.instrument("/v1/schemas", s.handleSchemaList))
	mux.Handle("PUT /v1/schemas/{name}", s.instrument("/v1/schemas/{name}", s.handleSchemaPut))
	mux.Handle("GET /v1/schemas/{name}", s.instrument("/v1/schemas/{name}", s.handleSchemaGet))
	mux.Handle("DELETE /v1/schemas/{name}", s.instrument("/v1/schemas/{name}", s.handleSchemaDelete))
	mux.Handle("POST /v1/schemas/{name}/algebra", s.instrument("/v1/schemas/{name}/algebra", s.handleSchemaAlgebra))
	mux.Handle("GET /metrics", s.instrument("/metrics", s.handleMetrics))
	mux.Handle("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	mux.Handle("GET /readyz", s.instrument("/readyz", s.handleReadyz))
	// Every JSON /debug endpoint goes through debugJSON (debug.go):
	// Cache-Control: no-store plus an explicit Content-Type charset,
	// uniformly — diagnostic bodies must never come back from a cache.
	mux.Handle("GET /debug/obs", s.instrument("/debug/obs", debugJSON(s.handleObs)))
	mux.Handle("GET /debug/otlp", s.instrument("/debug/otlp", debugJSON(s.handleOTLP)))
	mux.Handle("GET /debug/traces", s.instrument("/debug/traces", debugJSON(s.handleTraces)))
	mux.Handle("GET /debug/traces/{id}", s.instrument("/debug/traces/{id}", debugJSON(s.handleTrace)))
	mux.Handle("GET /debug/digests", s.instrument("/debug/digests", debugJSON(s.handleDigests)))
	mux.Handle("GET /debug/timeseries", s.instrument("/debug/timeseries", debugJSON(s.handleTimeseries)))
	mux.Handle("GET /debug/alerts", s.instrument("/debug/alerts", debugJSON(s.handleAlerts)))
	mux.Handle("GET /debug/pprof/", s.instrument("/debug/pprof", pprof.Index))
	mux.Handle("GET /debug/pprof/cmdline", s.instrument("/debug/pprof", pprof.Cmdline))
	mux.Handle("GET /debug/pprof/profile", s.instrument("/debug/pprof", pprof.Profile))
	mux.Handle("GET /debug/pprof/symbol", s.instrument("/debug/pprof", pprof.Symbol))
	mux.Handle("GET /debug/pprof/trace", s.instrument("/debug/pprof", pprof.Trace))
	mux.Handle("GET /", s.instrument("/", s.handleIndex))
	// The envelope goes outside the mux so the mux's own 404/405
	// responses (unknown paths, wrong methods) come back JSON too.
	s.handler = jsonErrors(mux)
	return s
}

// Handler returns the instrumented mux.
func (s *Server) Handler() http.Handler { return s.handler }

// Recorder returns the server's flight recorder (nil when TraceBuffer
// is negative). depserve hands it to the watchdog so alert transitions
// interleave with request traces at /debug/traces.
func (s *Server) Recorder() *obs.Recorder { return s.rec }

// SetReady flips the /readyz verdict; depserve arms it once the
// listener is bound.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// --- request/response types -------------------------------------------------

// ImpliesRequest is the POST /v1/implies body. Schema entries use the
// .dep scheme form without the "schema " keyword ("R(A, B)"); sigma and
// goal use the .dep dependency forms ("R[A] <= S[B]", "R: A -> B",
// "R[A == B]"), one per entry.
type ImpliesRequest struct {
	Schema []string `json:"schema"`
	Sigma  []string `json:"sigma"`
	// SchemaName answers against a registered schema (PUT /v1/schemas/
	// {name}) instead of an inline one: the entry's compiled system
	// supplies the scheme and Σ, so the request body carries only the
	// goal. Mutually exclusive with Schema/Sigma.
	SchemaName string `json:"schema_name,omitempty"`
	Goal       string `json:"goal"`
	// Finite asks for finite implication (⊨fin) instead of unrestricted.
	Finite bool `json:"finite,omitempty"`
	// Budget overrides the server's chase tuple budget for this query.
	Budget int `json:"budget,omitempty"`
	// Search enables the bounded counterexample-search fallback.
	Search bool `json:"search,omitempty"`
	// TimeoutMS lowers (or raises, up to the server cap) the deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Explain adds the engine's explanation (derivation, cardinality
	// cycle, or counterexample) to the response.
	Explain bool `json:"explain,omitempty"`
	// Provenance makes the chase record provenance and return a
	// derivation DAG on yes verdicts. POST /v1/explain forces both
	// Explain and Provenance on.
	Provenance bool `json:"provenance,omitempty"`
	// IncludeMetrics attaches the metrics of this request's engine work:
	// the engines run on a registry of their own, whose snapshot is
	// returned and then merged into the shared registry.
	IncludeMetrics bool `json:"include_metrics,omitempty"`
	// Profile attributes the engine's work — firings, tuples, scan time —
	// to individual members of sigma and returns the attribution as
	// dep_profile. Like include_metrics it describes this request's
	// engine work, so profiled requests bypass the answer cache.
	Profile bool `json:"profile,omitempty"`
}

// INDStats mirrors ind.Stats with JSON names.
type INDStats struct {
	Expanded     int `json:"expanded"`
	Generated    int `json:"generated"`
	Visited      int `json:"visited"`
	FrontierPeak int `json:"frontier_peak"`
	ChainLength  int `json:"chain_length,omitempty"`
}

// ImpliesResponse is the POST /v1/implies reply. On a 503 deadline the
// verdict is "unknown" and the chase/IND stats hold the partial work
// done before the deadline hit.
type ImpliesResponse struct {
	RequestID      string `json:"request_id"`
	Goal           string `json:"goal,omitempty"`
	Mode           string `json:"mode,omitempty"`
	Verdict        string `json:"verdict,omitempty"`
	Engine         string `json:"engine,omitempty"`
	Proof          string `json:"proof,omitempty"`
	Explanation    string `json:"explanation,omitempty"`
	Counterexample string `json:"counterexample,omitempty"`
	// Derivation is the chase's proof DAG (leaves: seed tuples; internal
	// nodes: FD/IND/RD firings), present on chase yes verdicts when the
	// request asked for provenance.
	Derivation  *chase.Derivation `json:"derivation,omitempty"`
	ChaseRounds int               `json:"chase_rounds,omitempty"`
	ChaseTuples int               `json:"chase_tuples,omitempty"`
	IND         *INDStats         `json:"ind,omitempty"`
	// DepProfile is the per-dependency cost attribution, present when the
	// request set profile and the engine that ran supports it (chase and
	// the IND search). Entries are hottest-first.
	DepProfile *obs.DepProfile `json:"dep_profile,omitempty"`
	ElapsedUS  int64           `json:"elapsed_us"`
	DeadlineMS int64           `json:"deadline_ms,omitempty"`
	Metrics    *obs.Snapshot   `json:"metrics,omitempty"`
	Error      string          `json:"error,omitempty"`
}

// SatisfiesRequest is the POST /v1/satisfies body: a concrete database
// (rows per relation) checked against Σ.
type SatisfiesRequest struct {
	Schema []string              `json:"schema"`
	Sigma  []string              `json:"sigma"`
	Data   map[string][][]string `json:"data"`
}

// SatisfiesResponse is the POST /v1/satisfies reply.
type SatisfiesResponse struct {
	RequestID string `json:"request_id"`
	Satisfied bool   `json:"satisfied"`
	Violated  string `json:"violated,omitempty"`
	ElapsedUS int64  `json:"elapsed_us"`
	Error     string `json:"error,omitempty"`
}

// --- handlers ---------------------------------------------------------------

// impliesWire is how an ImpliesRequest is decoded: its schema and sigma
// fields stay raw JSON, shadowing the embedded []string fields, so the
// compiled-system memo keys on the bytes as sent and decodes them only
// on a miss (decodeEntries).
type impliesWire struct {
	ImpliesRequest
	Schema json.RawMessage `json:"schema"`
	Sigma  json.RawMessage `json:"sigma"`
}

func (s *Server) handleImplies(w http.ResponseWriter, r *http.Request) {
	var req impliesWire
	if !s.decodeBody(w, r, &req) {
		return
	}
	s.answerImplies(w, r, req)
}

// handleExplain is POST /v1/explain: the same request and response
// shapes as /v1/implies, with Explain and Provenance forced on — the
// response always carries the engine's evidence (a formal ind/fd proof,
// the chase's derivation DAG, the unary engine's cardinality cycle, or
// a counterexample) alongside the verdict.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req impliesWire
	if !s.decodeBody(w, r, &req) {
		return
	}
	req.Explain = true
	req.Provenance = true
	s.answerImplies(w, r, req)
}

// prepared is one request's shared setup — the system and the parsed
// goals — paid once and reused by every goal. For /v1/implies that is
// one goal; for /v1/batch it is the whole point: the compiled system
// amortizes across up to MaxBatch goals.
type prepared struct {
	sys   *core.System
	goals []deps.Dependency
	// texts holds each goal's text, rendered once for the response, the
	// cache key, the digest, the proof header and the span tree alike.
	texts []string
	// schemaName and version identify the registry entry when the
	// request referenced one ("" / 0 for inline schemas).
	schemaName string
	version    int64
}

// prepare resolves a request's schema into a ready system and parses
// its goals, each validated against that system's schema. With
// schemaName set the registry entry supplies the compiled system, and
// the inline fields must be absent, null or empty; otherwise the raw
// schema and sigma fields come from the compiled-system memo, or are
// decoded, parsed entry by entry and compiled. Goals are parsed on
// every call (see parseGoals for goalField).
func (s *Server) prepare(schemaName string, schemaRaw, sigmaRaw json.RawMessage, goalField string, goals []string) (*prepared, error) {
	var p prepared
	var key string
	if schemaName != "" {
		schemaLines, err := decodeEntries("schema", schemaRaw)
		if err != nil {
			return nil, err
		}
		sigma, err := decodeEntries("sigma", sigmaRaw)
		if err != nil {
			return nil, err
		}
		if len(schemaLines) > 0 || len(sigma) > 0 {
			return nil, errors.New("schema_name and inline schema/sigma are mutually exclusive")
		}
		e, ok := s.schemas.Get(schemaName)
		if !ok {
			return nil, fmt.Errorf("schema %q is not registered", schemaName)
		}
		p = prepared{sys: e.Sys, schemaName: e.Name, version: e.Version}
	} else {
		sys, k, err := s.memo.compile(schemaRaw, sigmaRaw)
		if err != nil {
			return nil, err
		}
		p.sys, key = sys, k
	}
	parsed, err := parseGoals(p.sys.DB(), goalField, goals)
	if err != nil {
		return nil, err
	}
	// Retained only now that the whole request proved valid: a body that
	// gets a 400 never enters the memo.
	s.memo.put(key, p.sys)
	p.goals = parsed
	p.texts = make([]string, len(parsed))
	for i, d := range parsed {
		p.texts[i] = d.String()
	}
	return &p, nil
}

// decodeEntries decodes a raw schema or sigma field into its entries.
// An absent or null field is none, without calling the decoder; a
// field that is not an array of strings is an error naming it.
func decodeEntries(field string, raw json.RawMessage) ([]string, error) {
	if len(raw) == 0 || string(raw) == "null" {
		return nil, nil
	}
	var entries []string
	if err := json.Unmarshal(raw, &entries); err != nil {
		return nil, fmt.Errorf("%s: %w", field, err)
	}
	return entries, nil
}

// parseGoals parses a request's goals, each validated against the
// scheme it is asked of. goalField names the goals in errors: "goal"
// for a lone goal, "goals" (indexed, "goals[2]") for a batch.
func parseGoals(db *schema.Database, goalField string, goals []string) ([]deps.Dependency, error) {
	out := make([]deps.Dependency, len(goals))
	for i, g := range goals {
		// A goal must be a single FD, IND or RD over the schema it is
		// asked of: the kinds the implication engines decide.
		d, err := parser.ParseDependency(g)
		switch {
		case err != nil:
		case d == nil:
			err = errors.New("missing goal")
		case d.Kind() == deps.KindEMVD:
			err = errors.New("a goal must be a single FD, IND or RD, not an EMVD")
		default:
			err = d.Validate(db)
		}
		if err != nil {
			if goalField == "goals" {
				goalField += "[" + strconv.Itoa(i) + "]"
			}
			return nil, fmt.Errorf("%s: %w", goalField, err)
		}
		out[i] = d
	}
	return out, nil
}

// goal is the i-th goal with its rendered text.
func (p *prepared) goal(i int) core.Goal {
	return core.Goal{Dep: p.goals[i], Text: p.texts[i]}
}

// deadline is a request's engine deadline. Its instant is fixed when the
// request has been prepared; the context that enforces it is built on
// the first goal that misses the cache, so a cache hit starts no timer.
// A batch's later goals share that context: they run in order, on the
// request's goroutine, so building it needs no lock.
type deadline struct {
	parent context.Context
	at     time.Time
	ms     int64 // the resolved timeout, echoed as deadline_ms
	ctx    context.Context
	stop   context.CancelFunc
}

// newDeadline starts a request's deadline now, its length timeout_ms
// resolved against the server's default and cap.
func (s *Server) newDeadline(parent context.Context, timeoutMS int64) deadline {
	var d time.Duration
	switch {
	case timeoutMS <= 0:
		d = min(s.cfg.DefaultDeadline, s.cfg.MaxDeadline)
	case timeoutMS > int64(s.cfg.MaxDeadline/time.Millisecond):
		// Capped before converting: a large timeout_ms would overflow
		// time.Duration into a negative deadline.
		d = s.cfg.MaxDeadline
	default:
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	return deadline{parent: parent, at: time.Now().Add(d), ms: d.Milliseconds()}
}

// context returns the context enforcing the deadline, built on first use.
func (d *deadline) context() context.Context {
	if d.ctx == nil {
		d.ctx, d.stop = context.WithDeadline(d.parent, d.at)
	}
	return d.ctx
}

// cancel releases the context's timer, if a goal built one.
func (d *deadline) cancel() {
	if d.stop != nil {
		d.stop()
	}
}

// answerLabels is one serve.answers{engine,verdict} series.
type answerLabels struct{ engine, verdict string }

// answerOptions resolves a request's answer-shaping knobs, the ones
// core.FingerprintOptions renders, against the server's defaults.
func (s *Server) answerOptions(req ImpliesRequest) core.Options {
	budget := req.Budget
	if budget <= 0 {
		budget = s.cfg.ChaseBudget
	}
	return core.Options{
		ChaseMaxTuples: budget,
		SearchFallback: req.Search || s.cfg.SearchFallback,
		Provenance:     req.Provenance,
	}
}

// fingerprintExtras renders a request's answer-shaping knobs into the
// fingerprint extras solveGoal keys its goals with. A request builds
// them once; every goal of a batch shares them.
func (s *Server) fingerprintExtras(req ImpliesRequest) []string {
	explain := "explain=false"
	if req.Explain {
		explain = "explain=true"
	}
	return append(core.FingerprintOptions(s.answerOptions(req)), explain)
}

// solveGoal answers one goal against a prepared system — the single
// engine path behind /v1/implies, /v1/explain and every goal of a
// /v1/batch, so batch answers are byte-identical to per-request ones by
// construction. extras are the request's fingerprintExtras, and dl its
// deadline, whose context only a goal that runs an engine builds. It
// returns the response body, its HTTP status, and the cache disposition
// ("hit", "miss", or "" when the goal bypassed the cache). Each call
// observes its own per-goal digest, so /debug/digests aggregates batch
// traffic per query shape, not per batch envelope. A span tree is built
// only for a goal whose record (rec, nil for batch goals and when
// nothing records requests) will keep it.
func (s *Server) solveGoal(dl *deadline, p *prepared, g core.Goal, req ImpliesRequest, extras []string, requestID string, rec *obs.RequestRecord) (ImpliesResponse, int, string) {
	resp := ImpliesResponse{RequestID: requestID, Goal: g.Text, Mode: "unrestricted", DeadlineMS: dl.ms}
	if req.Finite {
		resp.Mode = "finite"
	}
	if rec != nil {
		rec.Goal = resp.Goal
		rec.Mode = resp.Mode
	}
	opt := s.answerOptions(req)
	opt.Profile = req.Profile
	opt.Obs = s.reg
	opt.NoTrace = rec == nil
	opt.ChasePool = s.schemas.Pool()

	// Answer cache: the answer is a pure function of (schema,
	// Relevant(goal), goal, mode, engine budgets) — core restricts Σ to
	// the goal's IND-connected component before dispatch — so the key
	// binds that component, not all of Σ: editing or registering members
	// outside it leaves every such key warm. Metrics-carrying and
	// profiled requests bypass the cache — their metrics and attributions
	// describe this request's engine work, and a cached answer has none.
	// The fingerprint doubles as the query-digest key (a profile flag is
	// deliberately NOT part of it, so profiled and unprofiled spellings
	// of one query land in one digest), so it is computed whenever
	// either consumer is on.
	var fingerprint string
	cacheable := s.cache != nil && !req.IncludeMetrics && !req.Profile
	cacheStatus := ""
	if cacheable || s.dig != nil {
		fingerprint = p.sys.GoalKey(g, resp.Mode, extras...)
	}
	// Only a registered schema can be edited, so only its answers carry
	// footprint tags for InvalidateMembers, from the chase's capture of
	// the members it touched (cheap: no scan timers, and it never changes
	// the answer). An inline answer's key binds its whole Σ component,
	// which no edit can change: it goes in untagged and skips the capture.
	tagged := cacheable && p.schemaName != ""
	opt.Footprint = tagged
	if cacheable {
		cacheStatus = "miss"
		lookup := time.Now()
		if hit, ok := s.cache.Get(fingerprint); ok {
			fillRendered(&resp, hit.Answer, hit.Counterexample)
			resp.Explanation = hit.Explanation
			resp.ElapsedUS = time.Since(lookup).Microseconds()
			if rec != nil {
				rec.Cache = "hit"
				rec.Verdict = resp.Verdict
				rec.Engine = resp.Engine
			}
			s.dig.Observe(obs.DigestObservation{
				Fingerprint: fingerprint, Query: resp.Goal,
				DurationNS: resp.ElapsedUS * 1e3, CacheHit: true,
			})
			s.answers.get(answerLabels{hit.Answer.Engine, hit.Answer.Verdict.String()}).Inc()
			return resp, http.StatusOK, "hit"
		}
		if rec != nil {
			rec.Cache = "miss"
		}
	}

	opt.Ctx = dl.context()
	if req.IncludeMetrics {
		// A registry of this request's own holds exactly its engine work
		// whatever else the server runs; Merge below adds that work to
		// the shared totals.
		opt.Obs = obs.New()
	}
	start := time.Now()
	var a core.Answer
	var why string
	var err error
	if req.Explain {
		a, why, err = p.sys.ExplainGoal(g, opt, req.Finite)
	} else {
		a, err = p.sys.ImpliesGoal(g, opt, req.Finite)
	}
	resp.ElapsedUS = time.Since(start).Microseconds()
	fillAnswer(&resp, a)
	resp.Explanation = why
	if req.IncludeMetrics {
		resp.Metrics = opt.Obs.Snapshot()
		s.reg.Merge(opt.Obs)
	}
	if rec != nil {
		rec.Verdict = resp.Verdict
		rec.Engine = resp.Engine
		rec.Trace = a.Trace
		rec.DepProfile = a.DepProfile
	}
	observeDigest := func(errOutcome bool) {
		s.dig.Observe(obs.DigestObservation{
			Fingerprint: fingerprint, Query: resp.Goal,
			DurationNS: resp.ElapsedUS * 1e3, Err: errOutcome,
			Profile: a.DepProfile,
		})
	}

	switch {
	case err == nil:
		// Only complete answers enter the cache: budget-killed partials
		// (verdict unknown) and the deadline and error branches below
		// return partial work that must never be replayed
		// to a later client. A registered answer's tags — the members it
		// actually depended on (derivation rules, chase footprint, or all
		// of the relevant scope) — let a registry edit evict exactly the
		// entries it could have changed.
		if cacheable && a.Verdict != core.Unknown {
			var tags []string
			if tagged {
				tags = p.sys.AnswerTags(&a, g.Dep)
			}
			s.cache.PutTagged(fingerprint, core.CachedAnswer{Answer: a, Explanation: why, Counterexample: resp.Counterexample}, tags)
		}
		observeDigest(false)
		s.answers.get(answerLabels{a.Engine, a.Verdict.String()}).Inc()
		return resp, http.StatusOK, cacheStatus
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		// The engines return their partial work with the error; the 503
		// tells the client the instance, not the server, is the problem —
		// the general FD+IND implication problem is undecidable and this
		// instance outran its deadline.
		s.cDeadline.Inc()
		observeDigest(true)
		s.answers.get(answerLabels{a.Engine, "deadline"}).Inc()
		resp.Error = err.Error()
		return resp, http.StatusServiceUnavailable, cacheStatus
	default:
		observeDigest(true)
		resp.Error = err.Error()
		return resp, http.StatusInternalServerError, cacheStatus
	}
}

func (s *Server) answerImplies(w http.ResponseWriter, r *http.Request, req impliesWire) {
	resp := ImpliesResponse{RequestID: RequestID(r.Context())}
	p, err := s.prepare(req.SchemaName, req.Schema, req.Sigma, "goal", []string{req.Goal})
	if err != nil {
		s.badRequest(w, r, resp, err.Error())
		return
	}
	dl := s.newDeadline(r.Context(), req.TimeoutMS)
	defer dl.cancel()
	// The flight-recorder draft (nil when recording is off) gets the
	// query identity and outcome inside solveGoal; the middleware
	// retains it when the response is done.
	resp, status, cacheStatus := s.solveGoal(&dl, p, p.goal(0), req.ImpliesRequest, s.fingerprintExtras(req.ImpliesRequest),
		resp.RequestID, record(r.Context()))
	switch cacheStatus {
	case "hit":
		w.Header()["X-Cache"] = xCacheHit
	case "miss":
		w.Header()["X-Cache"] = xCacheMiss
	}
	s.writeJSON(w, status, resp)
}

func (s *Server) handleSatisfies(w http.ResponseWriter, r *http.Request) {
	var req SatisfiesRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	resp := SatisfiesResponse{RequestID: RequestID(r.Context())}
	scheme, sigma, err := parseSchemaSigma(req.Schema, req.Sigma)
	if err != nil {
		s.badRequestSat(w, resp, err.Error())
		return
	}
	db := data.NewDatabase(scheme)
	for rel, rows := range req.Data {
		for _, row := range rows {
			t := make(data.Tuple, len(row))
			for i, v := range row {
				t[i] = data.Value(v)
			}
			if _, err := db.Insert(rel, t); err != nil {
				s.badRequestSat(w, resp, err.Error())
				return
			}
		}
	}
	start := time.Now()
	ok, bad, err := db.SatisfiesAll(sigma)
	resp.ElapsedUS = time.Since(start).Microseconds()
	if err != nil {
		resp.Error = err.Error()
		s.writeJSON(w, http.StatusInternalServerError, resp)
		return
	}
	resp.Satisfied = ok
	if !ok {
		resp.Violated = bad.String()
	}
	s.satisfies.get(ok).Inc()
	s.writeJSON(w, http.StatusOK, resp)
}

// handleMetrics refreshes the process gauges and writes the registry in
// the Prometheus text format. depserve additionally runs
// obs.StartRuntimeSampler so the gauges move between scrapes too.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	obs.SampleRuntime(s.reg)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.Snapshot().WritePrometheus(w); err != nil {
		s.log.Error("metrics exposition failed", "err", err)
	}
}

// handleTraces is GET /debug/traces: the flight recorder's retained
// records, newest first; ?limit=N bounds the reply. An empty or disabled
// recorder answers "traces": [].
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	limit, ok := s.queryLimit(w, r)
	if !ok {
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"capacity": s.rec.Cap(),
		"traces":   jsonList(s.rec.Recent(limit)),
	})
}

// handleTrace is GET /debug/traces/{id}: one trace ID — the value of a
// response's X-Trace-Id header or of a histogram bucket's exemplar —
// resolved to its full record.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec := s.rec.Get(id)
	if rec == nil {
		s.writeJSON(w, http.StatusNotFound, map[string]string{
			"request_id": RequestID(r.Context()),
			"error":      "trace " + id + " not retained (evicted, never recorded, or recording off)",
		})
		return
	}
	s.writeJSON(w, http.StatusOK, rec)
}

// handleDigests is GET /debug/digests: the query-digest store's
// workload summary — one entry per retained query fingerprint, sorted
// by total engine time (the hottest query shapes first), each with call
// counts, error/cache-hit counts, a log₂ latency histogram and the
// merged per-dependency profile of its profiled runs. ?limit=N bounds
// the reply. An empty or disabled store answers "digests": [].
func (s *Server) handleDigests(w http.ResponseWriter, r *http.Request) {
	limit, ok := s.queryLimit(w, r)
	if !ok {
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"capacity": s.dig.Cap(),
		"digests":  jsonList(s.dig.Snapshot(limit)),
	})
}

func (s *Server) handleObs(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if err := s.reg.Snapshot().WriteJSON(w); err != nil {
		s.log.Error("obs snapshot failed", "err", err)
	}
}

// handleOTLP is GET /debug/otlp: the registry snapshot plus the flight
// recorder's retained requests rendered as one OTLP/JSON document
// (resourceSpans + resourceMetrics), the same encoding the exporter
// ships — curl it into any OTLP-ingesting backend or jq it locally.
func (s *Server) handleOTLP(w http.ResponseWriter, r *http.Request) {
	doc := obs.OTLPExport(s.reg.Snapshot(), s.rec.Recent(0),
		obs.OTLPResourceFor(obs.ServiceName), time.Now())
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if err := doc.WriteOTLP(w); err != nil {
		s.log.Error("otlp exposition failed", "err", err)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": int64(obs.Uptime().Seconds()),
		"build":          obs.Build(),
	})
}

// handleReadyz is readiness plus health: 503 until the listener is
// bound, then "ready" — unless the watchdog has critical alerts
// firing, in which case the body reports "degraded" with the alert
// names and messages. The status stays 200 while degraded: the
// process is still serving (a latency SLO burn is not a reason for an
// orchestrator to kill the pod), but any probe, dashboard, or deptop
// sees the degradation and its cause immediately.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "starting"})
		return
	}
	if names := s.wd.CriticalNames(); len(names) > 0 {
		alerts := s.wd.Active()
		msgs := make([]string, 0, len(alerts))
		for _, a := range alerts {
			if a.State == "firing" && a.Severity == tsdb.SeverityCritical {
				msgs = append(msgs, a.Message)
			}
		}
		s.writeJSON(w, http.StatusOK, map[string]any{
			"status":   "degraded",
			"alerts":   names,
			"messages": msgs,
		})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	io.WriteString(w, `depserve — implication service for FDs and INDs
POST /v1/implies     {"schema":["R(A,B)"],"sigma":["R: A -> B"],"goal":"R: A -> B"}
POST /v1/explain     same body; answers with proof, derivation DAG, or counterexample
POST /v1/satisfies   {"schema":[...],"sigma":[...],"data":{"R":[["a","b"]]}}
POST /v1/batch       {"schema_name":"orders","goals":["R: A -> B", ...]} — many goals, one setup
PUT  /v1/schemas/{name}   {"schema":[...],"sigma":[...]} — register a named Σ, compiled once
GET  /v1/schemas          list; GET/DELETE /v1/schemas/{name} inspect/remove
POST /v1/schemas/{name}/algebra  {"op":"union|intersect|minimal-cover","with":"other"}
GET  /metrics        Prometheus text exposition
GET  /healthz        liveness
GET  /readyz         readiness
GET  /debug/obs      metrics as JSON
GET  /debug/otlp     spans + metrics as one OTLP/JSON document
GET  /debug/traces   flight recorder: last N requests (X-Trace-Id resolves at /debug/traces/{id})
GET  /debug/digests  query digests: hottest query shapes by total engine time
GET  /debug/timeseries  retained telemetry history (?since=5m&step=10s&match=substr)
GET  /debug/alerts   watchdog rules, active alerts, fire/resolve event log
GET  /debug/pprof/   profiles
`) //nolint:errcheck
}

// --- helpers ----------------------------------------------------------------

// parseSchemaSigma parses a request's schema and sigma fields, one
// scheme or dependency per entry (parser.ParseScheme/ParseDependency),
// each dependency validated against the schema. Blank entries are
// skipped, as the .dep reader skips blank lines; an error names its
// entry ("sigma[1]: …").
func parseSchemaSigma(schemaLines, sigma []string) (*schema.Database, []deps.Dependency, error) {
	db := schema.MustDatabase() // empty: cannot fail
	for i, line := range schemaLines {
		sch, err := parser.ParseScheme(line)
		if err == nil && sch != nil {
			err = db.Add(sch)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("schema[%d]: %w", i, err)
		}
	}
	members := make([]deps.Dependency, 0, len(sigma))
	for i, line := range sigma {
		d, err := parser.ParseDependency(line)
		if err == nil && d != nil {
			err = d.Validate(db)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("sigma[%d]: %w", i, err)
		}
		if d != nil {
			members = append(members, d)
		}
	}
	return db, members, nil
}

// fillAnswer copies a core.Answer (possibly partial, on the deadline
// path) into the response, rendering its counterexample.
func fillAnswer(resp *ImpliesResponse, a core.Answer) {
	var counterexample string
	if a.Counterexample != nil {
		counterexample = a.Counterexample.String()
	}
	fillRendered(resp, a, counterexample)
}

// fillRendered is fillAnswer with the counterexample already rendered:
// a cache hit serves the text its miss rendered and stored.
func fillRendered(resp *ImpliesResponse, a core.Answer, counterexample string) {
	resp.Verdict = a.Verdict.String()
	resp.Engine = a.Engine
	resp.Proof = a.Proof
	resp.Counterexample = counterexample
	resp.ChaseRounds = a.ChaseRounds
	resp.ChaseTuples = a.ChaseTuples
	resp.Derivation = a.Derivation
	resp.DepProfile = a.DepProfile
	if st := a.INDStats; st != nil {
		resp.IND = &INDStats{
			Expanded:     st.Expanded,
			Generated:    st.Generated,
			Visited:      st.Visited,
			FrontierPeak: st.FrontierPeak,
			ChainLength:  st.ChainLength,
		}
	}
}

// decodeBody reads a bounded JSON body, rejecting unknown fields so
// typos surface as 400s instead of silently ignored options. The body
// is one JSON value: anything after it but whitespace is a 400 too, not
// a second request ignored.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(into)
	if err == nil {
		if _, next := dec.Token(); next != io.EOF {
			err = errors.New("data after the JSON value")
		}
	}
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, map[string]string{
			"request_id": RequestID(r.Context()),
			"error":      "invalid request body: " + err.Error(),
		})
		return false
	}
	return true
}

func (s *Server) badRequest(w http.ResponseWriter, r *http.Request, resp ImpliesResponse, msg string) {
	resp.Error = msg
	s.writeJSON(w, http.StatusBadRequest, resp)
}

func (s *Server) badRequestSat(w http.ResponseWriter, resp SatisfiesResponse, msg string) {
	resp.Error = msg
	s.writeJSON(w, http.StatusBadRequest, resp)
}

// Constant response header values, assigned under their canonical keys:
// Header.Set would allocate a one-element slice per response. Each has
// length and capacity 1, so a later Add to its key copies it instead of
// writing into the shared array.
var (
	jsonContentType = []string{"application/json; charset=utf-8"}
	xCacheHit       = []string{"HIT"}
	xCacheMiss      = []string{"MISS"}
)

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		s.log.Error("response encoding failed", "err", err)
	}
}
