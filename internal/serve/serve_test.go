package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"indfd/internal/obs"
)

// newTestServer builds a Server (plus its registry) with a tight slow
// threshold and a discard logger.
func newTestServer(t *testing.T, cfg Config) (*Server, *obs.Registry, *httptest.Server) {
	t.Helper()
	reg := obs.New()
	cfg.Reg = reg
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewJSONHandler(io.Discard, nil))
	}
	s := New(cfg)
	s.SetReady(true)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, reg, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, b
}

const fastImplies = `{
	"schema": ["MGR(NAME, DEPT)", "EMP(NAME, DEPT, SAL)"],
	"sigma": ["MGR[NAME,DEPT] <= EMP[NAME,DEPT]"],
	"goal": "MGR[NAME] <= EMP[NAME]"
}`

const divergentImplies = `{
	"schema": ["R(A, B, C)"],
	"sigma": ["R[A,B] <= R[B,C]", "R: A, B -> C"],
	"goal": "R: A -> C",
	"budget": 1000000,
	"timeout_ms": 50
}`

func TestImpliesFast(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/implies", fastImplies)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200; body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Request-ID") == "" {
		t.Errorf("missing X-Request-ID header")
	}
	var out ImpliesResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, body)
	}
	if out.Verdict != "yes" || out.Engine != "ind" {
		t.Errorf("verdict/engine = %q/%q, want yes/ind", out.Verdict, out.Engine)
	}
	if out.Proof == "" {
		t.Errorf("expected an IND1-IND3 proof")
	}
	if out.RequestID == "" {
		t.Errorf("missing request_id in body")
	}
	if out.IND == nil || out.IND.ChainLength == 0 {
		t.Errorf("expected IND stats with a chain, got %+v", out.IND)
	}
}

// TestImpliesDeadline drives the divergent FD+IND instance with a 50ms
// deadline and wants the 503-with-partial-stats contract: verdict
// unknown, engine chase, nonzero rounds/tuples, and the context error.
func TestImpliesDeadline(t *testing.T) {
	_, reg, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/implies", divergentImplies)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503; body %s", resp.StatusCode, body)
	}
	var out ImpliesResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, body)
	}
	if out.Verdict != "unknown" || out.Engine != "chase" {
		t.Errorf("verdict/engine = %q/%q, want unknown/chase", out.Verdict, out.Engine)
	}
	if out.ChaseRounds == 0 || out.ChaseTuples == 0 {
		t.Errorf("expected partial chase stats, got rounds=%d tuples=%d",
			out.ChaseRounds, out.ChaseTuples)
	}
	if !strings.Contains(out.Error, "deadline") {
		t.Errorf("error = %q, want a deadline error", out.Error)
	}
	if n := reg.Counter("serve.deadline_exceeded").Value(); n != 1 {
		t.Errorf("serve.deadline_exceeded = %d, want 1", n)
	}
}

func TestImpliesFiniteAndExplain(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	// The Theorem 4.4 gap instance: under finite implication the unary
	// cycle rule derives the converse IND.
	req := `{
		"schema": ["R(A, B)"],
		"sigma": ["R[A] <= R[B]", "R: A -> B"],
		"goal": "R[B] <= R[A]",
		"finite": true,
		"explain": true
	}`
	resp, body := postJSON(t, ts.URL+"/v1/implies", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d; body %s", resp.StatusCode, body)
	}
	var out ImpliesResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if out.Verdict != "yes" || out.Engine != "unary" || out.Mode != "finite" {
		t.Errorf("got verdict=%q engine=%q mode=%q, want yes/unary/finite",
			out.Verdict, out.Engine, out.Mode)
	}
	if out.Explanation == "" {
		t.Errorf("explain=true returned no explanation")
	}
}

func TestImpliesIncludeMetrics(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	req := strings.Replace(fastImplies, "\n}", ",\n\t\"include_metrics\": true\n}", 1)
	resp, body := postJSON(t, ts.URL+"/v1/implies", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d; body %s", resp.StatusCode, body)
	}
	var out ImpliesResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if out.Metrics == nil {
		t.Fatalf("include_metrics=true returned no metrics")
	}
	if out.Metrics.Counters["ind.expanded"] == 0 {
		t.Errorf("metrics diff should show this request's ind.expanded, got %v",
			out.Metrics.Counters)
	}
}

func TestImpliesBadRequests(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	for name, body := range map[string]string{
		"not json":      `{`,
		"unknown field": `{"goal": "R: A -> B", "budgte": 3}`,
		"missing goal":  `{"schema": ["R(A, B)"], "sigma": []}`,
		"parse error":   `{"schema": ["R(A, B)"], "sigma": ["R: A => B"], "goal": "R: A -> B"}`,
		"bad schema":    `{"schema": ["R(A, B)"], "sigma": ["S: A -> B"], "goal": "R: A -> B"}`,
	} {
		resp, b := postJSON(t, ts.URL+"/v1/implies", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400; body %s", name, resp.StatusCode, b)
		}
	}
}

// TestBodyTrailingData: a body is one JSON value. Whitespace may follow
// it; anything else, garbage or a second object, is a 400 on every JSON
// endpoint, and a rejected PUT registers nothing.
func TestBodyTrailingData(t *testing.T) {
	srv, _, ts := newTestServer(t, Config{CacheSize: 64})
	const inline = `{"schema": ["R(A, B)"], "sigma": ["R: A -> B"]`
	if r, b := putJSON(t, ts.URL+"/v1/schemas/app", inline+`}`); r.StatusCode != http.StatusOK {
		t.Fatalf("PUT app = %d\n%s", r.StatusCode, b)
	}
	version := func() int64 {
		e, _ := srv.schemas.Get("app")
		return e.Version
	}
	for _, c := range []struct{ label, method, path, body string }{
		{"implies", http.MethodPost, "/v1/implies", inline + `, "goal": "R: A -> B"}`},
		{"explain", http.MethodPost, "/v1/explain", inline + `, "goal": "R: A -> B"}`},
		{"batch", http.MethodPost, "/v1/batch", inline + `, "goals": ["R: A -> B"]}`},
		{"satisfies", http.MethodPost, "/v1/satisfies", inline + `, "data": {"R": [["1", "2"]]}}`},
		{"put", http.MethodPut, "/v1/schemas/app", inline + `}`},
		{"algebra", http.MethodPost, "/v1/schemas/app/algebra", `{"op": "minimal-cover"}`},
	} {
		for _, tail := range []string{"", " \n\t\r\n"} {
			if rec := serveInProcess(srv.Handler(), c.method, c.path, c.body+tail); rec.Code != http.StatusOK {
				t.Errorf("%s with tail %q = %d, want 200\n%s", c.label, tail, rec.Code, rec.Body.String())
			}
		}
		for _, tail := range []string{" trailing garbage", `{"goal": "R: B -> A"}`, "}"} {
			v := version()
			rec := serveInProcess(srv.Handler(), c.method, c.path, c.body+tail)
			if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "invalid request body") {
				t.Errorf("%s with tail %q = %d, want 400 invalid request body\n%s", c.label, tail, rec.Code, rec.Body.String())
			}
			if got := version(); got != v {
				t.Errorf("%s with tail %q: app version %d -> %d", c.label, tail, v, got)
			}
		}
	}
}

func TestSatisfies(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	good := `{
		"schema": ["R(A, B)"],
		"sigma": ["R: A -> B"],
		"data": {"R": [["x", "1"], ["y", "2"]]}
	}`
	resp, body := postJSON(t, ts.URL+"/v1/satisfies", good)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d; body %s", resp.StatusCode, body)
	}
	var out SatisfiesResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !out.Satisfied || out.Violated != "" {
		t.Errorf("got satisfied=%t violated=%q, want satisfied", out.Satisfied, out.Violated)
	}

	bad := strings.Replace(good, `["y", "2"]`, `["x", "2"]`, 1)
	resp, body = postJSON(t, ts.URL+"/v1/satisfies", bad)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d; body %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if out.Satisfied || !strings.Contains(out.Violated, "A -> B") {
		t.Errorf("got satisfied=%t violated=%q, want the FD violated", out.Satisfied, out.Violated)
	}
}

// TestMetricsExposition checks that after real traffic the Prometheus
// endpoint exposes the per-endpoint latency histogram, the
// per-endpoint/per-status counters, the per-engine serve counters, and
// the process gauges.
func TestMetricsExposition(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/v1/implies", fastImplies)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(b)
	for _, want := range []string{
		`http_latency_us_bucket{path="/v1/implies",le="`,
		`http_latency_us_count{path="/v1/implies"}`,
		`http_requests_total{path="/v1/implies",code="200"} 1`,
		`serve_answers_total{engine="ind",verdict="yes"} 1`,
		`ind_expanded_total`,
		"# TYPE http_latency_us histogram",
		"process_goroutines",
		"process_heap_alloc_bytes",
		"http_in_flight 1", // the /metrics request itself is in flight
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestHealthAndReadiness(t *testing.T) {
	s, _, ts := newTestServer(t, Config{})
	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Errorf("/healthz = %d, want 200", code)
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Errorf("/readyz = %d, want 200 when ready", code)
	}
	s.SetReady(false)
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz = %d, want 503 when not ready", code)
	}
}

func TestDebugObsAndPprof(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/v1/implies", fastImplies)

	resp, err := http.Get(ts.URL + "/debug/obs")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var snap map[string]json.RawMessage
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatalf("/debug/obs is not a Snapshot: %v\n%s", err, b)
	}
	// Instruments only: the query's span tree is in the flight recorder.
	if snap["counters"] == nil || snap["spans"] != nil {
		t.Errorf("/debug/obs = %.300s, want counters and no spans", b)
	}

	resp, err = http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline = %d, want 200", resp.StatusCode)
	}
}

// TestSlowQueryCounter uses a zero-ish threshold so every request is
// slow, and checks the counter and that normal service continues.
func TestSlowQueryCounter(t *testing.T) {
	_, reg, ts := newTestServer(t, Config{SlowQuery: time.Nanosecond})
	postJSON(t, ts.URL+"/v1/implies", fastImplies)
	if n := reg.Counter("http.slow_requests").Value(); n == 0 {
		t.Errorf("http.slow_requests = 0, want > 0 with a 1ns threshold")
	}
}

func TestRequestIDsDistinct(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	r1, _ := postJSON(t, ts.URL+"/v1/implies", fastImplies)
	r2, _ := postJSON(t, ts.URL+"/v1/implies", fastImplies)
	id1, id2 := r1.Header.Get("X-Request-ID"), r2.Header.Get("X-Request-ID")
	if id1 == "" || id1 == id2 {
		t.Errorf("request IDs not distinct: %q vs %q", id1, id2)
	}
}

func TestIndexAndNotFound(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(b), "/v1/implies") {
		t.Errorf("index page does not list endpoints:\n%s", b)
	}
	resp, err = http.Get(ts.URL + "/no/such/path")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path = %d, want 404", resp.StatusCode)
	}
}

// TestTraceIDHeaderEverywhere pins the contract that every response —
// success, client error, probe, 404 — carries a W3C trace identity: a
// 32-hex X-Trace-Id, a valid traceparent whose trace-id field is that
// same ID, and a separate X-Request-ID, so any response can be
// correlated with logs and (when recorded) resolved at
// /debug/traces/{id}.
func TestTraceIDHeaderEverywhere(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	check := func(name string, resp *http.Response) {
		t.Helper()
		tid := resp.Header.Get("X-Trace-Id")
		if len(tid) != 32 || !isLowerHex(tid) {
			t.Errorf("%s: X-Trace-Id %q is not a 32-hex W3C trace ID", name, tid)
		}
		tp := resp.Header.Get("traceparent")
		trace, parent, ok := parseTraceparent(tp)
		if !ok {
			t.Errorf("%s: response traceparent %q does not parse", name, tp)
		} else {
			if trace != tid {
				t.Errorf("%s: traceparent trace-id %q != X-Trace-Id %q", name, trace, tid)
			}
			if len(parent) != 16 || allZero(parent) {
				t.Errorf("%s: traceparent span-id %q invalid", name, parent)
			}
		}
		if rid := resp.Header.Get("X-Request-ID"); rid == "" {
			t.Errorf("%s: missing X-Request-ID header", name)
		}
	}
	resp, _ := postJSON(t, ts.URL+"/v1/implies", fastImplies)
	check("implies 200", resp)
	resp, _ = postJSON(t, ts.URL+"/v1/implies", `{`)
	check("implies 400", resp)
	for _, path := range []string{"/metrics", "/healthz", "/readyz", "/debug/traces", "/no/such/path", "/"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		check(path, r)
	}
}

// tracesPayload is the /debug/traces response shape.
type tracesPayload struct {
	Capacity int                  `json:"capacity"`
	Traces   []*obs.RequestRecord `json:"traces"`
}

// TestDebugTraces drives queries through the server and wants the
// flight recorder to serve them back: newest first, with the query's
// identity, outcome, and span tree; an X-Trace-Id from a live response
// must resolve at /debug/traces/{id} to that request's record.
func TestDebugTraces(t *testing.T) {
	_, _, ts := newTestServer(t, Config{TraceBuffer: 16})
	resp1, _ := postJSON(t, ts.URL+"/v1/implies", fastImplies)
	tid := resp1.Header.Get("X-Trace-Id")
	if tid == "" {
		t.Fatal("no X-Trace-Id on the query response")
	}
	// Probes must not flood the recorder.
	for i := 0; i < 3; i++ {
		r, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}

	r, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(r.Body)
	r.Body.Close()
	var got tracesPayload
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("/debug/traces: %v\n%s", err, b)
	}
	if got.Capacity < 16 {
		t.Errorf("capacity = %d, want >= 16", got.Capacity)
	}
	var rec *obs.RequestRecord
	for _, tr := range got.Traces {
		if tr.Route == "/healthz" || tr.Route == "/readyz" {
			t.Errorf("probe %s recorded in the flight recorder", tr.Route)
		}
		if tr.TraceID == tid {
			rec = tr
		}
	}
	if rec == nil {
		t.Fatalf("query trace %s not in /debug/traces:\n%s", tid, b)
	}
	if rec.Route != "/v1/implies" || rec.Status != http.StatusOK {
		t.Errorf("record route/status = %s/%d", rec.Route, rec.Status)
	}
	if rec.Verdict != "yes" || rec.Engine != "ind" || rec.Goal == "" {
		t.Errorf("record query fields = %+v", rec)
	}
	if rec.DurationNS <= 0 {
		t.Errorf("record duration = %d", rec.DurationNS)
	}
	if rec.Trace == nil || rec.Trace.Name == "" {
		t.Errorf("record has no span tree: %+v", rec.Trace)
	}

	// The exemplar round trip: the ID resolves individually too.
	r, err = http.Get(ts.URL + "/debug/traces/" + tid)
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces/%s = %d:\n%s", tid, r.StatusCode, b)
	}
	var one obs.RequestRecord
	if err := json.Unmarshal(b, &one); err != nil {
		t.Fatalf("unmarshal single trace: %v", err)
	}
	if one.TraceID != tid || one.Verdict != "yes" {
		t.Errorf("single trace = %+v, want the query record", one)
	}
	// Unknown and evicted IDs are 404; a bad limit is 400.
	if r, _ = http.Get(ts.URL + "/debug/traces/nope"); r.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/traces/nope = %d, want 404", r.StatusCode)
	}
	r.Body.Close()
	if r, _ = http.Get(ts.URL + "/debug/traces?limit=bogus"); r.StatusCode != http.StatusBadRequest {
		t.Errorf("limit=bogus = %d, want 400", r.StatusCode)
	}
	r.Body.Close()
	if r, _ = http.Get(ts.URL + "/debug/traces?limit=1"); true {
		b, _ = io.ReadAll(r.Body)
		r.Body.Close()
		var lim tracesPayload
		if err := json.Unmarshal(b, &lim); err != nil || len(lim.Traces) != 1 {
			t.Errorf("limit=1 returned %d traces (err %v)", len(lim.Traces), err)
		}
	}
}

// TestDebugTracesExemplarLink checks the metrics side of the round
// trip: after a query, the latency histogram's bucket exemplar is a
// trace ID the recorder can resolve.
func TestDebugTracesExemplarLink(t *testing.T) {
	s, reg, ts := newTestServer(t, Config{TraceBuffer: 16})
	postJSON(t, ts.URL+"/v1/implies", fastImplies)
	var exemplar string
	for name, h := range reg.Snapshot().Histograms {
		if !strings.HasPrefix(name, "http.latency_us") || !strings.Contains(name, "/v1/implies") {
			continue
		}
		for _, b := range h.Buckets {
			if b.Exemplar != "" {
				exemplar = b.Exemplar
			}
		}
	}
	if exemplar == "" {
		t.Fatal("latency histogram has no exemplar after a query")
	}
	rec := s.rec.Get(exemplar)
	if rec == nil {
		t.Fatalf("exemplar %q does not resolve in the flight recorder", exemplar)
	}
	if rec.Route != "/v1/implies" {
		t.Errorf("exemplar resolved to route %s", rec.Route)
	}
}

// TestExplainEndpoint posts a mixed FD+IND goal to /v1/explain and
// wants a chase answer that carries its provenance derivation DAG:
// seed leaves, rule-firing internal nodes, and a non-empty rendered
// explanation — without the client having to set explain/provenance
// flags itself.
func TestExplainEndpoint(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	req := `{
		"schema": ["R(A, B)", "S(A, B)"],
		"sigma": ["R[A,B] <= S[A,B]", "S: A -> B"],
		"goal": "R: A -> B"
	}`
	resp, body := postJSON(t, ts.URL+"/v1/explain", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d; body %s", resp.StatusCode, body)
	}
	var out ImpliesResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, body)
	}
	if out.Verdict != "yes" || out.Engine != "chase" {
		t.Fatalf("verdict/engine = %q/%q, want yes/chase", out.Verdict, out.Engine)
	}
	if out.Explanation == "" {
		t.Errorf("explain endpoint returned no explanation")
	}
	d := out.Derivation
	if d == nil {
		t.Fatalf("no derivation in /v1/explain response:\n%s", body)
	}
	seeds, inds, fds, _ := d.Stats()
	if seeds != 2 || inds == 0 || fds == 0 {
		t.Errorf("derivation stats seeds=%d inds=%d fds=%d, want 2/>0/>0", seeds, inds, fds)
	}
	if len(d.Checks) == 0 {
		t.Errorf("derivation has no goal checks")
	}
	// A pure-IND goal answers via the ind engine: still 200, with the
	// formal proof as the explanation and no derivation.
	resp, body = postJSON(t, ts.URL+"/v1/explain", fastImplies)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ind explain status = %d; body %s", resp.StatusCode, body)
	}
	var out2 ImpliesResponse
	if err := json.Unmarshal(body, &out2); err != nil {
		t.Fatal(err)
	}
	if out2.Engine != "ind" || out2.Explanation == "" || out2.Derivation != nil {
		t.Errorf("ind explain: engine=%q explanation=%d bytes derivation=%v",
			out2.Engine, len(out2.Explanation), out2.Derivation)
	}
}

// TestTraceBufferDisabled turns the recorder off and wants the debug
// endpoints to degrade gracefully rather than 500.
func TestTraceBufferDisabled(t *testing.T) {
	_, _, ts := newTestServer(t, Config{TraceBuffer: -1})
	postJSON(t, ts.URL+"/v1/implies", fastImplies)
	r, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(r.Body)
	r.Body.Close()
	var got tracesPayload
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("disabled recorder /debug/traces: %v\n%s", err, b)
	}
	if got.Capacity != 0 || len(got.Traces) != 0 {
		t.Errorf("disabled recorder returned capacity=%d traces=%d", got.Capacity, len(got.Traces))
	}
	if r, _ = http.Get(ts.URL + "/debug/traces/anything"); r.StatusCode != http.StatusNotFound {
		t.Errorf("disabled recorder trace lookup = %d, want 404", r.StatusCode)
	}
	r.Body.Close()
}

// TestTimeoutMSCappedBeforeConversion: timeout_ms is capped at
// MaxDeadline before it becomes a time.Duration, so a huge value gets
// the cap rather than an overflowed, negative deadline (an instant 503
// "context deadline exceeded" that counted against the error budget).
// Every value answers the Proposition 4.1 chase goal with deadline_ms =
// min(v, 60000), on /v1/implies and on a batch goal.
func TestTimeoutMSCappedBeforeConversion(t *testing.T) {
	s := New(Config{Reg: obs.New(), Logger: slog.New(slog.NewJSONHandler(io.Discard, nil))})
	const fields = `"schema": ["R(X, Y)", "S(T, U)"], "sigma": ["R[X,Y] <= S[T,U]", "S: T -> U"]`
	for _, v := range []int64{1, 60000, 60001, 1e13, math.MaxInt64} {
		want := min(v, 60000)
		for _, path := range []string{"/v1/implies", "/v1/batch"} {
			body := fmt.Sprintf(`{%s, "goal": "R: X -> Y", "timeout_ms": %d}`, fields, v)
			if path == "/v1/batch" {
				body = fmt.Sprintf(`{%s, "goals": ["R: X -> Y"], "timeout_ms": %d}`, fields, v)
			}
			rec := serveInProcess(s.Handler(), http.MethodPost, path, body)
			var got ImpliesResponse
			if path == "/v1/batch" {
				var resp BatchResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.Answers) != 1 {
					t.Fatalf("%s timeout_ms %d: %v\n%s", path, v, err, rec.Body.String())
				}
				got = resp.Answers[0].ImpliesResponse
				if resp.Answers[0].Status != http.StatusOK {
					rec.Code = resp.Answers[0].Status
				}
			} else if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
				t.Fatalf("%s timeout_ms %d: %v\n%s", path, v, err, rec.Body.String())
			}
			if rec.Code != http.StatusOK || got.Verdict != "yes" || got.DeadlineMS != want {
				t.Errorf("%s timeout_ms %d: status %d verdict %q deadline_ms %d error %q; want 200 yes %d",
					path, v, rec.Code, got.Verdict, got.DeadlineMS, got.Error, want)
			}
		}
	}
}
