package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"indfd/internal/obs"
)

// sampleTraceparent is the W3C spec's own example header: version 00,
// a caller trace ID and a caller span ID, sampled.
const (
	sampleTrace       = "4bf92f3577b34da6a3ce929d0e0e4736"
	sampleParent      = "00f067aa0ba902b7"
	sampleTraceparent = "00-" + sampleTrace + "-" + sampleParent + "-01"
)

// get issues a GET with extra headers and returns response + body.
func getHdr(t *testing.T, url string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp, b
}

// TestTraceparentHonored: a valid incoming traceparent's trace ID must
// surface in the response headers, the flight-recorder record (with the
// caller's span ID as parent), the access log, and /debug/traces/{id};
// tracestate is echoed verbatim. The server counts every request as
// slow, so the request's access-log line is written whatever the
// sampling would choose.
func TestTraceparentHonored(t *testing.T) {
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))
	_, reg, ts := newTestServer(t, Config{Logger: logger, TraceBuffer: 16, SlowQuery: time.Nanosecond})

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/implies", strings.NewReader(fastImplies))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", sampleTraceparent)
	req.Header.Set("tracestate", "congo=t61rcWkgMzE,rojo=00f067aa0ba902b7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()

	if got := resp.Header.Get("X-Trace-Id"); got != sampleTrace {
		t.Errorf("X-Trace-Id = %q, want honored caller trace %q", got, sampleTrace)
	}
	trace, parent, ok := parseTraceparent(resp.Header.Get("traceparent"))
	if !ok || trace != sampleTrace {
		t.Errorf("response traceparent = %q, want trace-id %s", resp.Header.Get("traceparent"), sampleTrace)
	}
	if parent == sampleParent {
		t.Errorf("response parent-id still %q; the server must advertise its own span ID", parent)
	}
	if got := resp.Header.Get("tracestate"); got != "congo=t61rcWkgMzE,rojo=00f067aa0ba902b7" {
		t.Errorf("tracestate not echoed: %q", got)
	}
	if n := reg.Counter("http.traceparent_honored").Value(); n != 1 {
		t.Errorf("http.traceparent_honored = %d, want 1", n)
	}

	// The flight recorder filed the request under the caller's trace ID,
	// with the caller's span as parent and the server's span as its own.
	r, body := getHdr(t, ts.URL+"/debug/traces/"+sampleTrace, nil)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces/%s = %d\n%s", sampleTrace, r.StatusCode, body)
	}
	var rec obs.RequestRecord
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatalf("trace record: %v\n%s", err, body)
	}
	if rec.TraceID != sampleTrace || rec.ParentSpanID != sampleParent {
		t.Errorf("record trace/parent = %q/%q, want %s/%s",
			rec.TraceID, rec.ParentSpanID, sampleTrace, sampleParent)
	}
	if rec.SpanID != parent {
		t.Errorf("record span ID %q != response traceparent parent-id %q", rec.SpanID, parent)
	}

	// The access log carries the same trace ID.
	if !strings.Contains(logBuf.String(), `"trace_id":"`+sampleTrace+`"`) {
		t.Errorf("access log does not carry trace_id %s:\n%s", sampleTrace, logBuf.String())
	}
}

// TestAccessLogSampling pins which requests the access log writes, under
// concurrent clients (run it at -cpu 1,2,8: the choice rides on the
// request's atomic sequence number). With no request slow, the 200s
// yield exactly the Info lines of the sequence numbers 1, 65, 129, …,
// each marked sample_rate 64; every 4xx and 5xx has an Info line of its
// own; and http.requests{path,code} counts every request. With every
// request slow, every request has a Warn line marked slow_query.
func TestAccessLogSampling(t *testing.T) {
	kinds := []struct {
		method, path, body, route string
		status                    int
	}{
		{http.MethodGet, "/healthz", "", "/healthz", http.StatusOK},
		{http.MethodPost, "/v1/implies", fastImplies, "/v1/implies", http.StatusOK},
		{http.MethodPost, "/v1/implies", "{", "/v1/implies", http.StatusBadRequest},
		{http.MethodGet, "/no/such/path", "", "/", http.StatusNotFound},
		{http.MethodGet, "/readyz", "", "/readyz", http.StatusServiceUnavailable}, // never SetReady
	}
	type outcome struct {
		seq    uint64
		route  string
		status int
	}
	const clients, perClient = 8, 96
	run := func(t *testing.T, slowQuery time.Duration) (map[string]outcome, map[string]map[string]any, *obs.Registry) {
		var logBuf bytes.Buffer
		reg := obs.New()
		s := New(Config{Reg: reg, Logger: slog.New(slog.NewJSONHandler(&logBuf, nil)), SlowQuery: slowQuery})
		byID := map[string]outcome{}
		var mu sync.Mutex
		var wg sync.WaitGroup
		for c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range perClient {
					k := kinds[(c+i)%len(kinds)]
					rec := serveInProcess(s.Handler(), k.method, k.path, k.body)
					if rec.Code != k.status {
						t.Errorf("%s %s = %d, want %d", k.method, k.path, rec.Code, k.status)
					}
					id := rec.Header().Get("X-Request-Id")
					seq, err := strconv.ParseUint(id[strings.LastIndexByte(id, '-')+1:], 10, 64)
					if err != nil {
						t.Errorf("request ID %q: %v", id, err)
					}
					mu.Lock()
					byID[id] = outcome{seq: seq, route: k.route, status: rec.Code}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		lines := map[string]map[string]any{}
		for _, line := range bytes.Split(bytes.TrimSpace(logBuf.Bytes()), []byte("\n")) {
			var m map[string]any
			if err := json.Unmarshal(line, &m); err != nil {
				t.Fatalf("log line %q: %v", line, err)
			}
			id, _ := m["request_id"].(string)
			if _, known := byID[id]; !known || lines[id] != nil {
				t.Fatalf("log line for request %q: unknown request or a second line\n%s", id, line)
			}
			lines[id] = m
		}
		return byID, lines, reg
	}

	t.Run("fast", func(t *testing.T) {
		byID, lines, reg := run(t, time.Hour)
		want := 0
		counts := map[string]int64{}
		for id, o := range byID {
			counts[obs.MetricName("http.requests", "path", o.route, "code", strconv.Itoa(o.status))]++
			line := lines[id]
			switch {
			case o.status >= 400:
				want++
				if line == nil || line["level"] != "INFO" || line["status"] != float64(o.status) || line["sample_rate"] != nil {
					t.Errorf("request %s (%d): line %v, want an unsampled Info line", id, o.status, line)
				}
			case (o.seq-1)%accessLogSample == 0:
				want++
				if line == nil || line["level"] != "INFO" || line["sample_rate"] != float64(accessLogSample) {
					t.Errorf("request %s (sequence %d): line %v, want an Info line with sample_rate %d", id, o.seq, line, accessLogSample)
				}
			case line != nil:
				t.Errorf("request %s (sequence %d, %d): logged %v, want no line", id, o.seq, o.status, line)
			}
		}
		if len(lines) != want {
			t.Errorf("%d log lines, want %d", len(lines), want)
		}
		for name, n := range counts {
			if got := reg.Counter(name).Value(); got != n {
				t.Errorf("%s = %d, want %d", name, got, n)
			}
		}
		if n := reg.Counter("http.slow_requests").Value(); n != 0 {
			t.Errorf("http.slow_requests = %d, want 0", n)
		}
	})

	t.Run("slow", func(t *testing.T) {
		byID, lines, reg := run(t, time.Nanosecond)
		for id, o := range byID {
			line := lines[id]
			if line == nil || line["level"] != "WARN" || line["slow_query"] != true || line["sample_rate"] != nil {
				t.Errorf("request %s (%d): line %v, want a Warn line marked slow_query", id, o.status, line)
			}
		}
		if n := reg.Counter("http.slow_requests").Value(); n != clients*perClient {
			t.Errorf("http.slow_requests = %d, want %d", n, clients*perClient)
		}
	})
}

// TestTraceparentMalformedFallsBack drives the parser's rejection table
// through the server: every malformed header must yield a freshly
// minted (hence different) trace ID and count in
// http.traceparent_minted, never a 4xx — bad telemetry headers must not
// fail requests.
func TestTraceparentMalformedFallsBack(t *testing.T) {
	_, reg, ts := newTestServer(t, Config{})
	cases := []struct {
		name, header string
	}{
		{"empty", ""},
		{"garbage", "not-a-traceparent"},
		{"uppercase hex", "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01"},
		{"all-zero trace", "00-00000000000000000000000000000000-00f067aa0ba902b7-01"},
		{"all-zero parent", "00-" + sampleTrace + "-0000000000000000-01"},
		{"version ff", "ff-" + sampleTrace + "-" + sampleParent + "-01"},
		{"short trace", "00-4bf92f3577b34da6a3ce929d0e0e473-00f067aa0ba902b7-01"},
		{"v00 trailing data", sampleTraceparent + "-extra"},
		{"missing flags", "00-" + sampleTrace + "-" + sampleParent},
		{"wrong delimiters", "00_" + sampleTrace + "_" + sampleParent + "_01"},
	}
	for _, tc := range cases {
		resp, _ := getHdr(t, ts.URL+"/", map[string]string{"traceparent": tc.header})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d, malformed traceparent must not fail the request",
				tc.name, resp.StatusCode)
		}
		tid := resp.Header.Get("X-Trace-Id")
		if len(tid) != 32 || !isLowerHex(tid) {
			t.Errorf("%s: minted X-Trace-Id %q not 32-hex", tc.name, tid)
		}
		if tid == sampleTrace {
			t.Errorf("%s: trace ID %q was honored from a malformed header", tc.name, tid)
		}
	}
	if n := reg.Counter("http.traceparent_minted").Value(); n != int64(len(cases)) {
		t.Errorf("http.traceparent_minted = %d, want %d", n, len(cases))
	}
	if n := reg.Counter("http.traceparent_honored").Value(); n != 0 {
		t.Errorf("http.traceparent_honored = %d, want 0", n)
	}
	// Future version with trailing data parses (forward compatibility).
	resp, _ := getHdr(t, ts.URL+"/", map[string]string{
		"traceparent": "cc-" + sampleTrace + "-" + sampleParent + "-01-what-the-future-holds"})
	if got := resp.Header.Get("X-Trace-Id"); got != sampleTrace {
		t.Errorf("future-version traceparent: X-Trace-Id = %q, want honored %s", got, sampleTrace)
	}
}

// TestParseTraceparentUnit pins the parser directly on the spec
// examples, independent of the HTTP plumbing.
func TestParseTraceparentUnit(t *testing.T) {
	trace, parent, ok := parseTraceparent(sampleTraceparent)
	if !ok || trace != sampleTrace || parent != sampleParent {
		t.Errorf("parse(%q) = %q, %q, %t", sampleTraceparent, trace, parent, ok)
	}
	if _, _, ok := parseTraceparent("00-" + sampleTrace + "-" + sampleParent + "-00"); !ok {
		t.Errorf("flags 00 (unsampled) must still parse")
	}
	if tp := formatTraceparent(sampleTrace, sampleParent, true); tp != sampleTraceparent {
		t.Errorf("formatTraceparent = %q, want %q", tp, sampleTraceparent)
	}
	if _, _, ok := parseTraceparent(formatTraceparent(newTraceID(), newSpanID(), false)); !ok {
		t.Errorf("minted IDs must round-trip through the parser")
	}
}

// TestErrorEnvelope pins the JSON error contract across every error
// source: handler 400s, the recorder 404, the mux's own 404s and 405s
// for unknown paths and wrong methods — all must come back as
// application/json {"error": "..."}.
func TestErrorEnvelope(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	cases := []struct {
		name, method, path, body string
		status                   int
	}{
		{"malformed JSON", http.MethodPost, "/v1/implies", "{", http.StatusBadRequest},
		{"unknown field", http.MethodPost, "/v1/implies", `{"bogus": 1}`, http.StatusBadRequest},
		{"missing goal", http.MethodPost, "/v1/implies", `{"schema":["R(A)"]}`, http.StatusBadRequest},
		{"bad limit", http.MethodGet, "/debug/traces?limit=bogus", "", http.StatusBadRequest},
		{"trace not found", http.MethodGet, "/debug/traces/nope", "", http.StatusNotFound},
		{"unknown path", http.MethodGet, "/no/such/path", "", http.StatusNotFound},
		// GET on a POST-only route falls through to the "GET /" catch-all,
		// whose not-found branch must also come back enveloped.
		{"GET on POST route", http.MethodGet, "/v1/implies", "", http.StatusNotFound},
		{"mux 405 POST on GET route", http.MethodPost, "/metrics", "{}", http.StatusMethodNotAllowed},
		{"mux 405 DELETE", http.MethodDelete, "/debug/obs", "", http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		var rd io.Reader
		if tc.body != "" {
			rd = strings.NewReader(tc.body)
		}
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d\n%s", tc.name, resp.StatusCode, tc.status, b)
			continue
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Errorf("%s: Content-Type = %q, want application/json", tc.name, ct)
		}
		var env map[string]any
		if err := json.Unmarshal(b, &env); err != nil {
			t.Errorf("%s: body is not JSON: %v\n%s", tc.name, err, b)
			continue
		}
		if msg, _ := env["error"].(string); msg == "" {
			t.Errorf("%s: no error message in envelope %s", tc.name, b)
		}
	}
	// The 405s must keep the Allow header the mux set.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/debug/obs", nil)
	r405, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r405.Body.Close()
	if allow := r405.Header.Get("Allow"); !strings.Contains(allow, http.MethodGet) {
		t.Errorf("405 lost the Allow header: %q", allow)
	}
	// Success responses pass through untouched: /metrics stays text.
	resp, body := getHdr(t, ts.URL+"/metrics", nil)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics Content-Type = %q, the envelope must not touch 200s", ct)
	}
	if !strings.Contains(string(body), "http_requests") {
		t.Errorf("/metrics exposition missing counters:\n%.300s", body)
	}
}

// TestHealthzBuildInfo pins the /healthz JSON body: status, uptime,
// and the build identity block.
func TestHealthzBuildInfo(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	resp, body := getHdr(t, ts.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/healthz Content-Type = %q, want application/json", ct)
	}
	var out struct {
		Status        string            `json:"status"`
		UptimeSeconds *int64            `json:"uptime_seconds"`
		Build         obs.BuildIdentity `json:"build"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("/healthz body: %v\n%s", err, body)
	}
	if out.Status != "ok" {
		t.Errorf("status = %q, want ok", out.Status)
	}
	if out.UptimeSeconds == nil || *out.UptimeSeconds < 0 {
		t.Errorf("uptime_seconds missing or negative: %v", out.UptimeSeconds)
	}
	if out.Build.Version == "" || out.Build.GoVersion == "" || out.Build.Revision == "" {
		t.Errorf("build identity incomplete: %+v", out.Build)
	}
}

// TestReadyzJSON wants JSON bodies on both readiness verdicts.
func TestReadyzJSON(t *testing.T) {
	s, _, ts := newTestServer(t, Config{})
	s.SetReady(false)
	resp, body := getHdr(t, ts.URL+"/readyz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz not-ready = %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(body), `"starting"`) {
		t.Errorf("not-ready body = %s", body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("not-ready Content-Type = %q", ct)
	}
	s.SetReady(true)
	resp, body = getHdr(t, ts.URL+"/readyz", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ready"`) {
		t.Errorf("/readyz ready = %d %s", resp.StatusCode, body)
	}
}

// TestDebugOTLP drives a query through the server and wants
// /debug/otlp to serve a well-formed OTLP/JSON document whose spans
// carry the request's trace ID and whose metrics include the request
// counter.
func TestDebugOTLP(t *testing.T) {
	_, _, ts := newTestServer(t, Config{TraceBuffer: 16})
	resp, _ := postJSON(t, ts.URL+"/v1/implies", fastImplies)
	tid := resp.Header.Get("X-Trace-Id")

	r, body := getHdr(t, ts.URL+"/debug/otlp", nil)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("/debug/otlp = %d", r.StatusCode)
	}
	var doc obs.OTLPDocument
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/debug/otlp is not OTLP JSON: %v\n%.300s", err, body)
	}
	if len(doc.ResourceSpans) == 0 || len(doc.ResourceMetrics) == 0 {
		t.Fatalf("document missing spans or metrics: %d/%d",
			len(doc.ResourceSpans), len(doc.ResourceMetrics))
	}
	var svc string
	for _, kv := range doc.ResourceSpans[0].Resource.Attributes {
		if kv.Key == "service.name" {
			svc = kv.Value.StringValue
		}
	}
	if svc != "depserve" {
		t.Errorf("service.name = %q, want depserve", svc)
	}
	if !strings.Contains(string(body), obs.OTLPTraceID(tid)) {
		t.Errorf("document does not carry the request's trace ID %s", tid)
	}
	if !strings.Contains(string(body), `"http.requests`) {
		t.Errorf("document does not carry the request counter family")
	}
}

// TestServeExporterIntegration is the end-to-end exporter path: a
// server with a file exporter must land every query's span in the
// JSONL sink after Close, without the handler ever blocking.
func TestServeExporterIntegration(t *testing.T) {
	path := filepath.Join(t.TempDir(), "otlp.jsonl")
	reg := obs.New()
	exp, err := obs.NewExporter(obs.ExporterConfig{
		Reg:      reg,
		FilePath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Reg:      reg,
		Logger:   slog.New(slog.NewJSONHandler(io.Discard, nil)),
		Exporter: exp,
	}
	s := New(cfg)
	s.SetReady(true)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp, _ := postJSON(t, ts.URL+"/v1/implies", fastImplies)
	tid := resp.Header.Get("X-Trace-Id")
	// Probes are not exported.
	getHdr(t, ts.URL+"/healthz", nil)
	if err := exp.Close(); err != nil {
		t.Fatalf("exporter close: %v", err)
	}

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), obs.OTLPTraceID(tid)) {
		t.Errorf("exported file does not carry trace %s:\n%.300s", tid, b)
	}
	// No exported span may be a probe's — walk every JSONL document's
	// span attributes (metrics legitimately carry a /healthz label).
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		var doc obs.OTLPDocument
		if err := json.Unmarshal([]byte(line), &doc); err != nil {
			t.Fatalf("export line is not OTLP JSON: %v\n%.200s", err, line)
		}
		for _, rs := range doc.ResourceSpans {
			for _, ss := range rs.ScopeSpans {
				for _, sp := range ss.Spans {
					for _, kv := range sp.Attributes {
						if kv.Key == "http.route" && kv.Value.StringValue == "/healthz" {
							t.Errorf("probe request leaked into the export: span %s", sp.Name)
						}
					}
				}
			}
		}
	}
	if n := reg.Counter("obs.export_spans").Value(); n == 0 {
		t.Errorf("obs.export_spans = 0, want > 0")
	}
	if n := reg.Counter("obs.export_dropped").Value(); n != 0 {
		t.Errorf("obs.export_dropped = %d, want 0", n)
	}
}

// TestExemplarCarriesTraceID checks the histogram exemplar contract:
// after one request, the latency histogram's exemplar is the
// response's trace ID.
func TestExemplarCarriesTraceID(t *testing.T) {
	_, reg, ts := newTestServer(t, Config{})
	resp, _ := postJSON(t, ts.URL+"/v1/implies", fastImplies)
	tid := resp.Header.Get("X-Trace-Id")
	snap := reg.Snapshot()
	var found bool
	for name, h := range snap.Histograms {
		if !strings.Contains(name, "/v1/implies") {
			continue
		}
		for _, b := range h.Buckets {
			if b.Exemplar == tid {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("no latency bucket carries exemplar %s", tid)
	}
}

// TestProbeStillTraced: /healthz is not recorded, but its response
// still carries full trace headers so probes are debuggable too.
func TestProbeStillTraced(t *testing.T) {
	_, _, ts := newTestServer(t, Config{TraceBuffer: 16})
	resp, _ := getHdr(t, ts.URL+"/healthz", map[string]string{"traceparent": sampleTraceparent})
	if got := resp.Header.Get("X-Trace-Id"); got != sampleTrace {
		t.Errorf("probe X-Trace-Id = %q, want honored %s", got, sampleTrace)
	}
	r, _ := getHdr(t, ts.URL+"/debug/traces/"+sampleTrace, nil)
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("probe was recorded (status %d), probes must not evict real traces", r.StatusCode)
	}
}

// Ensure newTestServer-based servers see SampleRuntime uptime move —
// a sanity check that /metrics no longer needs the old inline gauge.
func TestMetricsUptimeGauge(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	time.Sleep(10 * time.Millisecond)
	_, body := getHdr(t, ts.URL+"/metrics", nil)
	if !strings.Contains(string(body), "process_uptime_seconds") {
		t.Errorf("/metrics missing process_uptime_seconds:\n%.300s", body)
	}
	if !strings.Contains(string(body), "process_build_info") {
		t.Errorf("/metrics missing process_build_info:\n%.300s", body)
	}
}

// TestDebugListsEmptyNotNull pins the empty /debug lists to [] — on a
// fresh server, and with the flight recorder and the digest store off —
// as every other JSON list the server returns.
func TestDebugListsEmptyNotNull(t *testing.T) {
	for _, cfg := range []Config{{}, {TraceBuffer: -1, DigestSize: -1}} {
		_, _, ts := newTestServer(t, cfg)
		// /debug/traces first: the recorder keeps the /debug/digests GET.
		for _, key := range []string{"traces", "digests"} {
			path := "/debug/" + key
			_, body := getHdr(t, ts.URL+path, nil)
			var reply map[string]json.RawMessage
			if err := json.Unmarshal(body, &reply); err != nil {
				t.Fatalf("%s: %v\n%s", path, err, body)
			}
			if got := string(reply[key]); got != "[]" {
				t.Errorf("%s (trace buffer %d, digests %d): %q = %s, want []",
					path, cfg.TraceBuffer, cfg.DigestSize, key, got)
			}
		}
	}
}

// TestTraceparentSampledFlag pins the response traceparent's flags: 01
// exactly when the middleware drafted a record (for the flight recorder
// or the exporter), 00 for probes and on a server that keeps nothing.
func TestTraceparentSampledFlag(t *testing.T) {
	flags := func(ts *httptest.Server, path string) string {
		t.Helper()
		var resp *http.Response
		if path == "/v1/implies" {
			resp, _ = postJSON(t, ts.URL+path, fastImplies)
		} else {
			resp, _ = getHdr(t, ts.URL+path, nil)
		}
		tp := resp.Header.Get("traceparent")
		if _, _, ok := parseTraceparent(tp); !ok {
			t.Fatalf("%s: traceparent %q does not parse", path, tp)
		}
		return tp[len(tp)-2:]
	}
	_, _, recording := newTestServer(t, Config{})
	for path, want := range map[string]string{"/v1/implies": "01", "/metrics": "01", "/healthz": "00", "/readyz": "00"} {
		if got := flags(recording, path); got != want {
			t.Errorf("recording server %s: flags %s, want %s", path, got, want)
		}
	}
	_, _, off := newTestServer(t, Config{TraceBuffer: -1})
	for _, path := range []string{"/v1/implies", "/metrics", "/healthz"} {
		if got := flags(off, path); got != "00" {
			t.Errorf("non-recording server %s: flags %s, want 00", path, got)
		}
	}
	// An exporter alone still drafts records: sampled.
	exp, err := obs.NewExporter(obs.ExporterConfig{FilePath: filepath.Join(t.TempDir(), "otlp.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { exp.Close() })
	_, _, exporting := newTestServer(t, Config{TraceBuffer: -1, Exporter: exp})
	if got := flags(exporting, "/v1/implies"); got != "01" {
		t.Errorf("exporting server /v1/implies: flags %s, want 01", got)
	}
}
