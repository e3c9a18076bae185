package indfd

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"indfd/internal/obs"
	"indfd/internal/serve"
)

// The depserve workflow end to end, driven by the committed example
// payloads (the same ones the README's curl examples use): start the
// server, POST an implication query, and read the answer back off
// /metrics as a Prometheus scrape would — then push the divergent
// FD+IND instance through a 50ms deadline and get the 503 with partial
// chase statistics instead of a wedged worker.
func TestDepserveEndToEnd(t *testing.T) {
	reg := obs.New()
	s := serve.New(serve.Config{
		Reg:    reg,
		Logger: slog.New(slog.NewJSONHandler(io.Discard, nil)),
	})
	s.SetReady(true)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(payloadFile string) (*http.Response, []byte) {
		t.Helper()
		body, err := os.ReadFile(payloadFile)
		if err != nil {
			t.Fatalf("example payload: %v", err)
		}
		resp, err := http.Post(ts.URL+"/v1/implies", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		return resp, b
	}

	// 1. The fast unary-IND query answers yes via the Section 3 engine.
	resp, body := post("examples/depserve/implies_fast.json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fast query: status %d, body %s", resp.StatusCode, body)
	}
	var ans serve.ImpliesResponse
	if err := json.Unmarshal(body, &ans); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if ans.Verdict != "yes" || ans.Engine != "ind" || ans.Proof == "" {
		t.Errorf("fast query: verdict=%q engine=%q proof=%q, want yes/ind/proof",
			ans.Verdict, ans.Engine, ans.Proof)
	}

	// 2. A scrape of /metrics shows the request's work: the per-endpoint
	// latency histogram and the per-engine answer counter.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	metrics := string(mb)
	for _, want := range []string{
		`http_latency_us_bucket{path="/v1/implies",le="`,
		`http_requests_total{path="/v1/implies",code="200"} 1`,
		`serve_answers_total{engine="ind",verdict="yes"} 1`,
		`ind_expanded_total`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// 3. The divergent FD+IND instance outruns its 50ms deadline: a 503
	// carrying the partial rounds/tuples the chase managed.
	resp, body = post("examples/depserve/implies_divergent.json")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("divergent query: status %d, body %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &ans); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if ans.Verdict != "unknown" || ans.Engine != "chase" {
		t.Errorf("divergent query: verdict=%q engine=%q, want unknown/chase",
			ans.Verdict, ans.Engine)
	}
	if ans.ChaseRounds == 0 || ans.ChaseTuples == 0 {
		t.Errorf("divergent query: rounds=%d tuples=%d, want partial work reported",
			ans.ChaseRounds, ans.ChaseTuples)
	}
	if n := reg.Counter("serve.deadline_exceeded").Value(); n != 1 {
		t.Errorf("serve.deadline_exceeded = %d, want 1", n)
	}
	if n := reg.Counter("chase.rounds").Value(); n == 0 {
		t.Errorf("chase.rounds counter = 0, want the divergent chase's rounds")
	}
}
