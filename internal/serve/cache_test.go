package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// stripVolatile drops the per-request fields (request_id, elapsed_us)
// from a JSON response body, and from each of a batch's answers, so
// cached and fresh answers can be compared byte-for-byte on everything
// that matters.
func stripVolatile(t *testing.T, body []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, body)
	}
	drop := func(m map[string]any) {
		delete(m, "request_id")
		delete(m, "elapsed_us")
	}
	drop(m)
	if answers, ok := m["answers"].([]any); ok {
		for _, a := range answers {
			drop(a.(map[string]any))
		}
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(out)
}

// TestImpliesCacheMissThenHit is the core cache contract: the first
// request computes (X-Cache: MISS), the second is served from the cache
// (X-Cache: HIT) with an identical answer modulo request_id/elapsed_us.
func TestImpliesCacheMissThenHit(t *testing.T) {
	_, reg, ts := newTestServer(t, Config{CacheSize: 64})
	r1, b1 := postJSON(t, ts.URL+"/v1/implies", fastImplies)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("first status = %d; body %s", r1.StatusCode, b1)
	}
	if got := r1.Header.Get("X-Cache"); got != "MISS" {
		t.Errorf("first X-Cache = %q, want MISS", got)
	}
	r2, b2 := postJSON(t, ts.URL+"/v1/implies", fastImplies)
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("second status = %d; body %s", r2.StatusCode, b2)
	}
	if got := r2.Header.Get("X-Cache"); got != "HIT" {
		t.Errorf("second X-Cache = %q, want HIT", got)
	}
	if a, b := stripVolatile(t, b1), stripVolatile(t, b2); a != b {
		t.Errorf("cached answer drifted from the computed one:\nfresh:  %s\ncached: %s", a, b)
	}
	s := reg.Snapshot()
	if s.Counters["cache.misses"] != 1 || s.Counters["cache.hits"] != 1 {
		t.Errorf("cache counters = hits %d misses %d, want 1/1",
			s.Counters["cache.hits"], s.Counters["cache.misses"])
	}
}

// TestImpliesCacheCanonicalKey: semantically identical requests with Σ
// and the schema declared in a different order must share a cache entry.
func TestImpliesCacheCanonicalKey(t *testing.T) {
	_, _, ts := newTestServer(t, Config{CacheSize: 64})
	a := `{
		"schema": ["R(A, B)", "S(C, D)"],
		"sigma": ["R[A] <= S[C]", "R: A -> B"],
		"goal": "R[A] <= S[C]"
	}`
	b := `{
		"schema": ["S(C, D)", "R(A, B)"],
		"sigma": ["R: A -> B", "R[A] <= S[C]"],
		"goal": "R[A] <= S[C]"
	}`
	r1, body := postJSON(t, ts.URL+"/v1/implies", a)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("status = %d; body %s", r1.StatusCode, body)
	}
	r2, _ := postJSON(t, ts.URL+"/v1/implies", b)
	if got := r2.Header.Get("X-Cache"); got != "HIT" {
		t.Errorf("reordered request X-Cache = %q, want HIT (canonical fingerprint)", got)
	}
}

// TestImpliesCacheGoalSpelling: two spellings of one FD goal are two
// cache entries, and each answer's proof names its own goal. A shared
// entry would hand the second request a proof of the first spelling.
func TestImpliesCacheGoalSpelling(t *testing.T) {
	_, _, ts := newTestServer(t, Config{CacheSize: 64})
	body := func(goal string) string {
		return `{"schema":["R(A,B,C)"],"sigma":["R: A -> B","R: A -> C"],"goal":"` + goal + `"}`
	}
	for _, goal := range []string{"R: A -> B,C", "R: A -> C,B"} {
		r, b := postJSON(t, ts.URL+"/v1/implies", body(goal))
		if r.StatusCode != http.StatusOK {
			t.Fatalf("goal %q: status = %d; body %s", goal, r.StatusCode, b)
		}
		if got := r.Header.Get("X-Cache"); got != "MISS" {
			t.Errorf("goal %q: X-Cache = %q, want MISS (each spelling keys its own entry)", goal, got)
		}
		var resp ImpliesResponse
		if err := json.Unmarshal(b, &resp); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if resp.Goal != goal || !strings.HasPrefix(resp.Proof, "goal: "+goal+"\n") {
			t.Errorf("goal %q: response goal %q, proof %q", goal, resp.Goal, resp.Proof)
		}
	}
}

// TestImpliesCacheExplainDistinct: explain changes the answer shape, so
// it must be part of the key — and a cached explain answer must carry
// the explanation.
func TestImpliesCacheExplainDistinct(t *testing.T) {
	_, _, ts := newTestServer(t, Config{CacheSize: 64})
	plain := fastImplies
	explain := `{
		"schema": ["MGR(NAME, DEPT)", "EMP(NAME, DEPT, SAL)"],
		"sigma": ["MGR[NAME,DEPT] <= EMP[NAME,DEPT]"],
		"goal": "MGR[NAME] <= EMP[NAME]",
		"explain": true
	}`
	postJSON(t, ts.URL+"/v1/implies", plain)
	r2, b2 := postJSON(t, ts.URL+"/v1/implies", explain)
	if got := r2.Header.Get("X-Cache"); got != "MISS" {
		t.Errorf("explain variant X-Cache = %q, want MISS (distinct fingerprint)", got)
	}
	r3, b3 := postJSON(t, ts.URL+"/v1/implies", explain)
	if got := r3.Header.Get("X-Cache"); got != "HIT" {
		t.Errorf("repeated explain X-Cache = %q, want HIT", got)
	}
	var fresh, cached ImpliesResponse
	if err := json.Unmarshal(b2, &fresh); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if err := json.Unmarshal(b3, &cached); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if fresh.Explanation == "" || cached.Explanation != fresh.Explanation {
		t.Errorf("explanation not preserved through the cache:\nfresh:  %q\ncached: %q",
			fresh.Explanation, cached.Explanation)
	}
}

// TestImpliesCacheDisabledNoHeader: with CacheSize 0 the server must
// not advertise a cache at all.
func TestImpliesCacheDisabledNoHeader(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	r, _ := postJSON(t, ts.URL+"/v1/implies", fastImplies)
	if got := r.Header.Get("X-Cache"); got != "" {
		t.Errorf("X-Cache = %q with caching disabled, want absent", got)
	}
}

// TestImpliesCacheMetricsBypass: include_metrics wants this request's
// engine deltas, which a cached answer cannot provide — the request must
// bypass the cache in both directions (no header, no stored entry).
func TestImpliesCacheMetricsBypass(t *testing.T) {
	srv, _, ts := newTestServer(t, Config{CacheSize: 64})
	withMetrics := `{
		"schema": ["MGR(NAME, DEPT)", "EMP(NAME, DEPT, SAL)"],
		"sigma": ["MGR[NAME,DEPT] <= EMP[NAME,DEPT]"],
		"goal": "MGR[NAME] <= EMP[NAME]",
		"include_metrics": true
	}`
	r, body := postJSON(t, ts.URL+"/v1/implies", withMetrics)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status = %d; body %s", r.StatusCode, body)
	}
	if got := r.Header.Get("X-Cache"); got != "" {
		t.Errorf("X-Cache = %q on an include_metrics request, want absent", got)
	}
	if n := srv.cache.Len(); n != 0 {
		t.Errorf("include_metrics answer was cached (Len=%d)", n)
	}
	var out ImpliesResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if out.Metrics == nil {
		t.Errorf("include_metrics response missing metrics")
	}
}

// TestImpliesCacheNeverStoresDeadline: a 503'd (deadline-killed) query
// returns partial work, and replaying it as "the answer" would wedge
// every later client into the first client's deadline. After a 503 the
// cache must hold nothing, and the same query must compute fresh.
func TestImpliesCacheNeverStoresDeadline(t *testing.T) {
	srv, reg, ts := newTestServer(t, Config{CacheSize: 64})
	r1, b1 := postJSON(t, ts.URL+"/v1/implies", divergentImplies)
	if r1.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503; body %s", r1.StatusCode, b1)
	}
	if got := r1.Header.Get("X-Cache"); got != "MISS" {
		t.Errorf("first X-Cache = %q, want MISS", got)
	}
	if n := srv.cache.Len(); n != 0 {
		t.Fatalf("deadline-killed partial answer was cached (Len=%d)", n)
	}
	// The identical query again: still a MISS — it recomputes (and times
	// out again) rather than replaying the partial verdict.
	r2, _ := postJSON(t, ts.URL+"/v1/implies", divergentImplies)
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second status = %d, want 503", r2.StatusCode)
	}
	if got := r2.Header.Get("X-Cache"); got != "MISS" {
		t.Errorf("second X-Cache = %q, want MISS (nothing may have been stored)", got)
	}
	if n := reg.Snapshot().Counters["cache.hits"]; n != 0 {
		t.Errorf("cache.hits = %d after two deadline kills, want 0", n)
	}
}

// TestImpliesCacheConcurrentClients hammers one server with 32
// concurrent clients mixing a handful of distinct queries. Run under
// -race this is the cache's concurrency-safety proof; functionally,
// every response must carry the same verdict its query always has.
func TestImpliesCacheConcurrentClients(t *testing.T) {
	_, reg, ts := newTestServer(t, Config{CacheSize: 8})
	queries := make([]string, 6)
	for i := range queries {
		// Distinct schemas → distinct fingerprints; cap 8 over 6 hot keys
		// plus shard-local eviction keeps Put/Get/evict paths all busy.
		queries[i] = fmt.Sprintf(`{
			"schema": ["R%d(A, B, C)"],
			"sigma": ["R%d: A -> B", "R%d: B -> C"],
			"goal": "R%d: A -> C"
		}`, i, i, i, i)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 32*20)
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				q := queries[(w+i)%len(queries)]
				// postJSON fails the test with t.Fatalf, which must not run
				// off the test goroutine; report through the channel instead.
				resp, err := http.Post(ts.URL+"/v1/implies", "application/json", strings.NewReader(q))
				if err != nil {
					errs <- err.Error()
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err.Error()
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("status %d: %s", resp.StatusCode, body)
					return
				}
				var out ImpliesResponse
				if err := json.Unmarshal(body, &out); err != nil {
					errs <- err.Error()
					return
				}
				if out.Verdict != "yes" {
					errs <- fmt.Sprintf("verdict %q, want yes (X-Cache %s)",
						out.Verdict, resp.Header.Get("X-Cache"))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatalf("concurrent client failed: %s", e)
	}
	s := reg.Snapshot()
	if s.Counters["cache.hits"] == 0 {
		t.Errorf("no cache hits across %d requests", 32*20)
	}
}

// TestCachedCounterexampleText: a counterexample is rendered once, when
// its answer enters the cache, and every hit serves that text: byte for
// byte the miss's, for an ind No and a chase No.
func TestCachedCounterexampleText(t *testing.T) {
	_, _, ts := newTestServer(t, Config{CacheSize: 64})
	for _, c := range []struct{ engine, body string }{
		{"ind", `{"schema": ["MGR(NAME, DEPT)", "EMP(NAME, DEPT, SAL)"],
			"sigma": ["MGR[NAME,DEPT] <= EMP[NAME,DEPT]"], "goal": "EMP[NAME] <= MGR[NAME]"}`},
		{"chase", `{"schema": ["R(X, Y)", "S(T, U)"],
			"sigma": ["R[X,Y] <= S[T,U]", "S: T -> U"], "goal": "S: U -> T"}`},
	} {
		var texts [2]string
		for i, want := range []string{"MISS", "HIT"} {
			r, b := postJSON(t, ts.URL+"/v1/implies", c.body)
			var resp ImpliesResponse
			if err := json.Unmarshal(b, &resp); err != nil || r.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d, %v\n%s", c.engine, r.StatusCode, err, b)
			}
			if got := r.Header.Get("X-Cache"); got != want || resp.Verdict != "no" || resp.Engine != c.engine || resp.Counterexample == "" {
				t.Fatalf("%s: X-Cache %s verdict %s engine %s counterexample %q; want %s no %s with a counterexample",
					c.engine, got, resp.Verdict, resp.Engine, resp.Counterexample, want, c.engine)
			}
			texts[i] = resp.Counterexample
		}
		if texts[0] != texts[1] {
			t.Errorf("%s: hit's counterexample differs from the miss's\nmiss:\n%s\nhit:\n%s", c.engine, texts[0], texts[1])
		}
	}
}
