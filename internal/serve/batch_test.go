package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

// putJSON issues a PUT with a JSON body.
func putJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, url, strings.NewReader(body))
	if err != nil {
		t.Fatalf("PUT %s: %v", url, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("PUT %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, b
}

// batchIdentityMix is a four-relation instance whose goals exercise all
// three verdicts and three engines: an IND proof, an FD chain, a mixed
// FD+IND chase, a No with a counterexample, and a budget-killed Unknown.
var batchIdentitySchema = []string{"MGR(NAME, DEPT)", "EMP(NAME, DEPT, SAL)", "R(A, B, C)", "S(T, U)"}
var batchIdentitySigma = []string{
	"MGR[NAME,DEPT] <= EMP[NAME,DEPT]",
	"R: A -> B", "R: B -> C",
	"R[A,B] <= S[T,U]", "S: T -> U",
	"S[T] <= S[U]",
}
var batchIdentityGoals = []string{
	"MGR[NAME] <= EMP[NAME]", // yes, ind engine
	"R: A -> C",              // yes, fd engine
	"R: A -> B",              // yes
	"EMP[NAME] <= MGR[NAME]", // no, with counterexample
	"S: T -> U",              // yes
	"MGR[DEPT] <= EMP[DEPT]", // yes
	"S: U -> T",              // no
	"R[A] <= S[T]",           // yes (projection of the IND)
}

// stripGoalVolatile removes the per-request fields plus the batch-only
// envelope fields so a batch answer and a lone /v1/implies body can be
// compared byte-for-byte as sorted-key JSON.
func stripGoalVolatile(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("unmarshal answer: %v\n%s", err, raw)
	}
	delete(m, "request_id")
	delete(m, "elapsed_us")
	delete(m, "cache")
	delete(m, "status")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(out)
}

// postBatch posts a BatchRequest body and decodes the envelope plus the
// raw per-goal answers (kept raw so comparisons see the wire bytes).
func postBatch(t *testing.T, url, body string) (*http.Response, BatchResponse, []json.RawMessage) {
	t.Helper()
	resp, b := postJSON(t, url, body)
	var env struct {
		BatchResponse
		Answers []json.RawMessage `json:"answers"`
	}
	if err := json.Unmarshal(b, &env); err != nil {
		t.Fatalf("unmarshal batch response: %v\n%s", err, b)
	}
	return resp, env.BatchResponse, env.Answers
}

// TestBatchMatchesSequential is the acceptance pin: every per-goal batch
// answer must be byte-identical (verdict, trace, counterexample, proof)
// to the answer a lone /v1/implies request returns for the same goal.
// Caching is off on both sides so every answer is computed fresh.
func TestBatchMatchesSequential(t *testing.T) {
	mix := map[string]any{
		"schema": batchIdentitySchema,
		"sigma":  batchIdentitySigma,
		"goals":  batchIdentityGoals,
	}
	_, _, ts := newTestServer(t, Config{})
	body, _ := json.Marshal(mix)
	resp, env, answers := postBatch(t, ts.URL+"/v1/batch", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	if env.Goals != len(batchIdentityGoals) || len(answers) != len(batchIdentityGoals) {
		t.Fatalf("goals/answers = %d/%d, want %d", env.Goals, len(answers), len(batchIdentityGoals))
	}
	for i, goal := range batchIdentityGoals {
		one, _ := json.Marshal(map[string]any{
			"schema": batchIdentitySchema,
			"sigma":  batchIdentitySigma,
			"goal":   goal,
		})
		r, b := postJSON(t, ts.URL+"/v1/implies", string(one))
		if r.StatusCode != http.StatusOK {
			t.Fatalf("implies %q = %d\n%s", goal, r.StatusCode, b)
		}
		var st struct {
			Status int `json:"status"`
		}
		if err := json.Unmarshal(answers[i], &st); err != nil || st.Status != http.StatusOK {
			t.Errorf("batch answer %q status = %d, want 200", goal, st.Status)
		}
		got := stripGoalVolatile(t, answers[i])
		want := stripGoalVolatile(t, b)
		if got != want {
			t.Errorf("goal %q diverged:\nbatch:      %s\nsequential: %s", goal, got, want)
		}
	}
}

// TestBatchBudgetKill checks the deterministic-partial path through a
// batch: a budget-killed goal answers unknown with the same partial
// statistics a lone request computes, and is never cached.
func TestBatchBudgetKill(t *testing.T) {
	srv, _, ts := newTestServer(t, Config{CacheSize: 64})
	req := `{
		"schema": ["R(A, B, C)"],
		"sigma": ["R[A,B] <= R[B,C]", "R: A, B -> C"],
		"goals": ["R: A -> C"],
		"budget": 64
	}`
	_, _, answers := postBatch(t, ts.URL+"/v1/batch", req)
	if len(answers) != 1 {
		t.Fatalf("answers = %d, want 1", len(answers))
	}
	var out BatchGoalAnswer
	if err := json.Unmarshal(answers[0], &out); err != nil {
		t.Fatal(err)
	}
	if out.Verdict != "unknown" || out.Status != http.StatusOK {
		t.Fatalf("budget-killed goal = %q/%d, want unknown/200", out.Verdict, out.Status)
	}
	if n := srv.cache.Len(); n != 0 {
		t.Errorf("budget-killed partial was cached (Len=%d)", n)
	}
	one := strings.Replace(strings.Replace(req, `"goals": ["R: A -> C"]`, `"goal": "R: A -> C"`, 1), "batch", "implies", 1)
	r, b := postJSON(t, ts.URL+"/v1/implies", one)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("implies = %d\n%s", r.StatusCode, b)
	}
	if got, want := stripGoalVolatile(t, answers[0]), stripGoalVolatile(t, b); got != want {
		t.Errorf("budget-killed answers diverged:\nbatch:      %s\nsequential: %s", got, want)
	}
	if n := srv.cache.Len(); n != 0 {
		t.Errorf("budget-killed implies answer was cached (Len=%d)", n)
	}
}

// TestBatchRegisteredSchema drives the amortized path: register once,
// batch by name, and check the response pins the (name, version) the
// answers were computed from.
func TestBatchRegisteredSchema(t *testing.T) {
	_, reg, ts := newTestServer(t, Config{})
	r, b := putJSON(t, ts.URL+"/v1/schemas/chain",
		`{"schema": ["R(A, B, C)"], "sigma": ["R: A -> B", "R: B -> C"]}`)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("PUT = %d\n%s", r.StatusCode, b)
	}
	batch := `{"schema_name": "chain", "goals": ["R: A -> C", "R: C -> A"]}`
	resp, env, answers := postBatch(t, ts.URL+"/v1/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch = %d", resp.StatusCode)
	}
	if env.Schema != "chain" || env.Version != 1 {
		t.Errorf("schema/version = %q/%d, want chain/1", env.Schema, env.Version)
	}
	var a0, a1 BatchGoalAnswer
	if err := json.Unmarshal(answers[0], &a0); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(answers[1], &a1); err != nil {
		t.Fatal(err)
	}
	if a0.Verdict != "yes" || a1.Verdict != "no" {
		t.Errorf("verdicts = %q/%q, want yes/no", a0.Verdict, a1.Verdict)
	}

	// A re-registration bumps the version the next batch reports.
	putJSON(t, ts.URL+"/v1/schemas/chain",
		`{"schema": ["R(A, B, C)"], "sigma": ["R: A -> B"]}`)
	_, env2, answers2 := postBatch(t, ts.URL+"/v1/batch", batch)
	if env2.Version != 2 {
		t.Errorf("post-edit version = %d, want 2", env2.Version)
	}
	var a2 BatchGoalAnswer
	if err := json.Unmarshal(answers2[0], &a2); err != nil {
		t.Fatal(err)
	}
	if a2.Verdict != "no" {
		t.Errorf("R: A -> C against the truncated Σ = %q, want no", a2.Verdict)
	}
	if n := reg.Counter("batch.requests").Value(); n != 2 {
		t.Errorf("batch.requests = %d, want 2", n)
	}
	if n := reg.Counter("batch.goals").Value(); n != 4 {
		t.Errorf("batch.goals = %d, want 4", n)
	}
}

// TestBatchValidation pins the 400 paths.
func TestBatchValidation(t *testing.T) {
	_, _, ts := newTestServer(t, Config{MaxBatch: 2})
	for name, body := range map[string]string{
		"no goals":       `{"schema": ["R(A, B)"], "sigma": [], "goals": []}`,
		"too many":       `{"schema": ["R(A, B)"], "sigma": [], "goals": ["R: A -> B", "R: B -> A", "R[A] <= R[B]"]}`,
		"empty goal":     `{"schema": ["R(A, B)"], "sigma": [], "goals": [""]}`,
		"bad goal":       `{"schema": ["R(A, B)"], "sigma": [], "goals": ["R: A => B"]}`,
		"unknown schema": `{"schema_name": "nope", "goals": ["R: A -> B"]}`,
		"name and inline": `{"schema_name": "x", "schema": ["R(A, B)"],
			"goals": ["R: A -> B"]}`,
	} {
		resp, b := postJSON(t, ts.URL+"/v1/batch", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400; body %s", name, resp.StatusCode, b)
		}
	}
}

// TestBatchFanoutRejected: a batch answers its goals in order and has
// no fanout knob, so a body that still sends one is a 400 naming the
// unknown field, like any other typo.
func TestBatchFanoutRejected(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	resp, b := postJSON(t, ts.URL+"/v1/batch",
		`{"schema": ["R(A, B)"], "sigma": ["R: A -> B"], "goals": ["R: A -> B"], "fanout": 2}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(b), `unknown field \"fanout\"`) {
		t.Errorf("batch with fanout = %d %s, want 400 naming the field", resp.StatusCode, b)
	}
}

// TestBatchDeadlineAfterCachedGoal: a cache hit runs no engine and
// builds no deadline context, so a batch's first goal served from the
// cache leaves the context to the goal after it. That goal still runs
// under the deadline the request fixed: the cached goal answers 200 and
// the divergent chase behind it 503 (one goal error), both carrying the
// request's deadline_ms.
func TestBatchDeadlineAfterCachedGoal(t *testing.T) {
	_, reg, ts := newTestServer(t, Config{CacheSize: 64})
	const batch = `{"schema": ["R(A, B, C)"], "sigma": ["R[A,B] <= R[B,C]", "R: A, B -> C"],
		"goals": [%s], "budget": 1000000, "timeout_ms": 50}`
	if r, b := postJSON(t, ts.URL+"/v1/batch", fmt.Sprintf(batch, `"R: A -> A"`)); r.StatusCode != http.StatusOK {
		t.Fatalf("warm-up batch = %d\n%s", r.StatusCode, b)
	}
	resp, _, answers := postBatch(t, ts.URL+"/v1/batch", fmt.Sprintf(batch, `"R: A -> A", "R: A -> C"`))
	if resp.StatusCode != http.StatusOK || len(answers) != 2 {
		t.Fatalf("batch = %d with %d answers, want 200 with 2", resp.StatusCode, len(answers))
	}
	for i, want := range []struct {
		status int
		cache  string
	}{{http.StatusOK, "hit"}, {http.StatusServiceUnavailable, "miss"}} {
		var a BatchGoalAnswer
		if err := json.Unmarshal(answers[i], &a); err != nil {
			t.Fatal(err)
		}
		if a.Status != want.status || a.Cache != want.cache || a.DeadlineMS != 50 {
			t.Errorf("goal %d (%s) = status %d cache %q deadline_ms %d, want %d %q 50",
				i, a.Goal, a.Status, a.Cache, a.DeadlineMS, want.status, want.cache)
		}
	}
	for _, name := range []string{"serve.deadline_exceeded", "batch.goal_errors"} {
		if n := reg.Counter(name).Value(); n != 1 {
			t.Errorf("%s = %d, want 1", name, n)
		}
	}
}

// TestBatchDigestsPerGoal is the satellite pin: each goal of a batch
// observes its own query digest — counts, latency, cache hits — keyed
// by the goal's fingerprint, not one digest for the batch envelope.
func TestBatchDigestsPerGoal(t *testing.T) {
	_, _, ts := newTestServer(t, Config{CacheSize: 64})
	body := `{
		"schema": ["R(A, B, C)"],
		"sigma": ["R: A -> B", "R: B -> C"],
		"goals": ["R: A -> B", "R: A -> C", "R: C -> A"]
	}`
	for i := 0; i < 2; i++ {
		if resp, b := postJSON(t, ts.URL+"/v1/batch", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("batch #%d = %d\n%s", i, resp.StatusCode, b)
		}
	}
	out := getDigests(t, ts.URL, "")
	if len(out.Digests) != 3 {
		t.Fatalf("digests = %d entries, want 3 (one per goal):\n%+v", len(out.Digests), out.Digests)
	}
	for _, d := range out.Digests {
		if d.Count != 2 {
			t.Errorf("digest %q count = %d, want 2", d.Query, d.Count)
		}
		// The second batch was served from the answer cache; the digest
		// sees the workload either way.
		if d.CacheHits != 1 {
			t.Errorf("digest %q cache_hits = %d, want 1", d.Query, d.CacheHits)
		}
		if strings.Contains(d.Query, "batch") {
			t.Errorf("digest keyed by the batch envelope, not the goal: %q", d.Query)
		}
	}
}
