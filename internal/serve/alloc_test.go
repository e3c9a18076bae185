package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"testing"

	"indfd/internal/obs"
)

// chainBatches builds the registered_batch shape: one 32-attribute FD
// chain registered as "chain", and its 496 implied goals Ai -> Aj
// (i < j) cut into 64-goal batch bodies, rotating through the goals so
// consecutive batches never repeat one.
func chainBatches(t *testing.T, s *Server, batches int) []string {
	t.Helper()
	const n = 32
	attrs := make([]string, n)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("A%d", i)
	}
	var sigma, goals []string
	for i := 0; i+1 < n; i++ {
		sigma = append(sigma, fmt.Sprintf("R: %s -> %s", attrs[i], attrs[i+1]))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			goals = append(goals, fmt.Sprintf("R: %s -> %s", attrs[i], attrs[j]))
		}
	}
	put, _ := json.Marshal(SchemaPutRequest{Schema: []string{"R(" + strings.Join(attrs, ", ") + ")"}, Sigma: sigma})
	if rec := serveInProcess(s.Handler(), http.MethodPut, "/v1/schemas/chain", string(put)); rec.Code != http.StatusOK {
		t.Fatalf("PUT = %d\n%s", rec.Code, rec.Body.String())
	}
	bodies := make([]string, batches)
	for b := range bodies {
		req := BatchRequest{SchemaName: "chain", Goals: make([]string, 64)}
		for i := range req.Goals {
			req.Goals[i] = goals[(64*b+i)%len(goals)]
		}
		body, _ := json.Marshal(req)
		bodies[b] = string(body)
	}
	return bodies
}

// TestBatchGoalAllocs pins what one goal of a registered FD batch
// allocates through the whole handler (decode, goal parse, cache key,
// cache, fd prover, proof text, digest, encode), amortizing the
// request's own cost over its 64 goals: every goal a cache hit, and
// every goal a miss that runs the closure and is put. No tree is built
// for a batch goal, and the goal is rendered once. The goals run in
// order on the request's goroutine, as depserve answers every batch.
func TestBatchGoalAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	for _, tc := range []struct {
		name      string
		cacheSize int
		want      string
		ceiling   float64
	}{
		// 4096 entries hold all 496 goals: after one warm pass every
		// goal hits.
		{"cached", 4096, "hit", 8},
		// 64 entries in 16 shards of 4, against 496 goals in rotation:
		// each goal comes back after 495 others and has been evicted.
		{"uncached", 64, "miss", 10},
	} {
		s := New(Config{Reg: obs.New(), Logger: slog.New(slog.NewJSONHandler(io.Discard, nil)), CacheSize: tc.cacheSize})
		bodies := chainBatches(t, s, 31) // 31×64 = 4 rotations of 496
		for pass := 0; pass < 2; pass++ {
			for _, body := range bodies {
				rec := serveInProcess(s.Handler(), http.MethodPost, "/v1/batch", body)
				var resp BatchResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
					t.Fatalf("%s: batch = %d, %v\n%s", tc.name, rec.Code, err, rec.Body.String())
				}
				for _, a := range resp.Answers {
					if a.Verdict != "yes" || (pass == 1 && a.Cache != tc.want) {
						t.Fatalf("%s pass %d: goal %s verdict %s cache %s, want yes %s", tc.name, pass, a.Goal, a.Verdict, a.Cache, tc.want)
					}
				}
			}
		}
		next := 0
		got := testing.AllocsPerRun(len(bodies), func() {
			serveInProcess(s.Handler(), http.MethodPost, "/v1/batch", bodies[next%len(bodies)])
			next++
		}) / 64
		t.Logf("%s: %.2f allocs/goal", tc.name, got)
		if got > tc.ceiling {
			t.Errorf("%s: %.2f allocs/goal, ceiling %.0f", tc.name, got, tc.ceiling)
		}
	}
}

// TestMemoHitImpliesAllocs pins the inline request the compiled-system
// memo exists for: a repeated /v1/implies body whose schema and sigma
// hit the memo by their raw bytes, so the fields are never decoded into
// entries, and whose answer hits the cache. Measured 54 allocations per
// request (Go 1.24, linux/amd64), most of them the HTTP and JSON
// plumbing around the lookups; decoding the fields into entries to key
// the memo made it 96, building the deadline context before the lookup
// and formatting the fingerprint's flags made it 84, an access-log
// line per request, three context values, fmt-minted trace IDs and
// rebuilt header keys made it 77, and setting Content-Type and X-Cache
// through Header.Set made it 56.
func TestMemoHitImpliesAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	s := New(Config{Reg: obs.New(), Logger: slog.New(slog.NewJSONHandler(io.Discard, nil)), CacheSize: 64})
	hits := s.reg.Counter("compile.hits")
	body := `{"schema": ["R(A, B, C, D)"], "sigma": ["R: A -> B", "R: B -> C", "R: C -> D"], "goal": "R: A -> D"}`
	post := func() {
		if rec := serveInProcess(s.Handler(), http.MethodPost, "/v1/implies", body); rec.Code != http.StatusOK {
			t.Fatalf("implies = %d\n%s", rec.Code, rec.Body.String())
		}
	}
	post()
	before := hits.Value()
	got := testing.AllocsPerRun(100, post)
	if hits.Value() == before {
		t.Fatal("repeats did not hit the compiled-system memo")
	}
	t.Logf("%.1f allocs/request", got)
	if got > 54 {
		t.Errorf("%.1f allocs/request, ceiling 54", got)
	}
}

// TestHealthzAllocs pins the envelope every request pays: GET /healthz
// through instrument and the JSON error wrapper — request ID, trace and
// span IDs, the response headers, the request's one context value, the
// status writer, the metrics and the sampled access log (640 requests
// hold exactly ten sampled lines) — plus the handler's small JSON body
// and the test's own request and recorder. Measured 40 allocations per
// request (Go 1.24, linux/amd64); an access-log line per request, three
// context values, fmt-minted trace IDs and rebuilt header keys made it
// 58, and setting Content-Type through Header.Set made it 41.
func TestHealthzAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	s := New(Config{Reg: obs.New(), Logger: slog.New(slog.NewJSONHandler(io.Discard, nil))})
	get := func() {
		if rec := serveInProcess(s.Handler(), http.MethodGet, "/healthz", ""); rec.Code != http.StatusOK {
			t.Fatalf("healthz = %d\n%s", rec.Code, rec.Body.String())
		}
	}
	get()
	got := testing.AllocsPerRun(10*accessLogSample, get)
	t.Logf("%.1f allocs/request", got)
	if got > 40 {
		t.Errorf("%.1f allocs/request, ceiling 40", got)
	}
}
