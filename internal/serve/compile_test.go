package serve

// The compiled-system memo: a request whose Σ hits the memo answers as
// a fresh server answers it; a memo holding a valid twin lets none of
// the field escapes through; the count and key-text bounds hold, and a
// 400 is never retained; the memo's bounds also bound what cached fd
// answers keep of their systems; and a hammer of concurrent inline requests
// over shared Σ, with evictions racing the lookups, gets every verdict
// right (make race-hammer runs it under -race -cpu 1,2,8).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"indfd/internal/obs"
)

// serveInProcess drives one request through the handler.
func serveInProcess(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// answerCacheStatus is the answer cache's disposition of a one-goal
// request: the X-Cache header, or the batch answer's cache field.
func answerCacheStatus(t *testing.T, path string, rec *httptest.ResponseRecorder) string {
	t.Helper()
	if path != "/v1/batch" {
		return strings.ToLower(rec.Header().Get("X-Cache"))
	}
	var resp BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.Answers) != 1 {
		t.Fatalf("batch answers: %v\n%s", err, rec.Body.String())
	}
	return resp.Answers[0].Cache
}

// TestCompileMemoDifferential: over the fixture corpus and 400 seeded
// random bodies, a request whose Σ hits the memo but whose budget
// misses the answer cache answers byte for byte as a fresh server
// answers it, apart from request_id and elapsed_us, on /v1/implies,
// /v1/explain and /v1/batch.
func TestCompileMemoDifferential(t *testing.T) {
	config := func() Config {
		return Config{Reg: obs.New(), Logger: slog.New(slog.NewJSONHandler(io.Discard, nil)), CacheSize: 4096}
	}
	srv := New(config())
	hits := srv.reg.Counter("compile.hits")
	bodies := fixtureBodies()
	r := rand.New(rand.NewPCG(14, 3))
	for i := 0; i < 400; i++ {
		bodies[fmt.Sprintf("random %d", i)] = randomImpliesBody(r)
	}
	labels := make([]string, 0, len(bodies))
	for label := range bodies {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	// Every varied request gets a budget no other request sends (the
	// bodies' own are 0, 64 and 40-199), so it misses the answer cache
	// even where two bodies share a goal's component.
	budget := 200
	compared := 0
	for _, label := range labels {
		var req ImpliesRequest
		if err := json.Unmarshal([]byte(bodies[label]), &req); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		// The memo keys on the fields' bytes as sent, so the warm-up
		// sends the spelling json.Marshal gives the varied requests.
		warm, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if rec := serveInProcess(srv.Handler(), http.MethodPost, "/v1/implies", string(warm)); rec.Code != http.StatusOK {
			t.Fatalf("%s: warm-up = %d\n%s", label, rec.Code, rec.Body.String())
		}
		for _, path := range []string{"/v1/implies", "/v1/explain", "/v1/batch"} {
			budget++
			req.Budget = budget
			var v any = req
			if path == "/v1/batch" {
				v = BatchRequest{
					Schema: req.Schema, Sigma: req.Sigma, Goals: []string{req.Goal},
					Finite: req.Finite, Budget: req.Budget, Search: req.Search,
					TimeoutMS: req.TimeoutMS, Explain: req.Explain, Provenance: req.Provenance,
				}
			}
			varied, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			before := hits.Value()
			got := serveInProcess(srv.Handler(), http.MethodPost, path, string(varied))
			if hits.Value() != before+1 {
				t.Errorf("%s on %s: compile.hits %d -> %d, want one memo hit", label, path, before, hits.Value())
			}
			if status := answerCacheStatus(t, path, got); status != "miss" {
				t.Errorf("%s on %s: answer cache %q, want miss", label, path, status)
			}
			want := serveInProcess(New(config()).Handler(), http.MethodPost, path, string(varied))
			if got.Code == http.StatusServiceUnavailable || want.Code == http.StatusServiceUnavailable {
				continue // deadline-killed partials are wall-clock dependent
			}
			if got.Code != want.Code {
				t.Errorf("%s on %s: status %d, fresh server %d", label, path, got.Code, want.Code)
				continue
			}
			if g, w := stripVolatile(t, got.Body.Bytes()), stripVolatile(t, want.Body.Bytes()); g != w {
				t.Errorf("%s on %s: memo hit diverged:\nmemo:  %s\nfresh: %s", label, path, g, w)
			}
			compared++
		}
	}
	if compared < 3*len(bodies)*9/10 {
		t.Errorf("only %d of %d memo-hit answers compared", compared, 3*len(bodies))
	}
}

// TestCompileMemoEscapes re-runs TestFieldEscapes' rows after sending
// each row's valid twin, so the memo holds the twin's system when the
// row arrives. Every row must still be a 400 naming its entry that
// leaves no trace. The line-break rows' twins split the entry in two:
// a key that joined entries with "\n" would hand them the twin's
// system.
func TestCompileMemoEscapes(t *testing.T) {
	srv, reg, ts := newTestServer(t, Config{CacheSize: 64})
	if r, b := putJSON(t, ts.URL+"/v1/schemas/app",
		`{"schema": ["R(A, B, C)"], "sigma": ["R: A -> B"]}`); r.StatusCode != http.StatusOK {
		t.Fatalf("PUT app = %d\n%s", r.StatusCode, b)
	}
	version := func() int64 {
		e, _ := srv.schemas.Get("app")
		return e.Version
	}
	errorsTotal := reg.Counter("serve.errors_total")
	hits := reg.Counter("compile.hits")
	schema := []string{"R(A, B, C)"}
	for _, row := range []struct{ bad, twin fieldCase }{
		{fieldCase{name: "emvd goal", schema: schema, sigma: []string{"R: A -> B"},
			goal: "R: A ->> B | C", field: "goal"},
			fieldCase{schema: schema, sigma: []string{"R: A -> B"}, goal: "R: A -> B"}},
		{fieldCase{name: "template dependency in sigma", schema: schema,
			sigma: []string{"R: B -> C", "R :: (x, y, z) (x, y2, z2) / (x, y, z2)"}, field: "sigma[1]"},
			fieldCase{schema: schema, sigma: []string{"R: B -> C"}}},
		{fieldCase{name: "line break in schema", schema: []string{"R(A, B, C)\nR: B -> C"},
			sigma: []string{"R: A -> B"}, field: "schema[0]"},
			fieldCase{schema: schema, sigma: []string{"R: B -> C", "R: A -> B"}}},
		{fieldCase{name: "line break in sigma", schema: schema,
			sigma: []string{"R: A -> B # one\nR: B -> C"}, field: "sigma[0]"},
			fieldCase{schema: schema, sigma: []string{"R: A -> B # one", "R: B -> C"}}},
		{fieldCase{name: "line break in goal", schema: schema, sigma: []string{"R: A -> B"},
			goal: "R: A -> C\nR: B -> C", field: "goal"},
			fieldCase{schema: schema, sigma: []string{"R: A -> B"}, goal: "R: A -> C"}},
		{fieldCase{name: "scheme declaration in sigma", schema: schema,
			sigma: []string{"R: A -> B", "schema S(D)"}, field: "sigma[1]"},
			fieldCase{schema: schema, sigma: []string{"R: A -> B"}}},
	} {
		bad, twin := row.bad.requests(), row.twin.requests()
		for i, fr := range bad {
			label := row.bad.name + " on " + fr.label
			if status, out := doFieldRequest(t, ts.URL, twin[i]); status != http.StatusOK {
				t.Fatalf("%s: twin status = %d, want 200; body %v", label, status, out)
			}
			memoHeld := hits.Value()
			if fr.path == "/v1/implies" || fr.path == "/v1/batch" {
				if !strings.HasSuffix(fr.label, "by name") {
					// The twin is in the memo: sending it again hits.
					if status, _ := doFieldRequest(t, ts.URL, twin[i]); status != http.StatusOK || hits.Value() != memoHeld+1 {
						t.Fatalf("%s: twin repeat = %d, compile.hits %d -> %d; want 200 and a memo hit",
							label, status, memoHeld, hits.Value())
					}
				}
			}
			cached, v, errs := srv.cache.Len(), version(), errorsTotal.Value()
			status, out := doFieldRequest(t, ts.URL, fr)
			if status != http.StatusBadRequest {
				t.Errorf("%s: status = %d, want 400; body %v", label, status, out)
				continue
			}
			if msg, _ := out["error"].(string); !strings.HasPrefix(msg, fr.field+": ") {
				t.Errorf("%s: error %q does not name %s", label, msg, fr.field)
			}
			if n := srv.cache.Len(); n != cached {
				t.Errorf("%s: cache holds %d entries, was %d", label, n, cached)
			}
			if got := version(); got != v {
				t.Errorf("%s: app version = %d, was %d", label, got, v)
			}
			if n := errorsTotal.Value(); n != errs {
				t.Errorf("%s: serve.errors_total = %d, was %d", label, n, errs)
			}
		}
	}
}

// TestCompileMemoBounds pins the memo's bounds: 300 distinct Σ leave the
// 256 most recently used; Σ text past the 512 KiB budget evicts the
// least recently used; a Σ whose key alone is longer is answered but
// not retained; a request that gets a 400 is not retained, whether its
// Σ or its goal failed; and CacheSize 0 builds no memo.
func TestCompileMemoBounds(t *testing.T) {
	srv, reg, _ := newTestServer(t, Config{CacheSize: 64})
	hits, misses, evictions := reg.Counter("compile.hits"), reg.Counter("compile.misses"), reg.Counter("compile.evictions")
	implies := func(sigma, goal string) (int, ImpliesResponse) {
		t.Helper()
		body, err := json.Marshal(ImpliesRequest{Schema: []string{"R(A, B)"}, Sigma: []string{sigma}, Goal: goal})
		if err != nil {
			t.Fatal(err)
		}
		rec := serveInProcess(srv.Handler(), http.MethodPost, "/v1/implies", string(body))
		var resp ImpliesResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("unmarshal: %v\n%s", err, rec.Body.String())
		}
		return rec.Code, resp
	}
	// expect sends sigma with a valid goal and checks the answer and
	// which compile counter moved.
	expect := func(label, sigma string, hit bool) {
		t.Helper()
		h, m := hits.Value(), misses.Value()
		status, resp := implies(sigma, "R: A -> B")
		if status != http.StatusOK || resp.Verdict != "yes" {
			t.Fatalf("%s: status %d verdict %q, want 200 yes", label, status, resp.Verdict)
		}
		if gotHit := hits.Value() == h+1 && misses.Value() == m; gotHit != hit {
			t.Errorf("%s: compile.hits %d -> %d, misses %d -> %d; want hit=%t",
				label, h, hits.Value(), m, misses.Value(), hit)
		}
	}
	numbered := func(i int) string { return fmt.Sprintf("R: A -> B # %d", i) }

	for i := 0; i < 300; i++ {
		expect("distinct Σ", numbered(i), false)
	}
	if n := srv.memo.len(); n != memoMaxSystems {
		t.Errorf("memo holds %d systems after 300 distinct Σ, want %d", n, memoMaxSystems)
	}
	if n := evictions.Value(); n != 300-memoMaxSystems {
		t.Errorf("compile.evictions = %d, want %d", n, 300-memoMaxSystems)
	}
	expect("most recent Σ", numbered(299), true)
	expect("least recent Σ", numbered(0), false)

	// Three Σ of 200 KiB overrun the key-text budget: every small
	// system goes, then the oldest large one.
	large := func(i int) string { return numbered(i) + " " + strings.Repeat("x", 200<<10) }
	for i := 0; i < 3; i++ {
		expect("large Σ", large(i), false)
	}
	if n, b := srv.memo.len(), srv.memo.keyBytes; n != 2 || b > memoMaxKeyBytes {
		t.Errorf("memo holds %d systems, %d key bytes after three 200 KiB Σ; want 2 within %d", n, b, memoMaxKeyBytes)
	}
	expect("newest large Σ", large(2), true)
	expect("evicted large Σ", large(0), false)

	// A Σ whose key alone exceeds the budget is answered, not retained.
	n, b := srv.memo.len(), srv.memo.keyBytes
	oversized := numbered(0) + " " + strings.Repeat("x", memoMaxKeyBytes)
	expect("oversized Σ", oversized, false)
	expect("oversized Σ again", oversized, false)
	if srv.memo.len() != n || srv.memo.keyBytes != b {
		t.Errorf("oversized Σ changed the memo: %d systems, %d key bytes; was %d, %d", srv.memo.len(), srv.memo.keyBytes, n, b)
	}

	// A 400 is never retained: not a Σ that fails, and not a valid Σ
	// asked a goal that fails.
	for _, c := range []struct{ sigma, goal string }{
		{"R: A -> Z", "R: A -> B"},
		{"R: A -> B # asked a bad goal", "R: A -> Z"},
	} {
		for range 2 {
			m := misses.Value()
			if status, _ := implies(c.sigma, c.goal); status != http.StatusBadRequest {
				t.Fatalf("sigma %q goal %q = %d, want 400", c.sigma, c.goal, status)
			}
			if misses.Value() != m+1 || srv.memo.len() != n {
				t.Errorf("sigma %q goal %q: compile.misses %d -> %d, memo %d systems (was %d); a 400 was retained",
					c.sigma, c.goal, m, misses.Value(), srv.memo.len(), n)
			}
		}
	}
	expect("valid goal after a bad one", "R: A -> B # asked a bad goal", false)

	off, offReg, _ := newTestServer(t, Config{})
	if off.memo != nil {
		t.Fatal("CacheSize 0 built a compiled-system memo")
	}
	if r := serveInProcess(off.Handler(), http.MethodPost, "/v1/implies", fastImplies); r.Code != http.StatusOK {
		t.Fatalf("implies with the memo off = %d", r.Code)
	}
	for name := range offReg.Snapshot().Counters {
		if strings.HasPrefix(name, "compile.") {
			t.Errorf("CacheSize 0 exports %s", name)
		}
	}
}

// TestCachedFDAnswersKeepNoSigma pins that the memo's bounds also bound
// what the answer cache keeps of compiled systems: a cached fd answer
// keeps the lines its proof fired, not its prover or its Σ's text. 96
// distinct inline Σ of about 30 KiB each ask one implied fd goal: a
// 200-FD chain whose first three FDs, the ones the proof fires, carry an
// 8 KiB comment. The memo's key-text bound keeps the last 16 systems.
// Dropping the answer cache then frees about 1.1 KiB an answer, and
// the bound is 4 KiB, slack for what other goroutines hold. An
// answer that kept its prover would free about 90 KiB an answer whose
// system the memo has evicted, and one whose derived attributes were
// sliced from their Σ entries would keep the comments.
func TestCachedFDAnswersKeepNoSigma(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("heap sizes under -race include the detector's shadow")
	}
	srv, _, _ := newTestServer(t, Config{CacheSize: 1024})
	const bodies, chain = 96, 200
	comment := " # " + strings.Repeat("x", 8<<10)
	for i := range bodies {
		attrs := make([]string, chain+1)
		for k := range attrs {
			attrs[k] = fmt.Sprintf("B%dx%d", i, k)
		}
		sigma := make([]string, chain)
		for k := range sigma {
			sigma[k] = "R: " + attrs[k] + " -> " + attrs[k+1]
			if k < 3 {
				sigma[k] += comment
			}
		}
		body, err := json.Marshal(ImpliesRequest{
			Schema: []string{"R(" + strings.Join(attrs, ", ") + ")"},
			Sigma:  sigma,
			Goal:   "R: " + attrs[0] + " -> " + attrs[3],
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := serveInProcess(srv.Handler(), http.MethodPost, "/v1/implies", string(body))
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"engine":"fd","proof":"goal: `) {
			t.Fatalf("body %d = %d, want an fd proof\n%s", i, rec.Code, rec.Body.String())
		}
	}
	if n := srv.cache.Len(); n != bodies {
		t.Fatalf("the cache holds %d answers, want %d", n, bodies)
	}
	t.Logf("the memo holds %d systems", srv.memo.len())
	if n := srv.memo.len(); n >= bodies/2 {
		t.Fatalf("the memo holds %d systems; the test needs it to have evicted most of %d", n, bodies)
	}
	heap := func() int64 {
		runtime.GC()
		runtime.GC() // the second empties sync.Pool's victim cache
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	withCache := heap()
	srv.cache = nil
	perAnswer := (withCache - heap()) / bodies
	runtime.KeepAlive(srv)
	t.Logf("a cached fd answer retains %d bytes", perAnswer)
	if perAnswer > 4<<10 {
		t.Errorf("dropping the answer cache freed %d bytes an answer, want <= 4 KiB", perAnswer)
	}
}

// TestCompileMemoRaceHammer: 32 goroutines send inline /v1/implies,
// /v1/explain and /v1/batch requests over four Σ, each spelled 80 ways
// (a trailing comment changes the memo key, not the meaning), so the
// 320 keys overrun the memo and evictions race the lookups. Every
// verdict is checked against its Σ, and every request makes exactly one
// memo lookup.
func TestCompileMemoRaceHammer(t *testing.T) {
	srv, reg, ts := newTestServer(t, Config{CacheSize: 256, MaxBatch: 16})
	type shape struct {
		schema, sigma, goals, verdicts []string
	}
	shapes := []shape{
		{[]string{"R(A, B, C)"}, []string{"R: A -> B", "R: B -> C"},
			[]string{"R: A -> C", "R: C -> A"}, []string{"yes", "no"}},
		{[]string{"R(A, B, C)"}, []string{"R: A -> B"},
			[]string{"R: A -> C", "R: A -> B"}, []string{"no", "yes"}},
		{[]string{"MGR(NAME, DEPT)", "EMP(NAME, DEPT, SAL)"}, []string{"MGR[NAME,DEPT] <= EMP[NAME,DEPT]"},
			[]string{"MGR[NAME] <= EMP[NAME]", "EMP[NAME] <= MGR[NAME]"}, []string{"yes", "no"}},
		{[]string{"R(X, Y)", "S(T, U)"}, []string{"R[X,Y] <= S[T,U]", "S: T -> U"},
			[]string{"R: X -> Y", "S: U -> T"}, []string{"yes", "no"}},
	}
	const (
		workers   = 32
		perWorker = 24
		spellings = 80
	)
	post := func(path string, body any) ([]byte, error) {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("%s %s = %d: %s", path, b, resp.StatusCode, out)
		}
		return out, err
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sh := shapes[(w+i)%len(shapes)]
				sigma := slices.Clone(sh.sigma)
				sigma[0] += fmt.Sprintf(" # spelling %d", (w*perWorker+i)%spellings)
				if i%3 == 2 {
					raw, err := post("/v1/batch", BatchRequest{Schema: sh.schema, Sigma: sigma, Goals: sh.goals})
					var resp BatchResponse
					if err == nil {
						err = json.Unmarshal(raw, &resp)
					}
					if err != nil || len(resp.Answers) != len(sh.goals) {
						t.Errorf("batch %v: %v (%d answers)", sigma, err, len(resp.Answers))
						continue
					}
					for k, a := range resp.Answers {
						if a.Verdict != sh.verdicts[k] {
							t.Errorf("batch %v: %s = %q, want %q", sigma, sh.goals[k], a.Verdict, sh.verdicts[k])
						}
					}
					continue
				}
				path := "/v1/implies"
				if i%3 == 1 {
					path = "/v1/explain"
				}
				k := (w + i/len(shapes)) % len(sh.goals)
				raw, err := post(path, ImpliesRequest{Schema: sh.schema, Sigma: sigma, Goal: sh.goals[k]})
				var resp ImpliesResponse
				if err == nil {
					err = json.Unmarshal(raw, &resp)
				}
				if err != nil {
					t.Errorf("%s %v: %v", path, sigma, err)
					continue
				}
				if resp.Verdict != sh.verdicts[k] {
					t.Errorf("%s %v: %s = %q, want %q", path, sigma, sh.goals[k], resp.Verdict, sh.verdicts[k])
				}
			}
		}(w)
	}
	wg.Wait()

	lookups := reg.Counter("compile.hits").Value() + reg.Counter("compile.misses").Value()
	if lookups != workers*perWorker {
		t.Errorf("compile.hits + compile.misses = %d, want one lookup per request (%d)", lookups, workers*perWorker)
	}
	if reg.Counter("compile.evictions").Value() == 0 {
		t.Errorf("no evictions: %d spellings did not overrun the memo", len(shapes)*spellings)
	}
	if n := srv.memo.len(); n > memoMaxSystems {
		t.Errorf("memo holds %d systems, bound %d", n, memoMaxSystems)
	}
}

// TestCompileMemoSpellings: the memo keys on the fields' raw bytes, so
// two spellings of the same schema and sigma (here: the whitespace
// inside the arrays) compile once each, hit on their own repeats, and
// answer byte for byte alike apart from request_id and elapsed_us.
func TestCompileMemoSpellings(t *testing.T) {
	srv, reg, _ := newTestServer(t, Config{CacheSize: 64})
	hits, misses := reg.Counter("compile.hits"), reg.Counter("compile.misses")
	spellings := []string{
		`{"schema":["R(A, B, C)"],"sigma":["R: A -> B","R: B -> C"],"goal":"R: A -> C"}`,
		`{"schema": [ "R(A, B, C)" ], "sigma": [ "R: A -> B", "R: B -> C" ], "goal": "R: A -> C"}`,
	}
	var answers []string
	for round := 0; round < 2; round++ {
		for i, body := range spellings {
			h, m := hits.Value(), misses.Value()
			rec := serveInProcess(srv.Handler(), http.MethodPost, "/v1/implies", body)
			if rec.Code != http.StatusOK {
				t.Fatalf("spelling %d: status %d\n%s", i, rec.Code, rec.Body.String())
			}
			if wantHit := round == 1; (hits.Value() == h+1) != wantHit || (misses.Value() == m+1) == wantHit {
				t.Errorf("round %d spelling %d: compile.hits %d -> %d, misses %d -> %d; want hit=%t",
					round, i, h, hits.Value(), m, misses.Value(), wantHit)
			}
			answers = append(answers, stripVolatile(t, rec.Body.Bytes()))
		}
	}
	if n := srv.memo.len(); n != 2 {
		t.Errorf("memo holds %d systems, want one per spelling", n)
	}
	for i, a := range answers[1:] {
		if a != answers[0] {
			t.Errorf("answer %d differs:\n%s\nwant:\n%s", i+1, a, answers[0])
		}
	}
}
