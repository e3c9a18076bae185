package serve

// One compile path and one engine pool: a PUT compiles its fields
// through the memo inline requests use, so re-PUTting a held text is a
// memo hit that publishes the very System compiled the first time; and
// every registered version of every name, and every inline request,
// chases on one engine pool, so an edit leaves the engines of the
// components it did not touch warm.

import (
	"encoding/json"
	"net/http"
	"testing"

	"indfd/internal/chase"
	"indfd/internal/core"
)

// putFields registers schema and sigma under name and decodes the reply.
func putFields(t *testing.T, baseURL, name string, schemaLines, sigma []string) SchemaResponse {
	t.Helper()
	body, err := json.Marshal(SchemaPutRequest{Schema: schemaLines, Sigma: sigma})
	if err != nil {
		t.Fatal(err)
	}
	return putSchema(t, baseURL, name, string(body))
}

// batchByName answers goals against the registered name.
func batchByName(t *testing.T, baseURL, name string, goals []string, budget int) BatchResponse {
	t.Helper()
	body, err := json.Marshal(BatchRequest{SchemaName: name, Goals: goals, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	r, raw := postJSON(t, baseURL+"/v1/batch", string(body))
	if r.StatusCode != http.StatusOK {
		t.Fatalf("batch %s = %d\n%s", name, r.StatusCode, raw)
	}
	var resp BatchResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != len(goals) {
		t.Fatalf("batch %s: %d answers for %d goals", name, len(resp.Answers), len(goals))
	}
	return resp
}

// TestSchemaPutCompilesThroughMemo: with the cache on, PUT T, then U,
// then T again. The third PUT is one compile.hits and no
// compile.misses, publishes the System the first PUT compiled as
// version 3, evicts what a fresh compile would have evicted, and its
// answers equal a fresh core.System's over T. A PUT that gets a 400
// leaves nothing in the memo.
func TestSchemaPutCompilesThroughMemo(t *testing.T) {
	srv, reg, ts := newTestServer(t, Config{CacheSize: 256, MaxBatch: 16})
	hits, misses := reg.Counter("compile.hits"), reg.Counter("compile.misses")
	schemaLines := []string{"R(A, B, C)", "S(X, Y)", "T(V, W)", "U(P, Q)"}
	sigmaT := []string{"R: A -> B", "R: B -> C", "S[X,Y] <= T[V,W]", "T: V -> W", "U[P] <= T[V]"}
	sigmaU := []string{"R: A -> B", "R: C -> B", "S[X,Y] <= T[V,W]", "T: V -> W", "U[P] <= T[V]"}
	goals := []string{"R: A -> C", "R: A -> B", "R: C -> A", "R: B -> C", "S: X -> Y",
		"S[X] <= T[V]", "U[P] <= T[V]", "U: P -> Q"}
	const budget = 64

	first := putFields(t, ts.URL, "edit", schemaLines, sigmaT)
	e1, _ := srv.schemas.Get("edit")
	batchByName(t, ts.URL, "edit", goals, budget)
	second := putFields(t, ts.URL, "edit", schemaLines, sigmaU)
	batchByName(t, ts.URL, "edit", goals, budget)

	h, m := hits.Value(), misses.Value()
	third := putFields(t, ts.URL, "edit", schemaLines, sigmaT)
	if hits.Value() != h+1 || misses.Value() != m {
		t.Errorf("re-PUT of T: compile.hits %d -> %d, misses %d -> %d; want one hit, no miss",
			h, hits.Value(), m, misses.Value())
	}
	// The counts a fresh compile of each PUT returns: swapping R: B -> C
	// and R: C -> B evicts the four cached R answers, and only them.
	for _, c := range []struct {
		label       string
		got         SchemaResponse
		version     int64
		invalidated int
	}{{"PUT T", first, 1, 0}, {"PUT U", second, 2, 4}, {"re-PUT T", third, 3, 4}} {
		if c.got.Version != c.version || c.got.Invalidated != c.invalidated {
			t.Errorf("%s: version %d invalidated %d, want %d and %d",
				c.label, c.got.Version, c.got.Invalidated, c.version, c.invalidated)
		}
	}
	e3, _ := srv.schemas.Get("edit")
	if e3.Sys != e1.Sys {
		t.Errorf("re-PUT of T compiled a new System; want the memoized one")
	}

	db, members, err := parseSchemaSigma(schemaLines, sigmaT)
	if err != nil {
		t.Fatal(err)
	}
	fresh := core.NewSystem(db)
	if err := fresh.Add(members...); err != nil {
		t.Fatal(err)
	}
	goalDeps, err := parseGoals(db, "goals", goals)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		resp := batchByName(t, ts.URL, "edit", goals, budget)
		if resp.Version != 3 {
			t.Errorf("batch after re-PUT echoed version %d, want 3", resp.Version)
		}
		for i, got := range resp.Answers {
			a, err := fresh.Implies(goalDeps[i], core.Options{ChaseMaxTuples: budget})
			if err != nil {
				t.Fatalf("fresh %s: %v", goals[i], err)
			}
			var want ImpliesResponse
			fillAnswer(&want, a)
			if got.Status != http.StatusOK || got.Verdict != want.Verdict || got.Engine != want.Engine ||
				got.Proof != want.Proof || got.Counterexample != want.Counterexample ||
				got.ChaseRounds != want.ChaseRounds || got.ChaseTuples != want.ChaseTuples {
				t.Errorf("pass %d %s (cache %s): got %s/%s proof %q, fresh system %s/%s proof %q",
					pass, goals[i], got.Cache, got.Verdict, got.Engine, got.Proof,
					want.Verdict, want.Engine, want.Proof)
			}
		}
	}

	n, m := srv.memo.len(), misses.Value()
	if r, b := putJSON(t, ts.URL+"/v1/schemas/edit",
		`{"schema": ["R(A, B, C)"], "sigma": ["R: A -> D"]}`); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("PUT of an invalid Σ = %d, want 400\n%s", r.StatusCode, b)
	}
	if srv.memo.len() != n || misses.Value() != m+1 {
		t.Errorf("400 PUT: memo %d -> %d systems, compile.misses %d -> %d; want it looked up, not retained",
			n, srv.memo.len(), m, misses.Value())
	}
	if e, _ := srv.schemas.Get("edit"); e.Version != 3 {
		t.Errorf("400 PUT published version %d", e.Version)
	}
}

// TestOneEnginePool: two names with two versions each, and an inline
// request, chase on one pool. An edit to one component leaves the
// engine of the other warm: a chase goal on it after the edit, by name
// or inline, is a pool hit.
func TestOneEnginePool(t *testing.T) {
	srv, reg, ts := newTestServer(t, Config{CacheSize: 256})
	poolHits := reg.Counter("pool.hits")
	schemaLines := []string{"R(A, B)", "S(A, B)", "T(P, Q)"}
	v1 := []string{"R[A,B] <= S[A,B]", "S: A -> B", "T: P -> Q"}
	v2 := []string{"R[A,B] <= S[A,B]", "S: A -> B", "T: Q -> P"}

	askChase := func(label string, body any) {
		t.Helper()
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		r, out := postJSON(t, ts.URL+"/v1/implies", string(raw))
		var resp ImpliesResponse
		if err := json.Unmarshal(out, &resp); err != nil || r.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d: %v\n%s", label, r.StatusCode, err, out)
		}
		if resp.Engine != "chase" || r.Header.Get("X-Cache") != "MISS" {
			t.Fatalf("%s: engine %q cache %q; the test needs an uncached chase", label, resp.Engine, r.Header.Get("X-Cache"))
		}
	}

	putFields(t, ts.URL, "a", schemaLines, v1)
	putFields(t, ts.URL, "b", schemaLines, v1)
	a1, _ := srv.schemas.Get("a")
	b1, _ := srv.schemas.Get("b")
	askChase("a v1", ImpliesRequest{SchemaName: "a", Goal: "R: A -> B"})

	// The edit swaps T's FD; the R/S component is untouched.
	putFields(t, ts.URL, "a", schemaLines, v2)
	putFields(t, ts.URL, "b", schemaLines, v2)
	a2, _ := srv.schemas.Get("a")
	b2, _ := srv.schemas.Get("b")
	for _, e := range []struct {
		label string
		pool  *chase.EnginePool
	}{{"b v1", b1.Pool}, {"a v2", a2.Pool}, {"b v2", b2.Pool}} {
		if e.pool != a1.Pool {
			t.Errorf("%s has its own engine pool; want the one a v1 has", e.label)
		}
	}

	h := poolHits.Value()
	askChase("a v2", ImpliesRequest{SchemaName: "a", Goal: "S: B -> A"})
	if poolHits.Value() != h+1 {
		t.Errorf("chase on the unchanged component after the edit: pool.hits %d -> %d, want a hit", h, poolHits.Value())
	}
	h = poolHits.Value()
	askChase("inline", ImpliesRequest{Schema: schemaLines, Sigma: v2, Goal: "R: B -> A"})
	if poolHits.Value() != h+1 {
		t.Errorf("inline chase on a registered shape: pool.hits %d -> %d, want a hit", h, poolHits.Value())
	}
}
