package serve

// Footprint-aware cache correctness: differential pinning of cached
// against uncached answers over the fixed fixtures and seeded random
// instances, and the surgical-invalidation contract — a registry edit
// evicts exactly the cached answers whose footprint touched a changed
// member, so registering a dependency over unrelated relations leaves
// the whole cache warm (whole-Σ keying would evict everything).

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"testing"

	"indfd/internal/core"
)

// randomImpliesBody draws one random implication instance — schema,
// dependency set, goal, tuple budget — rendered as a /v1/implies JSON
// body. The distribution mirrors the chase package's differential
// sweep: 2-4 relations of width 2-4, a 2-5 member Σ mixing FDs, RDs
// and INDs, any goal kind.
func randomImpliesBody(r *rand.Rand) string {
	attrPool := []string{"A", "B", "C", "D"}
	nRels := 2 + r.IntN(3)
	schema := make([]string, nRels)
	names := make([]string, nRels)
	widths := make([]int, nRels)
	for i := range schema {
		names[i] = fmt.Sprintf("R%d", i)
		w := 2 + r.IntN(3)
		widths[i] = w
		attrs := ""
		for j := 0; j < w; j++ {
			if j > 0 {
				attrs += ", "
			}
			attrs += attrPool[j]
		}
		schema[i] = fmt.Sprintf("%s(%s)", names[i], attrs)
	}
	pick := func(i, n int) string {
		perm := r.Perm(widths[i])[:n]
		out := ""
		for k, p := range perm {
			if k > 0 {
				out += ", "
			}
			out += attrPool[p]
		}
		return out
	}
	randFD := func() string {
		i := r.IntN(nRels)
		return fmt.Sprintf("%s: %s -> %s", names[i], pick(i, 1+r.IntN(widths[i]-1)), pick(i, 1))
	}
	randRD := func() string {
		i := r.IntN(nRels)
		return fmt.Sprintf("%s[%s == %s]", names[i], pick(i, 1), pick(i, 1))
	}
	randIND := func() string {
		i, j := r.IntN(nRels), r.IntN(nRels)
		w := min(widths[i], widths[j])
		n := 1 + r.IntN(w)
		return fmt.Sprintf("%s[%s] <= %s[%s]", names[i], pick(i, n), names[j], pick(j, n))
	}
	randDep := func() string {
		switch r.IntN(4) {
		case 0:
			return randFD()
		case 1:
			return randRD()
		default:
			return randIND()
		}
	}
	var sigma []string
	for k := 2 + r.IntN(4); k > 0; k-- {
		sigma = append(sigma, randDep())
	}
	var goal string
	switch r.IntN(3) {
	case 0:
		goal = randFD()
	case 1:
		goal = randRD()
	default:
		goal = randIND()
	}
	req := map[string]any{
		"schema":     schema,
		"sigma":      sigma,
		"goal":       goal,
		"budget":     40 + r.IntN(160),
		"timeout_ms": 2000,
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// diffCachedUncached posts one body to the uncached server once and to
// the cached server twice, and requires all three answers identical
// modulo request_id/elapsed_us. Returns whether the trial counted
// (deadline-killed trials are skipped: their partial statistics are
// wall-clock-dependent) and whether the second cached post was a HIT.
func diffCachedUncached(t *testing.T, label, body, uncachedURL, cachedURL string) (compared, hit bool) {
	t.Helper()
	r0, b0 := postJSON(t, uncachedURL+"/v1/implies", body)
	r1, b1 := postJSON(t, cachedURL+"/v1/implies", body)
	r2, b2 := postJSON(t, cachedURL+"/v1/implies", body)
	for i, r := range []*http.Response{r0, r1, r2} {
		if r.StatusCode == http.StatusServiceUnavailable {
			return false, false
		}
		if r.StatusCode != http.StatusOK {
			t.Fatalf("%s: post %d status = %d", label, i, r.StatusCode)
		}
	}
	want := stripVolatile(t, b0)
	if got := stripVolatile(t, b1); got != want {
		t.Errorf("%s: first cached answer diverged:\ncached:   %s\nuncached: %s", label, got, want)
	}
	if got := stripVolatile(t, b2); got != want {
		t.Errorf("%s: repeat cached answer diverged:\ncached:   %s\nuncached: %s", label, got, want)
	}
	return true, r2.Header.Get("X-Cache") == "HIT"
}

// fixtureBodies is the fixed corpus: the instance families the repo's
// engine tests pin, rendered as request bodies.
func fixtureBodies() map[string]string {
	return map[string]string{
		"prop4.1 fd": `{"schema": ["R(X, Y)", "S(T, U)"],
			"sigma": ["R[X,Y] <= S[T,U]", "S: T -> U"], "goal": "R: X -> Y"}`,
		"prop4.1 rd": `{"schema": ["R(X, Y)", "S(T, U)"],
			"sigma": ["R[X,Y] <= S[T,U]", "S: T -> U"], "goal": "R[X == Y]"}`,
		"prop4.1 not-implied": `{"schema": ["R(X, Y)", "S(T, U)"],
			"sigma": ["R[X,Y] <= S[T,U]", "S: T -> U"], "goal": "S: U -> T"}`,
		"ind chain": `{"schema": ["R(A, B)", "S(C, D)", "T(E, F)"],
			"sigma": ["R[A] <= S[C]", "S[C] <= T[E]"], "goal": "R[A] <= T[E]"}`,
		"ind chain not-implied": `{"schema": ["R(A, B)", "S(C, D)", "T(E, F)"],
			"sigma": ["R[A] <= S[C]", "S[C] <= T[E]"], "goal": "T[E] <= R[A]"}`,
		"fd chain": `{"schema": ["R(A, B, C, D)"],
			"sigma": ["R: A -> B", "R: B -> C", "R: C -> D"], "goal": "R: A -> D"}`,
		"thm4.4 finite": `{"schema": ["R(A, B)"],
			"sigma": ["R[A] <= R[B]", "R: A -> B"], "goal": "R[B] <= R[A]", "finite": true}`,
		"thm4.4 unrestricted": `{"schema": ["R(A, B)"],
			"sigma": ["R[A] <= R[B]", "R: A -> B"], "goal": "R[B] <= R[A]"}`,
		"divergent budget": `{"schema": ["R(A, B, C)"],
			"sigma": ["R[A,B] <= R[B,C]", "R: A, B -> C"], "goal": "R: A -> C", "budget": 64}`,
		"explain chase": `{"schema": ["R(A, B)", "S(A, B)"],
			"sigma": ["R[A,B] <= S[A,B]", "S: A -> B"], "goal": "R: A -> B", "explain": true}`,
	}
}

// TestFootprintCacheDifferential is the satellite pin: footprint-keyed
// cache answers are byte-identical to uncached answers over the fixture
// corpus plus ~400 seeded random instances — Yes verdicts (derivation
// footprints), No verdicts (profiler footprints), and budget-killed
// Unknowns, which must never be cached at all.
func TestFootprintCacheDifferential(t *testing.T) {
	_, _, uncached := newTestServer(t, Config{})
	cachedSrv, _, cached := newTestServer(t, Config{CacheSize: 4096})

	for label, body := range fixtureBodies() {
		diffCachedUncached(t, label, body, uncached.URL, cached.URL)
	}

	r := rand.New(rand.NewPCG(42, 7))
	compared, hits, unknowns := 0, 0, 0
	for trial := 0; trial < 400; trial++ {
		body := randomImpliesBody(r)
		label := fmt.Sprintf("trial %d: %s", trial, body)
		ok, hit := diffCachedUncached(t, label, body, uncached.URL, cached.URL)
		if !ok {
			continue
		}
		compared++
		if hit {
			hits++
		} else {
			unknowns++
		}
	}
	t.Logf("compared %d random instances: %d cache hits, %d uncacheable (unknown verdicts)",
		compared, hits, unknowns)
	if compared < 100 {
		t.Errorf("only %d random instances compared; generator broken", compared)
	}
	if hits == 0 {
		t.Errorf("no decided instance repeated as a cache hit")
	}

	// Every cached entry must carry a decided verdict: budget-killed
	// partials (verdict unknown) are never stored, so entries ≈ decided
	// distinct queries, strictly fewer than total trials when unknowns
	// occurred.
	if n := cachedSrv.cache.Len(); unknowns > 0 && n >= compared+len(fixtureBodies()) {
		t.Errorf("cache holds %d entries for %d compared trials; unknown verdicts leaked in",
			n, compared)
	}
}

// TestFootprintInvalidationSurgical is the tentpole's eviction pin:
// after warming the cache with goals from two IND-disconnected
// components, registering an FD over a third, untouched relation evicts
// nothing (hit-rate unchanged), editing a member of one component
// evicts exactly that component's answers, and deleting the schema
// evicts the rest.
func TestFootprintInvalidationSurgical(t *testing.T) {
	srv, reg, ts := newTestServer(t, Config{CacheSize: 64})
	// Two disjoint components over one schema — the FD chain on R and
	// the IND+FD pair on S,T — plus the never-constrained relation Z.
	put := func(sigma string) SchemaResponse {
		t.Helper()
		r, b := putJSON(t, ts.URL+"/v1/schemas/app",
			`{"schema": ["R(A, B, C)", "S(X, Y)", "T(V, W)", "Z(P, Q)"], "sigma": [`+sigma+`]}`)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("PUT = %d\n%s", r.StatusCode, b)
		}
		var out SchemaResponse
		if err := json.Unmarshal(b, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	baseSigma := `"R: A -> B", "R: B -> C", "S[X,Y] <= T[V,W]", "T: V -> W"`
	put(baseSigma)

	goals := map[string]string{
		"R component fd":  `{"schema_name": "app", "goal": "R: A -> C"}`,
		"R component no":  `{"schema_name": "app", "goal": "R: C -> A"}`,
		"ST component fd": `{"schema_name": "app", "goal": "S: X -> Y"}`,
		"ST component ind": `{"schema_name": "app",
			"goal": "S[X] <= T[V]"}`,
	}
	warm := func() map[string]string {
		t.Helper()
		out := make(map[string]string, len(goals))
		for name, body := range goals {
			r, b := postJSON(t, ts.URL+"/v1/implies", body)
			if r.StatusCode != http.StatusOK {
				t.Fatalf("%s = %d\n%s", name, r.StatusCode, b)
			}
			out[name] = r.Header.Get("X-Cache")
		}
		return out
	}
	warm()
	warmed := srv.cache.Len()
	if warmed != len(goals) {
		t.Fatalf("cache holds %d entries after warming, want %d", warmed, len(goals))
	}

	// Disjoint edit: an FD over Z touches neither component. Zero
	// evictions, and every goal repeats as a HIT.
	resp := put(baseSigma + `, "Z: P -> Q"`)
	if resp.Invalidated != 0 {
		t.Errorf("disjoint registration invalidated %d entries, want 0 (whole-Σ keying would evict all)",
			resp.Invalidated)
	}
	if n := srv.cache.Len(); n != warmed {
		t.Errorf("cache len %d after disjoint edit, want %d", n, warmed)
	}
	for name, status := range warm() {
		if status != "HIT" {
			t.Errorf("%s: X-Cache = %q after disjoint edit, want HIT", name, status)
		}
	}
	if n := reg.Counter("cache.footprint_invalidations").Value(); n != 0 {
		t.Errorf("cache.footprint_invalidations = %d after disjoint edit, want 0", n)
	}

	// Component edit: dropping R: B -> C changes only the R component.
	// Its two answers go; the S/T answers stay warm.
	resp = put(`"R: A -> B", "S[X,Y] <= T[V,W]", "T: V -> W", "Z: P -> Q"`)
	if resp.Invalidated != 2 {
		t.Errorf("R-component edit invalidated %d entries, want 2", resp.Invalidated)
	}
	statuses := warm()
	for _, name := range []string{"R component fd", "R component no"} {
		if statuses[name] != "MISS" {
			t.Errorf("%s: X-Cache = %q after its member changed, want MISS", name, statuses[name])
		}
	}
	for _, name := range []string{"ST component fd", "ST component ind"} {
		if statuses[name] != "HIT" {
			t.Errorf("%s: X-Cache = %q after an unrelated edit, want HIT", name, statuses[name])
		}
	}
	if n := reg.Counter("cache.footprint_invalidations").Value(); n != 2 {
		t.Errorf("cache.footprint_invalidations = %d, want 2", n)
	}
	// The recomputed R answers changed with the edit: the chain is cut.
	r, b := postJSON(t, ts.URL+"/v1/implies", goals["R component fd"])
	var out ImpliesResponse
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK || out.Verdict != "no" {
		t.Errorf("R: A -> C after dropping R: B -> C = %q, want no", out.Verdict)
	}

	// DELETE sweeps whatever the deleted Σ's members still pin.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/schemas/app", nil)
	dr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var del SchemaResponse
	if err := json.NewDecoder(dr.Body).Decode(&del); err != nil {
		t.Fatal(err)
	}
	dr.Body.Close()
	if !del.Deleted || del.Invalidated == 0 {
		t.Errorf("DELETE: deleted=%t invalidated=%d, want true and > 0", del.Deleted, del.Invalidated)
	}
}

// deleteSchema issues DELETE /v1/schemas/{name} and decodes the reply.
func deleteSchema(t *testing.T, baseURL, name string) SchemaResponse {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, baseURL+"/v1/schemas/"+name, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var out SchemaResponse
	if err := json.NewDecoder(r.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK {
		t.Fatalf("DELETE %s = %d: %s", name, r.StatusCode, out.Error)
	}
	return out
}

// putSchema registers body under name and decodes the reply.
func putSchema(t *testing.T, baseURL, name, body string) SchemaResponse {
	t.Helper()
	r, b := putJSON(t, baseURL+"/v1/schemas/"+name, body)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("PUT %s = %d\n%s", name, r.StatusCode, b)
	}
	var out SchemaResponse
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSchemaEditKeepsInlineAnswers: no registry edit can make an inline
// answer stale — its key binds its whole Σ component — so a PUT or
// DELETE that shares member keys with an inline Σ must leave the inline
// answer cached, while the registered schema's own answers still go.
func TestSchemaEditKeepsInlineAnswers(t *testing.T) {
	_, reg, ts := newTestServer(t, Config{CacheSize: 64})
	const (
		inline = `{"schema": ["R(A, B, C)"], "sigma": ["R: A -> B", "R: B -> C"], "goal": "R: A -> C"}`
		other  = `{"schema": ["R(A, B, C)"], "sigma": ["R: A -> B"]}`
		named  = `{"schema_name": "other", "goal": "R: A -> B"}`
	)
	xcache := func(label, body, want string) {
		t.Helper()
		r, b := postJSON(t, ts.URL+"/v1/implies", body)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d\n%s", label, r.StatusCode, b)
		}
		if got := r.Header.Get("X-Cache"); got != want {
			t.Errorf("%s: X-Cache = %q, want %q", label, got, want)
		}
	}
	xcache("inline", inline, "MISS")
	xcache("inline repeat", inline, "HIT")

	if resp := putSchema(t, ts.URL, "other", other); resp.Invalidated != 0 {
		t.Errorf("PUT other invalidated %d entries, want 0 (the inline answer is not its to evict)", resp.Invalidated)
	}
	xcache("inline after PUT", inline, "HIT")

	// The registered schema's own answer is tagged and goes on DELETE;
	// the inline one stays.
	xcache("named", named, "MISS")
	xcache("named repeat", named, "HIT")
	if resp := deleteSchema(t, ts.URL, "other"); resp.Invalidated != 1 {
		t.Errorf("DELETE other invalidated %d entries, want 1 (its own answer)", resp.Invalidated)
	}
	xcache("inline after DELETE", inline, "HIT")
	if n := reg.Counter("cache.footprint_invalidations").Value(); n != 1 {
		t.Errorf("cache.footprint_invalidations = %d, want 1", n)
	}
}

// TestSchemaEditRoundTrip publishes Σ A, then B (A with one member
// dropped), then A again, answering the same goals after each PUT.
// Every answer — cache hit or miss — must equal a fresh core.System's
// answer over the Σ its echoed version published, so an edit that
// brings an earlier Σ back can never serve a stale or torn answer.
func TestSchemaEditRoundTrip(t *testing.T) {
	_, _, ts := newTestServer(t, Config{CacheSize: 256, MaxBatch: 16})
	schemaLines := []string{"R(A, B, C)", "S(X, Y)", "T(V, W)", "U(P, Q)"}
	sigmaA := []string{"R: A -> B", "R: B -> C", "S[X,Y] <= T[V,W]", "T: V -> W", "U[P] <= T[V]"}
	sigmaB := []string{"R: A -> B", "S[X,Y] <= T[V,W]", "T: V -> W", "U[P] <= T[V]"}
	goals := []string{"R: A -> C", "R: A -> B", "R: C -> A", "S: X -> Y",
		"S[X] <= T[V]", "U[P] <= T[V]", "S[Y] <= T[W]", "U: P -> Q"}
	const budget = 64

	published := map[int64][]string{}
	put := func(sigma []string) SchemaResponse {
		t.Helper()
		body, err := json.Marshal(SchemaPutRequest{Schema: schemaLines, Sigma: sigma})
		if err != nil {
			t.Fatal(err)
		}
		resp := putSchema(t, ts.URL, "trip", string(body))
		published[resp.Version] = sigma
		return resp
	}
	batchBody, err := json.Marshal(BatchRequest{SchemaName: "trip", Goals: goals, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := 0, 0
	answer := func(step string) {
		t.Helper()
		r, raw := postJSON(t, ts.URL+"/v1/batch", string(batchBody))
		if r.StatusCode != http.StatusOK {
			t.Fatalf("%s: batch = %d\n%s", step, r.StatusCode, raw)
		}
		var resp BatchResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatal(err)
		}
		sigma, ok := published[resp.Version]
		if !ok {
			t.Fatalf("%s: batch echoed version %d, which no PUT published", step, resp.Version)
		}
		db, members, err := parseSchemaSigma(schemaLines, sigma)
		if err != nil {
			t.Fatal(err)
		}
		sys := core.NewSystem(db)
		if err := sys.Add(members...); err != nil {
			t.Fatal(err)
		}
		goalDeps, err := parseGoals(db, "", goals)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Answers) != len(goals) {
			t.Fatalf("%s: %d answers for %d goals", step, len(resp.Answers), len(goals))
		}
		for i, got := range resp.Answers {
			a, err := sys.Implies(goalDeps[i], core.Options{ChaseMaxTuples: budget})
			if err != nil {
				t.Fatalf("%s: fresh %s: %v", step, goals[i], err)
			}
			var want ImpliesResponse
			fillAnswer(&want, a)
			if got.Status != http.StatusOK || got.Verdict != want.Verdict || got.Engine != want.Engine ||
				got.Proof != want.Proof || got.Counterexample != want.Counterexample ||
				got.ChaseRounds != want.ChaseRounds || got.ChaseTuples != want.ChaseTuples {
				t.Errorf("%s v%d %s (cache %s): got %s/%s proof %q rounds %d tuples %d, fresh system %s/%s proof %q rounds %d tuples %d",
					step, resp.Version, goals[i], got.Cache, got.Verdict, got.Engine, got.Proof,
					got.ChaseRounds, got.ChaseTuples, want.Verdict, want.Engine, want.Proof,
					want.ChaseRounds, want.ChaseTuples)
			}
			switch got.Cache {
			case "hit":
				hits++
			case "miss":
				misses++
			}
		}
	}

	put(sigmaA)
	answer("A")
	answer("A repeat")
	if resp := put(sigmaB); resp.Invalidated == 0 {
		t.Errorf("dropping R: B -> C invalidated nothing; the R answers depended on it")
	}
	answer("B")
	put(sigmaA)
	answer("A again")
	answer("A again repeat")
	if hits == 0 || misses == 0 {
		t.Errorf("round trip served %d hits and %d misses; both paths must be exercised", hits, misses)
	}
}
