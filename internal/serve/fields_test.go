package serve

// Request fields are parsed in place, one entry at a time. These tests
// pin the requests that parsing the fields as one .dep document would
// let through — a line break in an entry starts another document line,
// a template dependency in Σ lands outside Σ, "schema S(D)" in Σ
// declares a relation, an EMVD goal reaches the engine — and the entry
// forms that must keep working. A differential checks the field-wise
// parse against the .dep reader over the cache differential's corpora,
// and two fuzzers drive the handlers with arbitrary schema, sigma and
// goal strings.

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"indfd/internal/core"
	"indfd/internal/obs"
	"indfd/internal/parser"
)

// fieldCase is one request shape posted to every endpoint that has its
// fields: /v1/implies and /v1/batch (inline, and by schema_name when the
// case is about the goal), /v1/satisfies and PUT /v1/schemas/{name}
// (when the case is about schema or sigma).
type fieldCase struct {
	name   string
	schema []string
	sigma  []string
	goal   string // "" = a case about schema/sigma, posted with a plain goal
	field  string // the field a 400 must name; goal cases name goals[0] in a batch
}

// fieldRequest is one endpoint's request for a case.
type fieldRequest struct {
	label, method, path, body, field string
}

func (c fieldCase) requests() []fieldRequest {
	mustJSON := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err)
		}
		return string(b)
	}
	goal, batchField := c.goal, c.field
	if goal == "" {
		goal = "R: A -> B"
	} else {
		batchField = "goals[0]"
	}
	out := []fieldRequest{
		{"implies", http.MethodPost, "/v1/implies",
			mustJSON(map[string]any{"schema": c.schema, "sigma": c.sigma, "goal": goal}), c.field},
		{"batch", http.MethodPost, "/v1/batch",
			mustJSON(map[string]any{"schema": c.schema, "sigma": c.sigma, "goals": []string{goal}}), batchField},
	}
	if c.goal != "" {
		return append(out,
			fieldRequest{"implies by name", http.MethodPost, "/v1/implies",
				mustJSON(map[string]any{"schema_name": "app", "goal": goal}), c.field},
			fieldRequest{"batch by name", http.MethodPost, "/v1/batch",
				mustJSON(map[string]any{"schema_name": "app", "goals": []string{goal}}), batchField})
	}
	return append(out,
		fieldRequest{"satisfies", http.MethodPost, "/v1/satisfies",
			mustJSON(map[string]any{"schema": c.schema, "sigma": c.sigma,
				"data": map[string][][]string{"R": {{"1", "2", "3"}, {"1", "4", "5"}}}}), c.field},
		fieldRequest{"put", http.MethodPut, "/v1/schemas/app",
			mustJSON(map[string]any{"schema": c.schema, "sigma": c.sigma}), c.field})
}

func doFieldRequest(t *testing.T, base string, fr fieldRequest) (int, map[string]any) {
	t.Helper()
	var resp *http.Response
	var b []byte
	if fr.method == http.MethodPut {
		resp, b = putJSON(t, base+fr.path, fr.body)
	} else {
		resp, b = postJSON(t, base+fr.path, fr.body)
	}
	var out map[string]any
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("%s: unmarshal %s: %v", fr.label, b, err)
	}
	return resp.StatusCode, out
}

// TestFieldEscapes pins each request a document round trip lets through
// as a 400 that names the offending entry, on every endpoint with the
// field, and checks that the rejected request left no trace: the answer
// cache holds as many entries as before, the registered schema keeps
// its version, and serve.errors_total did not move.
func TestFieldEscapes(t *testing.T) {
	srv, reg, ts := newTestServer(t, Config{CacheSize: 64})
	schema := []string{"R(A, B, C)"}
	if r, b := putJSON(t, ts.URL+"/v1/schemas/app",
		`{"schema": ["R(A, B, C)"], "sigma": ["R: A -> B"]}`); r.StatusCode != http.StatusOK {
		t.Fatalf("PUT app = %d\n%s", r.StatusCode, b)
	}
	if r, b := postJSON(t, ts.URL+"/v1/implies", `{"schema_name": "app", "goal": "R: A -> B"}`); r.StatusCode != http.StatusOK {
		t.Fatalf("warm-up = %d\n%s", r.StatusCode, b)
	}
	version := func() int64 {
		e, _ := srv.schemas.Get("app")
		return e.Version
	}
	errorsTotal := reg.Counter("serve.errors_total")

	for _, c := range []fieldCase{
		// No engine decides an EMVD goal: it must not reach one and
		// answer 500 against the error budget.
		{name: "emvd goal", schema: schema, sigma: []string{"R: A -> B"},
			goal: "R: A ->> B | C", field: "goal"},
		// No Σ takes a template dependency: dropped, it would let
		// /v1/satisfies call rows (1,2,3), (1,4,5) satisfied.
		{name: "template dependency in sigma", schema: schema,
			sigma: []string{"R: B -> C", "R :: (x, y, z) (x, y2, z2) / (x, y, z2)"}, field: "sigma[1]"},
		// One entry is one line: after a line break a schema, sigma or
		// goal entry could add a Σ member.
		{name: "line break in schema", schema: []string{"R(A, B, C)\nR: B -> C"},
			sigma: []string{"R: A -> B"}, field: "schema[0]"},
		{name: "line break in sigma", schema: schema,
			sigma: []string{"R: A -> B # one\nR: B -> C"}, field: "sigma[0]"},
		{name: "line break in goal", schema: schema, sigma: []string{"R: A -> B"},
			goal: "R: A -> C\nR: B -> C", field: "goal"},
		// A Σ entry declares no relation.
		{name: "scheme declaration in sigma", schema: schema,
			sigma: []string{"R: A -> B", "schema S(D)"}, field: "sigma[1]"},
	} {
		for _, fr := range c.requests() {
			label := c.name + " on " + fr.label
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

// TestFieldErrorsNameEntries: every schema and sigma error names the
// entry it came from, including a scheme that repeats an earlier name.
func TestFieldErrorsNameEntries(t *testing.T) {
	for _, c := range []struct {
		schema, sigma []string
		want          string
	}{
		{[]string{"R(A, B)", "S(C)", "R(D)"}, nil, "schema[2]: "},
		{[]string{"R(A, B"}, nil, "schema[0]: "},
		{[]string{"R(A, B)"}, []string{"", "R: A -> B", "S: A -> B"}, "sigma[2]: "},
		{[]string{"R(A, B)"}, []string{"R: A -> Z"}, "sigma[0]: "},
	} {
		_, _, err := parseSchemaSigma(c.schema, c.sigma)
		if err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("parseSchemaSigma(%q, %q) = %v, want an error starting %q", c.schema, c.sigma, err, c.want)
		}
	}
}

// TestFieldFormsAccepted pins the entry forms that keep working: a
// '#' comment and the Unicode operators inside entries, blank entries,
// which are skipped as the .dep reader skips blank lines, and EMVDs in
// /v1/satisfies' Σ. Every implication answer is the plain spelling's:
// R: A -> B is in Σ.
func TestFieldFormsAccepted(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	if r, b := putJSON(t, ts.URL+"/v1/schemas/app",
		`{"schema": ["R(A, B, C)"], "sigma": ["R: A -> B"]}`); r.StatusCode != http.StatusOK {
		t.Fatalf("PUT app = %d\n%s", r.StatusCode, b)
	}
	for _, c := range []fieldCase{
		{name: "comments and unicode operators",
			schema: []string{"R(A, B, C) # the relation"},
			sigma:  []string{"R[A] ⊆ R[B] # an IND", "R: A → B"}},
		{name: "comment and unicode operator in the goal", schema: []string{"R(A, B, C)"},
			sigma: []string{"R: A -> B"}, goal: "R: A → B # the goal"},
		{name: "blank sigma entries", schema: []string{"R(A, B, C)"},
			sigma: []string{"", "R: A -> B", "   ", "# a comment alone"}},
		// A blank schema entry is skipped like a blank Σ entry.
		{name: "blank schema entry", schema: []string{"R(A, B, C)", " "},
			sigma: []string{"R: A -> B"}},
	} {
		for _, fr := range c.requests() {
			label := c.name + " on " + fr.label
			status, out := doFieldRequest(t, ts.URL, fr)
			if status != http.StatusOK {
				t.Errorf("%s: status = %d, want 200; body %v", label, status, out)
				continue
			}
			if fr.path == "/v1/satisfies" || fr.method == http.MethodPut {
				continue
			}
			verdict, _ := out["verdict"].(string)
			if answers, ok := out["answers"].([]any); ok && len(answers) == 1 {
				verdict, _ = answers[0].(map[string]any)["verdict"].(string)
			}
			if verdict != "yes" {
				t.Errorf("%s: verdict = %q, want yes", label, verdict)
			}
		}
	}

	// /v1/satisfies checks EMVDs in Σ: rows (1,2,3), (1,4,5) lack the
	// swapped (1,2,5) that R: A ->> B | C demands.
	r, b := postJSON(t, ts.URL+"/v1/satisfies", `{"schema": ["R(A, B, C)"], "sigma": ["R: A ->> B | C"],
		"data": {"R": [["1", "2", "3"], ["1", "4", "5"]]}}`)
	var sat SatisfiesResponse
	if err := json.Unmarshal(b, &sat); err != nil || r.StatusCode != http.StatusOK {
		t.Fatalf("satisfies with an EMVD = %d %v\n%s", r.StatusCode, err, b)
	}
	if sat.Satisfied || !strings.Contains(sat.Violated, "->>") {
		t.Errorf("satisfies with an EMVD: satisfied=%t violated=%q, want the EMVD violated", sat.Satisfied, sat.Violated)
	}
}

// TestAlgebraRegisterAs pins algebra's register_as, which hands the
// registry the operand's scheme and the result's members: the derived
// schema lists them, answers by name, and a union over different
// schemes is refused before anything registers.
func TestAlgebraRegisterAs(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	for name, sigma := range map[string]string{
		"a": `"R: A -> B", "R: B -> C"`,
		"b": `"R: B -> C", "R[A] <= R[B]"`,
	} {
		if r, b := putJSON(t, ts.URL+"/v1/schemas/"+name,
			`{"schema": ["R(A, B, C)"], "sigma": [`+sigma+`]}`); r.StatusCode != http.StatusOK {
			t.Fatalf("PUT %s = %d\n%s", name, r.StatusCode, b)
		}
	}
	r, b := postJSON(t, ts.URL+"/v1/schemas/a/algebra", `{"op": "union", "with": "b", "register_as": "ab"}`)
	var alg AlgebraResponse
	if err := json.Unmarshal(b, &alg); err != nil || r.StatusCode != http.StatusOK {
		t.Fatalf("union = %d %v\n%s", r.StatusCode, err, b)
	}
	if alg.Name != "ab" || alg.Version != 1 || len(alg.Sigma) != 3 {
		t.Errorf("union registered %q v%d with %v, want ab v1 with 3 members", alg.Name, alg.Version, alg.Sigma)
	}
	resp, err := http.Get(ts.URL + "/v1/schemas/ab")
	if err != nil {
		t.Fatal(err)
	}
	var got SchemaResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if strings.Join(got.Relations, ";") != "R(A,B,C)" || strings.Join(got.Sigma, ";") != strings.Join(alg.Sigma, ";") {
		t.Errorf("GET ab = %v %v, want R(A,B,C) and %v", got.Relations, got.Sigma, alg.Sigma)
	}
	r, b = postJSON(t, ts.URL+"/v1/implies", `{"schema_name": "ab", "goal": "R: A -> C"}`)
	var ans ImpliesResponse
	if err := json.Unmarshal(b, &ans); err != nil || r.StatusCode != http.StatusOK || ans.Verdict != "yes" {
		t.Errorf("R: A -> C by name ab = %d %q (%v)", r.StatusCode, ans.Verdict, err)
	}

	if r, b := putJSON(t, ts.URL+"/v1/schemas/s", `{"schema": ["S(X)"], "sigma": []}`); r.StatusCode != http.StatusOK {
		t.Fatalf("PUT s = %d\n%s", r.StatusCode, b)
	}
	if r, _ := postJSON(t, ts.URL+"/v1/schemas/a/algebra", `{"op": "union", "with": "s", "register_as": "as"}`); r.StatusCode != http.StatusBadRequest {
		t.Errorf("union across schemes = %d, want 400", r.StatusCode)
	}
	if r, err := http.Get(ts.URL + "/v1/schemas/as"); err != nil {
		t.Fatal(err)
	} else if r.Body.Close(); r.StatusCode != http.StatusNotFound {
		t.Errorf("GET as = %d after a refused union, want 404", r.StatusCode)
	}
}

// documentOf renders an implies body as the .dep document that says
// the same thing: its scheme declarations, Σ lines and one query line.
func documentOf(req ImpliesRequest) string {
	var b strings.Builder
	for _, s := range req.Schema {
		b.WriteString("schema " + s + "\n")
	}
	for _, d := range req.Sigma {
		b.WriteString(d + "\n")
	}
	mode := "? "
	if req.Finite {
		mode = "?fin "
	}
	b.WriteString(mode + req.Goal + "\n")
	return b.String()
}

// TestFieldParseMatchesDocument is the parse differential: over the
// fixture corpus and 400 seeded random bodies, the field-wise parse —
// inline, and by schema_name after registering the same fields — reads
// the same schemes, the same Σ keys in order and the same goal key as
// parser.ParseString of the equivalent document.
func TestFieldParseMatchesDocument(t *testing.T) {
	srv, _, _ := newTestServer(t, Config{})
	bodies := fixtureBodies()
	r := rand.New(rand.NewPCG(13, 5))
	for i := 0; i < 400; i++ {
		bodies[fmt.Sprintf("random %d", i)] = randomImpliesBody(r)
	}
	keys := func(sys *core.System) []string {
		var out []string
		for _, d := range sys.Sigma() {
			out = append(out, d.Key())
		}
		return out
	}
	for label, body := range bodies {
		var req ImpliesRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		file, err := parser.ParseString(documentOf(req))
		if err != nil {
			t.Fatalf("%s: document: %v", label, err)
		}
		db, sigma, err := parseSchemaSigma(req.Schema, req.Sigma)
		if err != nil {
			t.Fatalf("%s: fields: %v", label, err)
		}
		if got, want := db.String(), file.DB.String(); got != want {
			t.Errorf("%s: schemes\nfields:   %s\ndocument: %s", label, got, want)
		}
		if len(sigma) != len(file.Sigma) {
			t.Fatalf("%s: %d Σ members from fields, %d from the document", label, len(sigma), len(file.Sigma))
		}
		for i, d := range file.Sigma {
			if sigma[i].Key() != d.Key() {
				t.Errorf("%s: sigma[%d] = %q, document %q", label, i, sigma[i].Key(), d.Key())
			}
		}
		docSys := core.NewSystem(file.DB)
		if err := docSys.Add(file.Sigma...); err != nil {
			t.Fatalf("%s: document system: %v", label, err)
		}
		fieldSys := core.NewSystem(db)
		if err := fieldSys.Add(sigma...); err != nil {
			t.Fatalf("%s: field system: %v", label, err)
		}
		if _, _, err := srv.schemas.Register("diff", fieldSys); err != nil {
			t.Fatalf("%s: register: %v", label, err)
		}
		for _, name := range []string{"", "diff"} {
			schemaLines, sigmaLines := req.Schema, req.Sigma
			if name != "" {
				schemaLines, sigmaLines = nil, nil
			}
			p, err := srv.prepare(name, rawField(t, schemaLines), rawField(t, sigmaLines), "goal", []string{req.Goal})
			if err != nil {
				t.Fatalf("%s (schema_name %q): prepare: %v", label, name, err)
			}
			if got, want := strings.Join(keys(p.sys), " | "), strings.Join(keys(docSys), " | "); got != want {
				t.Errorf("%s (schema_name %q): canonical Σ\nfields:   %s\ndocument: %s", label, name, got, want)
			}
			if len(file.Queries) != 1 || p.goals[0].Key() != file.Queries[0].Goal.Key() {
				t.Errorf("%s (schema_name %q): goal %q, document %v", label, name, p.goals[0].Key(), file.Queries)
			}
		}
	}
}

// rawField is a schema or sigma field as a request body carries it.
func rawField(t *testing.T, entries []string) json.RawMessage {
	t.Helper()
	raw, err := json.Marshal(entries)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// fuzzServer is one in-process server per fuzz target, with the answer
// cache on so cached paths are exercised too.
func fuzzServer() *Server {
	s := New(Config{Reg: obs.New(), Logger: slog.New(slog.NewJSONHandler(io.Discard, nil)), CacheSize: 256})
	s.SetReady(true)
	return s
}

// fuzzEntries splits a fuzzed string into a request's array entries at
// ';', which the grammar never uses, so one input string can carry
// several schema or sigma entries.
func fuzzEntries(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ";")
}

// fuzzPost drives one request through the handler in process and fails
// unless it answered 200, 400 or 503.
func fuzzPost(t *testing.T, s *Server, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(string(b))))
	switch rec.Code {
	case http.StatusOK, http.StatusBadRequest, http.StatusServiceUnavailable:
	default:
		t.Fatalf("%s %s %s = %d\n%s", method, path, b, rec.Code, rec.Body.String())
	}
	return rec
}

var fuzzSeeds = [][3]string{
	{"R(A, B, C)", "R: A -> B;R: B -> C", "R: A -> C"},
	{"MGR(NAME, DEPT);EMP(NAME, DEPT, SAL)", "MGR[NAME,DEPT] <= EMP[NAME,DEPT]", "MGR[NAME] <= EMP[NAME]"},
	{"R(A, B, C)", "R[A,B] <= R[B,C];R: A, B -> C", "R: A -> C"},
	{"R(X, Y);S(T, U)", "R[X,Y] ⊆ S[T,U] # ind;S: T → U", "R[X == Y]"},
	{"R(A, B, C)", "R: A -> B", "R: A ->> B | C"},
	{"R(A, B, C)", "R :: (x, y, z) (x, y2, z2) / (x, y, z2)", "R: A -> B"},
	{"R(A, B, C)\nR: B -> C", "schema S(D);", "R: A -> C\nR: B -> C"},
	{"R(A)", "R[A] <= R[A];R: -> A", "R: -> A"},
}

// FuzzImplies posts arbitrary schema, sigma and goal strings to
// /v1/implies (and /v1/explain) under a 50 ms deadline: the handler must
// never panic and may answer only 200, 400 or 503.
func FuzzImplies(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s[0], s[1], s[2], false)
	}
	s := fuzzServer()
	f.Fuzz(func(t *testing.T, schema, sigma, goal string, finite bool) {
		body := map[string]any{
			"schema": fuzzEntries(schema), "sigma": fuzzEntries(sigma), "goal": goal,
			"finite": finite, "timeout_ms": 50,
		}
		fuzzPost(t, s, http.MethodPost, "/v1/implies", body)
		fuzzPost(t, s, http.MethodPost, "/v1/explain", body)
	})
}

// FuzzBatch registers arbitrary schema and sigma strings with PUT
// /v1/schemas/{name}, then posts the goals (split at ';') to /v1/batch,
// inline and — when the registration succeeded — by schema_name, under
// a 50 ms deadline. Every response must be 200, 400 or 503, and a
// batch's per-goal statuses 200 or 503.
func FuzzBatch(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s[0], s[1], s[2])
	}
	s := fuzzServer()
	f.Fuzz(func(t *testing.T, schema, sigma, goals string) {
		schemaLines, sigmaLines := fuzzEntries(schema), fuzzEntries(sigma)
		put := fuzzPost(t, s, http.MethodPut, "/v1/schemas/fuzz",
			map[string]any{"schema": schemaLines, "sigma": sigmaLines})
		bodies := []map[string]any{{"schema": schemaLines, "sigma": sigmaLines}}
		if put.Code == http.StatusOK {
			bodies = append(bodies, map[string]any{"schema_name": "fuzz"})
		}
		for _, body := range bodies {
			body["goals"] = fuzzEntries(goals)
			body["timeout_ms"] = 50
			rec := fuzzPost(t, s, http.MethodPost, "/v1/batch", body)
			var resp BatchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("batch %v: unmarshal %s: %v", body, rec.Body.String(), err)
			}
			for i, a := range resp.Answers {
				if a.Status != http.StatusOK && a.Status != http.StatusServiceUnavailable {
					t.Fatalf("batch %v: goal %d status %d: %s", body, i, a.Status, a.Error)
				}
			}
		}
	})
}
