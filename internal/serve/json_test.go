package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"indfd/internal/deps"
	"indfd/internal/fd"
	"indfd/internal/obs"
	"indfd/internal/parser"
	"indfd/internal/schema"
)

// stdEncode is what writeJSON's encoding/json path writes for v.
func stdEncode(t testing.TB, v any) string {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// withProofText returns a captured reply value with every fd proof
// rendered into its Proof field, as encoding/json would have to be
// handed it.
func withProofText(v any) any {
	fill := func(r *ImpliesResponse) {
		if !r.fdProof.IsZero() {
			r.Proof = r.fdProof.Render(deps.FD{X: r.fdStart}, r.Goal)
		}
	}
	switch r := v.(type) {
	case ImpliesResponse:
		fill(&r)
		return r
	case BatchResponse:
		r.Answers = append([]BatchGoalAnswer(nil), r.Answers...)
		for i := range r.Answers {
			fill(&r.Answers[i].ImpliesResponse)
		}
		return r
	}
	return v
}

// withFields re-marshals a JSON object body with the given fields set
// (or, with a nil value, removed).
func withFields(t *testing.T, body string, fields map[string]any) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatal(err)
	}
	for k, v := range fields {
		if v == nil {
			delete(m, k)
		} else {
			m[k] = v
		}
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestReplyBytesMatchEncodingJSON is the appender's differential: over
// the fixture corpus and 400 random instances, inline and by
// schema_name, each on a cache miss and then a hit, every /v1/implies,
// /v1/explain and /v1/batch reply is byte for byte what encoding/json
// (HTML escaping off) writes for the same response value with its fd
// proof text filled in, plain and with provenance, profile and
// include_metrics (batch bodies take no profile or include_metrics).
// Each runs under a 25 ms deadline: a chase that outruns it is a 503
// reply, compared too.
func TestReplyBytesMatchEncodingJSON(t *testing.T) {
	s := New(Config{Reg: obs.New(), Logger: slog.New(slog.NewJSONHandler(io.Discard, nil)), CacheSize: 1 << 14})
	var captured any
	s.testReply = func(v any) { captured = v }
	bodies := fixtureBodies()
	r := rand.New(rand.NewPCG(27, 11))
	for trial := 0; trial < 400; trial++ {
		bodies[fmt.Sprintf("random %d", trial)] = randomImpliesBody(r)
	}
	replies, fdProofs, derivations := 0, 0, 0
	check := func(label, path, body string) {
		t.Helper()
		for _, pass := range []string{"miss", "hit"} {
			captured = nil
			rec := serveInProcess(s.Handler(), http.MethodPost, path, body)
			if captured == nil {
				t.Fatalf("%s %s (%s): no reply value captured; status %d\n%s", label, path, pass, rec.Code, rec.Body.String())
			}
			if want := stdEncode(t, withProofText(captured)); rec.Body.String() != want {
				t.Fatalf("%s %s (%s): reply differs from encoding/json\nbody: %s\ngot:  %s\nwant: %s",
					label, path, pass, body, rec.Body.String(), want)
			}
			if strings.Contains(rec.Body.String(), `\u003e`) {
				t.Fatalf("%s %s (%s): reply escapes HTML\n%s", label, path, pass, rec.Body.String())
			}
			replies++
			if strings.Contains(rec.Body.String(), `"proof":"goal: `) {
				fdProofs++
			}
			if strings.Contains(rec.Body.String(), `"derivation":`) {
				derivations++
			}
		}
	}
	n := 0
	for label, body := range bodies {
		n++
		name := fmt.Sprintf("b%d", n)
		body = withFields(t, body, map[string]any{"timeout_ms": 25})
		var fields map[string]json.RawMessage
		if err := json.Unmarshal([]byte(body), &fields); err != nil {
			t.Fatal(err)
		}
		forms := map[string]string{"inline": body}
		put := fmt.Sprintf(`{"schema": %s, "sigma": %s}`, fields["schema"], fields["sigma"])
		if rec := serveInProcess(s.Handler(), http.MethodPut, "/v1/schemas/"+name, put); rec.Code == http.StatusOK {
			forms["named"] = withFields(t, body, map[string]any{"schema": nil, "sigma": nil, "schema_name": name})
		}
		for form, b := range forms {
			for _, flag := range []string{"", "provenance", "profile", "include_metrics"} {
				variant := b
				if flag != "" {
					variant = withFields(t, b, map[string]any{flag: true})
				}
				check(label+" "+form+" "+flag, "/v1/implies", variant)
				check(label+" "+form+" "+flag, "/v1/explain", variant)
				if flag == "profile" || flag == "include_metrics" {
					continue
				}
				var goal string
				if err := json.Unmarshal(fields["goal"], &goal); err != nil {
					t.Fatal(err)
				}
				batch := withFields(t, variant, map[string]any{"goal": nil, "goals": []string{goal, goal}})
				check(label+" "+form+" "+flag, "/v1/batch", batch)
			}
		}
	}
	t.Logf("%d replies compared: %d with an fd proof, %d with a chase derivation", replies, fdProofs, derivations)
	if fdProofs == 0 || derivations == 0 {
		t.Errorf("the corpus served %d fd proofs and %d derivations; both must be compared", fdProofs, derivations)
	}
}

// TestReplyEveryField pins the reply appenders to the reply structs'
// declarations: with every exported field set, recursively through
// this package's own types (an INDStats, a batch answer), the appended
// bytes equal encoding/json's, and so they do with every field zero. A
// field added to ImpliesResponse, BatchGoalAnswer, BatchResponse or
// INDStats that the appenders do not write fails here, whether or not
// some request sets it. Fields of other packages' types (a derivation,
// a profile, a snapshot), which the appenders hand to encoding/json,
// are set to their types' zero values.
func TestReplyEveryField(t *testing.T) {
	pkg := reflect.TypeFor[ImpliesResponse]().PkgPath()
	n := 0
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		n++
		switch v.Kind() {
		case reflect.String:
			v.SetString(fmt.Sprintf("%d\"<é>\n", n))
		case reflect.Int, reflect.Int64:
			v.SetInt(int64(n))
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Pointer:
			v.Set(reflect.New(v.Type().Elem()))
			if v.Type().Elem().PkgPath() == pkg {
				fill(v.Elem())
			}
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), 2, 2))
			fill(v.Index(0))
			fill(v.Index(1))
		case reflect.Struct:
			for i := range v.NumField() {
				if v.Type().Field(i).IsExported() {
					fill(v.Field(i))
				}
			}
		default:
			t.Fatalf("no filler for a %s field", v.Type())
		}
	}
	var implies ImpliesResponse
	var batch BatchResponse
	for _, set := range []bool{false, true} {
		if set {
			fill(reflect.ValueOf(&implies).Elem())
			fill(reflect.ValueOf(&batch).Elem())
		}
		got, err := appendImplies(nil, &implies)
		if err != nil || string(got)+"\n" != stdEncode(t, implies) {
			t.Errorf("every field set %v: appendImplies = %s (%v)\nencoding/json = %s", set, got, err, stdEncode(t, implies))
		}
		got, err = appendBatch(nil, &batch)
		if err != nil || string(got)+"\n" != stdEncode(t, batch) {
			t.Errorf("every field set %v: appendBatch = %s (%v)\nencoding/json = %s", set, got, err, stdEncode(t, batch))
		}
	}
}

// FuzzAppendString: the reply's string escaper writes what encoding/json
// writes for any string (HTML escaping off), and an fd proof over an
// attribute of that name appends as its rendered text would.
func FuzzAppendString(f *testing.F) {
	for _, s := range []string{"", "R: A -> B", "\"\\\n\t\b\f\r\x00\x1f\x7f", "\u2028\u2029", "\xff\xfe", "\u00e9", "\xed\xa0\x80", "<&>"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want := stdEncode(t, s)
		if got := string(appendString(nil, s)) + "\n"; got != want {
			t.Fatalf("appendString(%q) = %s, want %s", s, got, want)
		}
		attr := schema.Attribute(s)
		sigma := []deps.FD{
			deps.NewFD("R", deps.Attrs("A"), []schema.Attribute{attr}),
			deps.NewFD("R", []schema.Attribute{attr}, deps.Attrs("B")),
		}
		goal := deps.NewFD("R", deps.Attrs("A"), deps.Attrs("B"))
		d, ok := fd.NewProver("R", sigma).Prove(goal, nil)
		if !ok {
			t.Fatal("chain goal not derived")
		}
		text := goal.String()
		want = string(appendString(nil, d.Render(goal, text)))
		if got := string(d.AppendJSON(nil, text, goal.X, appendEscaped)); got != want {
			t.Fatalf("AppendJSON over attribute %q = %s, want %s", s, got, want)
		}
	})
}

// TestNonStringGoalRejected: a goal that is not a string (or null) is a
// 400 naming the field.
func TestNonStringGoalRejected(t *testing.T) {
	s := New(Config{Reg: obs.New(), Logger: slog.New(slog.NewJSONHandler(io.Discard, nil))})
	const inline = `"schema": ["R(A, B)"], "sigma": ["R: A -> B"]`
	for _, tc := range []struct{ path, body, want string }{
		{"/v1/implies", `{` + inline + `, "goal": 5}`, "cannot unmarshal number into Go struct field impliesWire.ImpliesRequest.goal of type string"},
		{"/v1/implies", `{` + inline + `, "goal": ["R: A -> B"]}`, "cannot unmarshal array into Go struct field impliesWire.ImpliesRequest.goal of type string"},
		{"/v1/batch", `{` + inline + `, "goals": ["R: A -> B", 5]}`, "cannot unmarshal number into Go struct field batchWire.BatchRequest.goals of type string"},
		{"/v1/batch", `{` + inline + `, "goals": "R: A -> B"}`, "cannot unmarshal string into Go struct field batchWire.BatchRequest.goals of type []string"},
	} {
		rec := serveInProcess(s.Handler(), http.MethodPost, tc.path, tc.body)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), tc.want) {
			t.Errorf("%s %s = %d %s, want 400 %q", tc.path, tc.body, rec.Code, rec.Body.String(), tc.want)
		}
	}
}

// parseFDs parses .dep FD lines.
func parseFDs(t *testing.T, lines []string) []deps.FD {
	t.Helper()
	out := make([]deps.FD, len(lines))
	for i, line := range lines {
		d, err := parser.ParseDependency(line)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = d.(deps.FD)
	}
	return out
}

// TestServedFDProofsVerify is the fd part of a verdict checker: every
// fd proof a batch serves, computed (a miss) or cached (a hit), expands
// into an fd.Proof that Verify accepts against the component's Σ, and
// the served text is that proof's. Each Σ is registered in one order,
// answered, then re-registered in another, whose hits serve the proofs
// the first order derived: a cached derivation keeps the lines of the
// FDs it fired, which no order changes. The Σ are the
// 32-attribute chain (all 496 goals, forward then reversed) and the
// triangle of TestCachedProofValidAcrossSigmaOrder, whose two orders
// derive different proofs of R: A -> C.
func TestServedFDProofsVerify(t *testing.T) {
	var chain, chainGoals []string
	attrs := make([]string, 32)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("A%d", i)
	}
	for i := 0; i+1 < len(attrs); i++ {
		chain = append(chain, fmt.Sprintf("R: %s -> %s", attrs[i], attrs[i+1]))
	}
	for i := range attrs {
		for j := i + 1; j < len(attrs); j++ {
			chainGoals = append(chainGoals, fmt.Sprintf("R: %s -> %s", attrs[i], attrs[j]))
		}
	}
	reversed := append([]string(nil), chain...)
	for i, j := 0, len(reversed)-1; i < j; i, j = i+1, j-1 {
		reversed[i], reversed[j] = reversed[j], reversed[i]
	}
	for _, tc := range []struct {
		name   string
		schema string
		orders [2][]string
		goals  []string
		steps  []int // the first goal's proof length under each order's prover
	}{
		{"chain", "R(" + strings.Join(attrs, ", ") + ")", [2][]string{chain, reversed}, chainGoals, []int{1, 1}},
		{"triangle", "R(A, B, C)", [2][]string{{"R: A -> C", "R: A -> B", "R: B -> C"}, {"R: A -> B", "R: B -> C", "R: A -> C"}},
			[]string{"R: A -> C", "R: A -> B", "R: B -> C"}, []int{1, 2}},
	} {
		s := New(Config{Reg: obs.New(), Logger: slog.New(slog.NewJSONHandler(io.Discard, nil)), CacheSize: 4096, MaxBatch: 512})
		var captured BatchResponse
		s.testReply = func(v any) { captured = v.(BatchResponse) }
		goals := parseFDs(t, tc.goals)
		batch, _ := json.Marshal(BatchRequest{SchemaName: tc.name, Goals: tc.goals})
		for pass, order := range tc.orders {
			put, _ := json.Marshal(SchemaPutRequest{Schema: []string{tc.schema}, Sigma: order})
			if rec := serveInProcess(s.Handler(), http.MethodPut, "/v1/schemas/"+tc.name, string(put)); rec.Code != http.StatusOK {
				t.Fatalf("%s: PUT = %d\n%s", tc.name, rec.Code, rec.Body.String())
			}
			if fresh, _ := fd.NewProver("R", parseFDs(t, order)).Prove(goals[0], nil); fresh.Len() != tc.steps[pass] {
				t.Fatalf("%s order %d: %d steps, want %d", tc.name, pass, fresh.Len(), tc.steps[pass])
			}
			rec := serveInProcess(s.Handler(), http.MethodPost, "/v1/batch", string(batch))
			var served BatchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &served); err != nil || rec.Code != http.StatusOK {
				t.Fatalf("%s: batch = %d, %v\n%s", tc.name, rec.Code, err, rec.Body.String())
			}
			wantCache := []string{"miss", "hit"}[pass]
			for i, a := range captured.Answers {
				if a.Verdict != "yes" || a.Engine != "fd" || a.fdProof.IsZero() || a.Cache != wantCache {
					t.Fatalf("%s %s: verdict %s engine %s cache %s, want an fd proof (%s)", tc.name, tc.goals[i], a.Verdict, a.Engine, a.Cache, wantCache)
				}
				var p fd.Proof
				for _, sigma := range tc.orders {
					exp, err := a.fdProof.Proof(goals[i], parseFDs(t, sigma))
					if err == nil {
						err = exp.Verify(parseFDs(t, sigma))
					}
					if err != nil {
						t.Errorf("%s %s (%s): proof fails Verify against %v: %v\n%s", tc.name, tc.goals[i], a.Cache, sigma, err, exp)
					}
					p = exp
				}
				if i == 0 && len(p.Steps) != tc.steps[0] {
					t.Errorf("%s %s (%s): %d steps, want the first order's %d", tc.name, tc.goals[i], a.Cache, len(p.Steps), tc.steps[0])
				}
				if served.Answers[i].Proof != p.String() {
					t.Errorf("%s %s (%s): served proof\n%s\nwant\n%s", tc.name, tc.goals[i], a.Cache, served.Answers[i].Proof, p)
				}
			}
		}
	}
}

// TestBatchReplyAllocFree pins the appender: a 64-goal registered FD
// batch reply, every fd proof rendered into it, appends into a warm
// buffer without allocating.
func TestBatchReplyAllocFree(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	s := New(Config{Reg: obs.New(), Logger: slog.New(slog.NewJSONHandler(io.Discard, nil)), CacheSize: 4096})
	var captured BatchResponse
	s.testReply = func(v any) { captured = v.(BatchResponse) }
	body := chainBatches(t, s, 1)[0]
	if rec := serveInProcess(s.Handler(), http.MethodPost, "/v1/batch", body); rec.Code != http.StatusOK || len(captured.Answers) != 64 {
		t.Fatalf("batch = %d with %d answers\n%s", rec.Code, len(captured.Answers), rec.Body.String())
	}
	buf, err := appendBatch(nil, &captured)
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(100, func() {
		buf, _ = appendBatch(buf[:0], &captured)
	})
	if got != 0 {
		t.Errorf("appending a 64-goal batch reply: %.1f allocs, want 0", got)
	}
}
