package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"indfd/internal/cliutil"
	"indfd/internal/core"
	"indfd/internal/obs"
	"indfd/internal/parser"
	"indfd/internal/serve"
)

func runFile(t *testing.T, path string, verbose bool, budget int) (string, int) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out bytes.Buffer
	code, _, err := run(f, &out, config{verbose: verbose, budget: budget})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return out.String(), code
}

func TestRunManagerFile(t *testing.T) {
	out, code := runFile(t, "testdata/manager.dep", true, 0)
	wantLines := []string{
		"✓ Σ ⊨ MGR[NAME] <= EMP[NAME]",
		"✓ Σ ⊨ MGR: NAME -> DEPT",
		"✗ Σ ⊨ EMP[NAME] <= MGR[NAME]",
		"✓ Σ ⊨fin R[B] <= R[A]", // Theorem 4.4: finite yes...
		"✗ Σ ⊨ R[B] <= R[A]",    // ...unrestricted no.
	}
	for _, want := range wantLines {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "proof:") || !strings.Contains(out, "counterexample:") {
		t.Errorf("verbose output missing proof/counterexample:\n%s", out)
	}
	if code != 0 {
		t.Errorf("exit code = %d", code)
	}
}

func TestRunErrors(t *testing.T) {
	if _, _, err := run(strings.NewReader("schema R(A)\n"), &bytes.Buffer{}, config{}); err == nil {
		t.Errorf("no queries should be an error")
	}
	if _, _, err := run(strings.NewReader("nonsense\n"), &bytes.Buffer{}, config{}); err == nil {
		t.Errorf("parse failure should be an error")
	}
}

func TestRunEMVDQuery(t *testing.T) {
	in := `
schema R(A1, A2, A3, B)
R: A1 ->> A2 | B
R: A2 ->> A3 | B
R: A3 ->> A1 | B
? R: A1 ->> A3 | B
`
	var out bytes.Buffer
	code, _, err := run(strings.NewReader(in), &out, config{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 0 || !strings.Contains(out.String(), "✓ Σ ⊨ R: A1 ->> A3 | B") {
		t.Errorf("EMVD query failed (code %d):\n%s", code, out.String())
	}
}

func TestRunUnknownExitCode(t *testing.T) {
	// A general instance whose chase diverges yields exit code 2.
	in := `
schema R(A, B, C)
R[A,B] <= R[B,C]
R: A -> B
? R[C] <= R[A]
`
	var out bytes.Buffer
	code, _, err := run(strings.NewReader(in), &out, config{budget: 64})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 2 || !strings.Contains(out.String(), "?") {
		t.Errorf("expected unknown verdict and exit 2, got %d:\n%s", code, out.String())
	}
}

func TestRunTDQuery(t *testing.T) {
	// The EMVD-shaped TD chain from the Sagiv–Walecka family, in TD row
	// syntax.
	in := `
schema R(A1, A2, A3, B)
R :: (x, y1, u1, b1) (x, y2, u2, b2) / (x, y1, u3, b2)
R :: (v1, y, u1, b1) (v2, y, u2, b2) / (v3, y, u1, b2)
R :: (v1, y1, u, b1) (v2, y2, u, b2) / (v1, y3, u, b2)

? R :: (x, y1, u1, b1) (x, y2, u2, b2) / (x, y3, u1, b2)
`
	var out bytes.Buffer
	code, _, err := run(strings.NewReader(in), &out, config{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 0 || !strings.Contains(out.String(), "✓ Σ ⊨ R: ") {
		t.Errorf("TD query failed (code %d):\n%s", code, out.String())
	}
}

func TestRunExplain(t *testing.T) {
	in := `
schema R(A, B)
R: A -> B
R[A] <= R[B]
?fin R[B] <= R[A]
`
	var out bytes.Buffer
	code, _, err := run(strings.NewReader(in), &out, config{verbose: true, explain: true})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 0 || !strings.Contains(out.String(), "cardinality cycle") {
		t.Errorf("explanation missing (code %d):\n%s", code, out.String())
	}
}

func TestRunStats(t *testing.T) {
	f, err := os.Open("testdata/manager.dep")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	reg := obs.New()
	var out, stats bytes.Buffer
	code, roots, err := run(f, &out, config{obs: reg, stats: true, statsW: &stats})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 0 {
		t.Errorf("exit code = %d", code)
	}
	s := stats.String()
	for _, want := range []string{
		"stats: MGR[NAME] <= EMP[NAME] engine=ind",
		"ind_expanded=",
		"ind_frontier_peak=",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("stats output missing %q:\n%s", want, s)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["ind.expanded"] == 0 {
		t.Errorf("registry missing ind.expanded: %v", snap.Counters)
	}
	if len(roots) == 0 || roots[0].Name != "core.query" {
		t.Fatalf("run returned no core.query spans: %+v", roots)
	}
	// The snapshot the -trace-json flag writes round-trips.
	snap.Spans = roots
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := obs.ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Spans) != len(roots) {
		t.Errorf("trace JSON round-trip lost spans: %d != %d", len(back.Spans), len(roots))
	}
}

// prop41 is the Proposition 4.1 instance, which only the chase decides:
// R[X,Y] ⊆ S[T,U] and S: T → U imply R: X → Y.
const prop41 = `schema R(X, Y)
schema S(T, U)
R[X,Y] <= S[T,U]
S: T -> U
? R: X -> Y
`

// TestTraceJSONMatchesServedTrace decodes one chase query's span tree
// three ways — as core returns it, from indfd's -trace-json file, and
// from depserve's /debug/traces/{id} — and finds the same field names,
// span names, attributes and nesting in all three (timings aside).
func TestTraceJSONMatchesServedTrace(t *testing.T) {
	file, err := parser.Parse(strings.NewReader(prop41))
	if err != nil {
		t.Fatal(err)
	}
	sys := core.NewSystem(file.DB)
	if err := sys.Add(file.Sigma...); err != nil {
		t.Fatal(err)
	}
	a, err := sys.Implies(file.Queries[0].Goal, core.Options{Obs: obs.New()})
	if err != nil || a.Engine != "chase" {
		t.Fatalf("core: engine %q, err %v", a.Engine, err)
	}
	want := timeless(t, a.Trace)

	// indfd -trace-json, through the flag and cliutil.Finish.
	fs := flag.NewFlagSet("indfd", flag.ContinueOnError)
	of := cliutil.Register(fs)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := fs.Parse([]string{"-trace-json", path}); err != nil {
		t.Fatal(err)
	}
	reg := of.Registry()
	_, roots, err := run(strings.NewReader(prop41), io.Discard, config{obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := of.Finish(reg, roots); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Spans []json.RawMessage }
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.Spans) != 1 {
		t.Fatalf("-trace-json: %d spans, err %v\n%s", len(doc.Spans), err, raw)
	}
	if got := timeless(t, doc.Spans[0]); !reflect.DeepEqual(got, want) {
		t.Errorf("-trace-json tree\n%v\nwant core's\n%v", got, want)
	}

	// depserve's flight recorder.
	srv := serve.New(serve.Config{Reg: obs.New(), Logger: slog.New(slog.NewJSONHandler(io.Discard, nil))})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body := `{"schema":["R(X, Y)","S(T, U)"],"sigma":["R[X,Y] <= S[T,U]","S: T -> U"],"goal":"R: X -> Y"}`
	resp, err := http.Post(ts.URL+"/v1/implies", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/debug/traces/" + resp.Header.Get("X-Trace-Id"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var rec struct{ Trace json.RawMessage }
	if err := json.Unmarshal(raw, &rec); err != nil || rec.Trace == nil {
		t.Fatalf("/debug/traces/{id}: err %v\n%s", err, raw)
	}
	if got := timeless(t, rec.Trace); !reflect.DeepEqual(got, want) {
		t.Errorf("/debug/traces tree\n%v\nwant core's\n%v", got, want)
	}
}

// timeless decodes a span tree's JSON (or encodes a tree first) into
// generic maps with every duration_ns zeroed: what is left is the field
// names, span names, attributes and nesting.
func timeless(t *testing.T, tree any) any {
	t.Helper()
	raw, ok := tree.(json.RawMessage)
	if !ok {
		var err error
		if raw, err = json.Marshal(tree); err != nil {
			t.Fatal(err)
		}
	}
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	var strip func(any)
	strip = func(v any) {
		m := v.(map[string]any)
		m["duration_ns"] = 0
		children, _ := m["children"].([]any)
		for _, c := range children {
			strip(c)
		}
	}
	strip(v)
	return v
}
