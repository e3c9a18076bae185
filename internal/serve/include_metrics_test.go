package serve

import (
	"encoding/json"
	"maps"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"indfd/internal/obs"
)

// chaseImplies is the Proposition 4.1 chase: two seed tuples and the
// two tuples the IND adds, then the FD equates the goal.
const chaseImplies = `{
	"schema": ["R(X, Y)", "S(T, U)"],
	"sigma": ["R[X,Y] <= S[T,U]", "S: T -> U"],
	"goal": "R: X -> Y"
}`

// largerChase runs the divergent instance into a 64-tuple budget.
const largerChase = `{
	"schema": ["R(A, B, C)"],
	"sigma": ["R[A,B] <= R[B,C]", "R: A, B -> C"],
	"goal": "R: A -> C",
	"budget": 64
}`

// fdImplies is answered by the fd engine alone.
const fdImplies = `{
	"schema": ["R(A, B, C)"],
	"sigma": ["R: A -> B", "R: B -> C"],
	"goal": "R: A -> C"
}`

// searchFallback runs a cyclic binary IND into a 48-tuple budget; the
// bounded counterexample search then refutes the goal.
const searchFallback = `{
	"schema": ["R(A, B, C)"],
	"sigma": ["R[A,B] <= R[B,C]"],
	"goal": "R: A -> B",
	"budget": 48,
	"search": true
}`

// withIncludeMetrics returns body with "include_metrics": true added.
func withIncludeMetrics(t *testing.T, body string) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatal(err)
	}
	m["include_metrics"] = true
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// postMetrics posts an include_metrics request and decodes the answer.
func postMetrics(t *testing.T, url, body string) ImpliesResponse {
	t.Helper()
	resp, b := postJSON(t, url+"/v1/implies", withIncludeMetrics(t, body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d; body %s", resp.StatusCode, b)
	}
	var out ImpliesResponse
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, b)
	}
	if out.Metrics == nil {
		t.Fatalf("include_metrics returned no metrics: %s", b)
	}
	return out
}

// TestIncludeMetricsGaugesAreOwn: an include_metrics answer reports the
// gauges of its own engine work — not the server's in-flight gauge, not
// other subsystems' levels, and not a tuple peak an earlier, larger
// chase set.
func TestIncludeMetricsGaugesAreOwn(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	if resp, b := postJSON(t, ts.URL+"/v1/implies", largerChase); resp.StatusCode != http.StatusOK {
		t.Fatalf("larger chase status = %d; body %s", resp.StatusCode, b)
	}
	out := postMetrics(t, ts.URL, chaseImplies)
	if out.Engine != "chase" {
		t.Fatalf("engine = %q, want chase", out.Engine)
	}
	for name := range out.Metrics.Gauges {
		if !strings.HasPrefix(name, "chase.") {
			t.Errorf("foreign gauge %s in include_metrics answer: %v", name, out.Metrics.Gauges)
		}
	}
	peak, created := out.Metrics.Gauges["chase.tuples_peak"], out.Metrics.Counters["chase.tuples_created"]
	if peak == 0 || peak > created {
		t.Errorf("chase.tuples_peak = %d, want 1..%d (this request's chase.tuples_created)", peak, created)
	}
}

// TestIncludeMetricsUnderConcurrency: while other clients keep the fd
// engine busy, every include_metrics chase — 200 of them, from two
// clients, so their merges into the shared registry overlap too —
// reports exactly the counters the same request reports on a quiet
// server, and chase.rounds equal to its own chase_rounds.
func TestIncludeMetricsUnderConcurrency(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	solo := postMetrics(t, ts.URL, chaseImplies).Metrics.Counters

	done := make(chan struct{})
	var busy sync.WaitGroup
	for c := 0; c < 4; c++ {
		busy.Add(1)
		go func() {
			defer busy.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/implies", "application/json", strings.NewReader(fdImplies))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}()
	}
	body := withIncludeMetrics(t, chaseImplies)
	var clients sync.WaitGroup
	for c := 0; c < 2; c++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for i := 0; i < 100; i++ {
				resp, err := http.Post(ts.URL+"/v1/implies", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var out ImpliesResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || out.Metrics == nil {
					t.Errorf("status %d, metrics %v, err %v", resp.StatusCode, out.Metrics, err)
					return
				}
				if got := out.Metrics.Counters["chase.rounds"]; got != int64(out.ChaseRounds) {
					t.Errorf("chase.rounds = %d, chase_rounds = %d", got, out.ChaseRounds)
				}
				if !maps.Equal(out.Metrics.Counters, solo) {
					t.Errorf("counters %v, want the quiet server's %v", out.Metrics.Counters, solo)
					return
				}
			}
		}()
	}
	clients.Wait()
	close(done)
	busy.Wait()
}

// TestIncludeMetricsKeepsTotals: the engine work of include_metrics
// requests still reaches the shared registry, so a server that takes a
// mix with include_metrics ends with the same engine counters, gauges
// and histograms as its twin that takes the mix without it.
func TestIncludeMetricsKeepsTotals(t *testing.T) {
	_, regOn, tsOn := newTestServer(t, Config{})
	_, regOff, tsOff := newTestServer(t, Config{})
	for _, body := range []string{chaseImplies, largerChase, fdImplies, fastImplies, chaseImplies} {
		postMetrics(t, tsOn.URL, body)
		if resp, b := postJSON(t, tsOff.URL+"/v1/implies", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d; body %s", resp.StatusCode, b)
		}
	}
	engine := func(reg *obs.Registry) *obs.Snapshot {
		s := reg.Snapshot()
		other := func(name string) bool {
			return !strings.HasPrefix(name, "chase.") && !strings.HasPrefix(name, "fd.") && !strings.HasPrefix(name, "ind.")
		}
		maps.DeleteFunc(s.Counters, func(name string, _ int64) bool { return other(name) })
		maps.DeleteFunc(s.Gauges, func(name string, _ int64) bool { return other(name) })
		maps.DeleteFunc(s.Histograms, func(name string, _ obs.HistogramSnapshot) bool { return other(name) })
		return s
	}
	on, off := engine(regOn), engine(regOff)
	if on.Counters["chase.rounds"] == 0 || on.Counters["fd.prove_calls"] == 0 || on.Gauges["chase.tuples_peak"] == 0 {
		t.Fatalf("mix did no chase or fd work: %+v", on)
	}
	if !reflect.DeepEqual(on, off) {
		t.Errorf("engine metrics with include_metrics\n%+v\nwithout\n%+v", on, off)
	}
}

// TestIncludeMetricsSearchExact: the counterexample search visits its
// candidates on the request's goroutine in one fixed order, so every
// repeat of a fallback query reports the same search.* counters.
func TestIncludeMetricsSearchExact(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	var want map[string]int64
	for i := 0; i < 20; i++ {
		out := postMetrics(t, ts.URL, searchFallback)
		if out.Verdict != "no" || out.Engine != "chase+search" {
			t.Fatalf("repeat %d: verdict %s engine %s, want no from chase+search", i, out.Verdict, out.Engine)
		}
		got := make(map[string]int64)
		for k, v := range out.Metrics.Counters {
			if strings.HasPrefix(k, "search.") {
				got[k] = v
			}
		}
		if i == 0 {
			if got["search.checks"] == 0 || got["search.hits"] != 1 {
				t.Fatalf("search counters missing: %v", got)
			}
			want = got
			continue
		}
		if !maps.Equal(got, want) {
			t.Errorf("repeat %d: search counters %v, want %v", i, got, want)
		}
	}
}
