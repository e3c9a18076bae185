package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"indfd/internal/deps"
	"indfd/internal/fd"
	"indfd/internal/obs"
)

// TestBatchProofsMatchProveObs pins the proof text of registered fd
// answers, whose step lines the compiled prover renders once: over the
// 32-attribute FD chain, every one of the 496 goals Ai -> Aj (i < j)
// answers yes with exactly the text of fd.ProveObs's proof — which
// fd.Proof.Verify accepts — both computed (cache misses) and replayed
// (cache hits).
func TestBatchProofsMatchProveObs(t *testing.T) {
	const n = 32
	attrs := make([]string, n)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("A%d", i)
	}
	var sigma []deps.FD
	var sigmaLines []string
	for i := 0; i+1 < n; i++ {
		sigma = append(sigma, deps.NewFD("R", deps.Attrs(attrs[i]), deps.Attrs(attrs[i+1])))
		sigmaLines = append(sigmaLines, sigma[i].String())
	}
	var goals []deps.FD
	var goalLines []string
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g := deps.NewFD("R", deps.Attrs(attrs[i]), deps.Attrs(attrs[j]))
			goals = append(goals, g)
			goalLines = append(goalLines, g.String())
		}
	}
	want := make([]string, len(goals))
	for i, g := range goals {
		ref, ok := fd.ProveObs(sigma, g, nil)
		if !ok {
			t.Fatalf("ProveObs: %v not implied", g)
		}
		if err := ref.Verify(sigma); err != nil {
			t.Fatalf("ProveObs proof of %v fails Verify: %v", g, err)
		}
		want[i] = ref.String()
	}
	schemaBody, _ := json.Marshal(map[string][]string{
		"schema": {"R(" + strings.Join(attrs, ", ") + ")"},
		"sigma":  sigmaLines,
	})

	_, _, ts := newTestServer(t, Config{CacheSize: 4096, MaxBatch: 512})
	putSchema(t, ts.URL, "chain", string(schemaBody))
	batchBody, _ := json.Marshal(BatchRequest{SchemaName: "chain", Goals: goalLines})
	for pass, cache := range []string{"miss", "hit"} {
		r, b := postJSON(t, ts.URL+"/v1/batch", string(batchBody))
		if r.StatusCode != http.StatusOK {
			t.Fatalf("pass %d: status %d\n%s", pass, r.StatusCode, b)
		}
		var resp BatchResponse
		if err := json.Unmarshal(b, &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Answers) != len(goals) {
			t.Fatalf("pass %d: %d answers, want %d", pass, len(resp.Answers), len(goals))
		}
		for i, a := range resp.Answers {
			if a.Verdict != "yes" || a.Engine != "fd" || a.Cache != cache {
				t.Fatalf("goal %s: verdict %s engine %s cache %s, want yes fd %s",
					goalLines[i], a.Verdict, a.Engine, a.Cache, cache)
			}
			if a.Proof != want[i] {
				t.Fatalf("goal %s (%s): proof differs from ProveObs\ngot:\n%s\nwant:\n%s",
					goalLines[i], cache, a.Proof, want[i])
			}
		}
	}
}

// TestRequestIDFormat pins the request ID spelling: the process base, a
// dash, and the sequence number zero-padded to six digits; the number
// is returned too, for the access log's sampling.
func TestRequestIDFormat(t *testing.T) {
	s := New(Config{Reg: obs.New()})
	for _, n := range []uint64{1, 42, 999999, 1000000, 123456789} {
		s.nextID.Store(n - 1)
		got, seq := s.nextRequestID()
		if want := fmt.Sprintf("%s-%06d", s.idBase, n); got != want || seq != n {
			t.Errorf("request %d: ID %q, sequence %d, want %q, %d", n, got, seq, want, n)
		}
	}
}

// TestCounterSetResolvesOnce pins the labelled-counter cache: each key
// resolves through the registry once, even when goroutines race on its
// first use, every use lands on that one counter, and the series keeps
// the name MetricName gives it.
func TestCounterSetResolvesOnce(t *testing.T) {
	reg := obs.New()
	var resolved atomic.Int64
	cs := newCounterSet(func(k answerLabels) *obs.Counter {
		resolved.Add(1)
		return reg.Counter(obs.MetricName("serve.answers", "engine", k.engine, "verdict", k.verdict))
	})
	keys := []answerLabels{{"fd", "yes"}, {"fd", "no"}, {"chase", "deadline"}, {"ind", "yes"}}
	const workers, rounds = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				for _, k := range keys {
					cs.get(k).Inc()
				}
			}
		}()
	}
	wg.Wait()
	if got := resolved.Load(); got != int64(len(keys)) {
		t.Errorf("resolved %d times, want %d", got, len(keys))
	}
	if got := reg.Counter(`serve.answers{engine="fd",verdict="yes"}`).Value(); got != workers*rounds {
		t.Errorf(`serve.answers{engine="fd",verdict="yes"} = %d, want %d`, got, workers*rounds)
	}
}

// TestLazyCountersKeepNames: serve.satisfies{satisfied} and the batch.*
// counters exist only once incremented, under their established names,
// so a workload that never fails a batch goal exports no
// batch.goal_errors series at all.
func TestLazyCountersKeepNames(t *testing.T) {
	_, reg, ts := newTestServer(t, Config{})
	lazy := func() []string {
		var out []string
		for name := range reg.Snapshot().Counters {
			if strings.HasPrefix(name, "batch.") || strings.HasPrefix(name, "serve.satisfies") {
				out = append(out, name)
			}
		}
		return out
	}
	if names := lazy(); len(names) != 0 {
		t.Fatalf("a fresh server exports %v", names)
	}
	sat := `{"schema": ["R(A, B)"], "sigma": ["R: A -> B"], "data": {"R": [["x", "1"], ["y", "2"]]}}`
	for _, body := range []string{sat, sat, strings.Replace(sat, `["y", "2"]`, `["x", "2"]`, 1)} {
		if r, b := postJSON(t, ts.URL+"/v1/satisfies", body); r.StatusCode != http.StatusOK {
			t.Fatalf("satisfies = %d\n%s", r.StatusCode, b)
		}
	}
	if r, b := postJSON(t, ts.URL+"/v1/batch",
		`{"schema": ["R(A, B)"], "sigma": ["R: A -> B"], "goals": ["R: A -> B", "R: B -> A"]}`); r.StatusCode != http.StatusOK {
		t.Fatalf("batch = %d\n%s", r.StatusCode, b)
	}
	want := map[string]int64{
		`serve.satisfies{satisfied="true"}`:  2,
		`serve.satisfies{satisfied="false"}`: 1,
		"batch.requests":                     1,
		"batch.goals":                        2,
	}
	snap := reg.Snapshot()
	for _, name := range lazy() {
		if got, ok := want[name]; !ok || snap.Counters[name] != got {
			t.Errorf("%s = %d, want %d (present: %t)", name, snap.Counters[name], got, ok)
		}
		delete(want, name)
	}
	for name := range want {
		t.Errorf("%s missing", name)
	}
}
