package serve

// Registry race hammer: concurrent writers republishing a schema while
// readers run batches against it. Every batch answer must be consistent
// with a Σ that actually existed under the version the response echoes —
// no torn reads of a half-swapped entry, no answer computed from one Σ
// and stamped with another's version. Run under -race (make race-hammer
// exercises -cpu 1,2,8).

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"indfd/internal/obs"
	"indfd/internal/obs/tsdb"
)

func TestRegistryRaceHammer(t *testing.T) {
	_, _, ts := newTestServer(t, Config{CacheSize: 256, MaxBatch: 16})

	// Two alternating publications of the same name. Under sigmaChain the
	// goal R: A -> C is implied (yes); under sigmaCut it is not (no).
	const (
		sigmaChain = `{"schema": ["R(A, B, C)"], "sigma": ["R: A -> B", "R: B -> C"]}`
		sigmaCut   = `{"schema": ["R(A, B, C)"], "sigma": ["R: A -> B"]}`
		batchBody  = `{"schema_name": "hammer", "goals": ["R: A -> C", "R: A -> B"]}`
	)
	if r, b := putJSON(t, ts.URL+"/v1/schemas/hammer", sigmaChain); r.StatusCode != http.StatusOK {
		t.Fatalf("seed PUT = %d\n%s", r.StatusCode, b)
	}

	const (
		writers        = 32
		readers        = 32
		putsPerWriter  = 8
		readsPerReader = 8
	)

	// versionSigma records, for every successful PUT, which Σ that
	// version published. Versions are allocated under the registry's
	// lock, so each maps to exactly one Σ.
	var (
		mu           sync.Mutex
		versionSigma = map[int64]string{1: sigmaChain}
	)

	var wg sync.WaitGroup
	errs := make(chan string, writers*putsPerWriter+readers*readsPerReader)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < putsPerWriter; i++ {
				body := sigmaChain
				if (w+i)%2 == 1 {
					body = sigmaCut
				}
				r, raw := putJSON(t, ts.URL+"/v1/schemas/hammer", body)
				if r.StatusCode != http.StatusOK {
					errs <- "PUT status " + r.Status
					continue
				}
				var resp SchemaResponse
				if err := json.Unmarshal(raw, &resp); err != nil {
					errs <- "PUT decode: " + err.Error()
					continue
				}
				mu.Lock()
				versionSigma[resp.Version] = body
				mu.Unlock()
			}
		}(w)
	}

	type observed struct {
		version int64
		chainV  string // verdict for R: A -> C
		directV string // verdict for R: A -> B
	}
	seen := make(chan observed, readers*readsPerReader)
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < readsPerReader; i++ {
				r, raw := postJSON(t, ts.URL+"/v1/batch", batchBody)
				if r.StatusCode != http.StatusOK {
					errs <- "batch status " + r.Status
					continue
				}
				var resp BatchResponse
				if err := json.Unmarshal(raw, &resp); err != nil {
					errs <- "batch decode: " + err.Error()
					continue
				}
				if len(resp.Answers) != 2 {
					errs <- "batch returned wrong answer count"
					continue
				}
				seen <- observed{resp.Version, resp.Answers[0].Verdict, resp.Answers[1].Verdict}
			}
		}()
	}
	wg.Wait()
	close(errs)
	close(seen)
	for e := range errs {
		t.Error(e)
	}

	// Post-hoc consistency: each response's version must name a recorded
	// publication, and its verdicts must match that publication's Σ.
	checked := 0
	for obs := range seen {
		sigma, ok := versionSigma[obs.version]
		if !ok {
			t.Errorf("batch echoed version %d, which no successful PUT published", obs.version)
			continue
		}
		want := "yes"
		if sigma == sigmaCut {
			want = "no"
		}
		if obs.chainV != want {
			t.Errorf("version %d: R: A -> C = %q, but that version's Σ implies %q",
				obs.version, obs.chainV, want)
		}
		if obs.directV != "yes" {
			t.Errorf("version %d: R: A -> B = %q, implied under every published Σ",
				obs.version, obs.directV)
		}
		checked++
	}
	if checked < readers*readsPerReader/2 {
		t.Errorf("only %d batch responses checked; hammer lost too many reads", checked)
	}
}

// TestTraceTreeRaceHammer pins the rule that a published span tree is
// never written again: core hands each query's tree to the flight
// recorder and the exporter once its root has ended, and the readers
// take no lock on it. Writers send recorded FD, IND, chase (with round
// spans) and deadline-killed chase queries plus batches, with a file
// exporter flushing spans and metrics every few milliseconds, while
// readers serve /debug/traces, /debug/traces/{id}, /debug/otlp and
// /metrics and a sampler feeds the registry into a tsdb store. Run
// under -race (make race-hammer exercises -cpu 1,2,8).
func TestTraceTreeRaceHammer(t *testing.T) {
	reg := obs.New()
	exp, err := obs.NewExporter(obs.ExporterConfig{
		Reg: reg, FilePath: filepath.Join(t.TempDir(), "otlp.jsonl"),
		FlushInterval: 2 * time.Millisecond, MetricsInterval: 3 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The answer cache is off so every query runs its engine and builds
	// a tree.
	s := New(Config{Reg: reg, Logger: slog.New(slog.NewJSONHandler(io.Discard, nil)), Exporter: exp})
	s.SetReady(true)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	killed := strings.Replace(divergentImplies, `"timeout_ms": 50`, `"timeout_ms": 5`, 1)
	batch := `{"schema": ["R(X, Y)", "S(T, U)"], "sigma": ["R[X,Y] <= S[T,U]", "S: T -> U"],
		"goals": ["R: X -> Y", "S: T -> U", "R[X] <= S[T]", "R: Y -> X"]}`
	traffic := []struct {
		path, body string
		status     int
	}{
		{"/v1/implies", fdImplies, http.StatusOK},
		{"/v1/implies", fastImplies, http.StatusOK},
		{"/v1/implies", chaseImplies, http.StatusOK},
		{"/v1/implies", killed, http.StatusServiceUnavailable},
		{"/v1/batch", batch, http.StatusOK},
	}
	const writers, rounds, readers = 8, 3, 4

	var (
		lastID   atomic.Value // the X-Trace-Id of a recent response
		writerWG sync.WaitGroup
		readerWG sync.WaitGroup
	)
	lastID.Store("")
	errs := make(chan string, writers*rounds*len(traffic)+readers)
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			for i := 0; i < rounds; i++ {
				for _, q := range traffic {
					r, body := postJSON(t, ts.URL+q.path, q.body)
					if r.StatusCode != q.status {
						errs <- fmt.Sprintf("%s: status %d, want %d\n%.200s", q.path, r.StatusCode, q.status, body)
					}
					lastID.Store(r.Header.Get("X-Trace-Id"))
				}
			}
		}()
	}
	store := tsdb.New(tsdb.Config{Resolution: time.Millisecond})
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-done:
				return
			default:
				store.Sample(reg.Snapshot(), time.Now())
			}
		}
	}()
	for rd := 0; rd < readers; rd++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, path := range []string{"/debug/traces", "/debug/traces/" + lastID.Load().(string), "/debug/otlp", "/metrics"} {
					r, _ := getHdr(t, ts.URL+path, nil)
					if r.StatusCode != http.StatusOK && r.StatusCode != http.StatusNotFound {
						errs <- fmt.Sprintf("GET %s: status %d", path, r.StatusCode)
					}
				}
			}
		}()
	}
	writerWG.Wait()
	close(done)
	readerWG.Wait()
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	// Every recorded tree is complete: no span in it is still running.
	_, body := getHdr(t, ts.URL+"/debug/traces", nil)
	var reply struct{ Traces []*obs.RequestRecord }
	if err := json.Unmarshal(body, &reply); err != nil {
		t.Fatal(err)
	}
	var trees int
	var walk func(sp *obs.Span)
	walk = func(sp *obs.Span) {
		if sp.Running {
			t.Errorf("recorded span %s is still running", sp.Name)
		}
		for _, c := range sp.Children {
			walk(c)
		}
	}
	for _, rec := range reply.Traces {
		if rec.Trace != nil {
			trees++
			walk(rec.Trace)
		}
	}
	if trees == 0 {
		t.Errorf("no recorded request carries a span tree")
	}
}
