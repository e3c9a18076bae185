package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"indfd/internal/obs"
	"indfd/internal/serve"
)

var generated sync.Map // "name/seed" -> *workload

// gen generates a workload once per test binary; the oracle makes
// generation the slowest part of these tests.
func gen(t *testing.T, name string, seed uint64) *workload {
	t.Helper()
	key := name + "/" + string(rune('0'+seed))
	if w, ok := generated.Load(key); ok {
		return w.(*workload)
	}
	w, err := generate(name, seed)
	if err != nil {
		t.Fatalf("generate %s seed %d: %v", name, seed, err)
	}
	generated.Store(key, w)
	return w
}

func bodies(w *workload) []byte {
	var b bytes.Buffer
	for _, o := range append(append([]*op{}, w.preload...), w.seq...) {
		b.WriteString(o.method + " " + o.path + " ")
		b.Write(o.body)
		for _, v := range o.want {
			b.WriteByte(byte('0' + v))
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestGenerateIsSeeded(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			again, err := generate(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bodies(gen(t, name, 1)), bodies(again)) {
				t.Errorf("seed 1 generated different requests twice")
			}
			if bytes.Equal(bodies(gen(t, name, 1)), bodies(gen(t, name, 2))) {
				t.Errorf("seeds 1 and 2 generated the same requests")
			}
		})
	}
}

func TestOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	// inline_zipf: rank r is implied iff (r/36) is even, in every family.
	for _, r := range []int{0, 1, 2, 36, 37, 38, 75, 100} {
		o, err := impliesOp(inlineInstance(rng, r))
		if err != nil {
			t.Fatal(err)
		}
		want := vYes
		if (r/36)%2 != 0 {
			want = vNo
		}
		if o.want[0] != want {
			t.Errorf("inline rank %d: oracle %b, want %b", r, o.want[0], want)
		}
	}
	for _, o := range gen(t, "registered_batch", 1).seq {
		for i, v := range o.want {
			if v != vYes {
				t.Fatalf("batch goal %d: oracle %b, want yes", i, v)
			}
		}
	}
	for _, o := range gen(t, "chase_distinct", 1).seq {
		spiral := strings.Contains(string(o.body), `"budget"`)
		if want := map[bool]verdictSet{true: vUnknown, false: vYes}[spiral]; o.want[0] != want {
			t.Fatalf("%s: oracle %b, want %b", o.body, o.want[0], want)
		}
	}
	// schema_edits: the verdicts across the full Σ and every Σ with one
	// member dropped.
	editWant := map[string]verdictSet{
		"R: A0 -> A5": vYes | vNo, "R: A5 -> A0": vNo,
		"S: X -> Y": vYes | vNo, "S[X] <= T[V]": vYes | vNo,
		"U: B0 -> B3": vYes | vNo, "U: B3 -> B0": vNo,
		"Z: P -> Q": vYes | vNo, "T: W -> V": vNo,
	}
	seen := map[string]bool{}
	for _, o := range gen(t, "schema_edits", 1).seq {
		var req serve.ImpliesRequest
		if o.method != "POST" || json.Unmarshal(o.body, &req) != nil {
			continue
		}
		seen[req.Goal] = true
		if want, ok := editWant[req.Goal]; !ok || o.want[0] != want {
			t.Errorf("schema_edits %q: oracle %b, want %b", req.Goal, o.want[0], want)
		}
	}
	if len(seen) != len(editWant) {
		t.Errorf("schema_edits asked %d distinct goals, want %d", len(seen), len(editWant))
	}
}

func TestCheckReply(t *testing.T) {
	batch := &op{want: []verdictSet{vYes, vNo | vYes}}
	for _, c := range []struct {
		o      *op
		status int
		body   string
		ok     bool
	}{
		{&op{want: []verdictSet{vYes}}, 200, `{"goal":"R: A -> B","verdict":"yes"}`, true},
		{&op{want: []verdictSet{vYes}}, 200, `{"verdict":"no"}`, false},
		{&op{want: []verdictSet{vYes}}, 503, `{"verdict":"yes"}`, false},
		{&op{want: []verdictSet{vYes}}, 200, `{"error":"x"}`, false},
		{batch, 200, `{"answers":[{"verdict":"yes"},{"verdict":"no"}]}`, true},
		{batch, 200, `{"answers":[{"verdict":"yes"}]}`, false},
		{batch, 200, `{"answers":[{"verdict":"yes"},{"verdict":"no"},{"verdict":"no"}]}`, false},
		{&op{}, 200, `{"name":"app","version":2}`, true},
	} {
		if got := checkReply(c.o, c.status, []byte(c.body)); got != c.ok {
			t.Errorf("checkReply(%d, %s) = %v, want %v", c.status, c.body, got, c.ok)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Op: 1, ID: 0, Parent: -1, Start: 0, End: 100},
		{Op: 1, ID: 1, Parent: 0, Start: 10, End: 30},
		{Op: 1, ID: 2, Parent: 0, Start: 20, End: 50},  // overlaps span 1
		{Op: 1, ID: 3, Parent: 0, Start: 90, End: 120}, // runs past its parent
		{Op: 1, ID: 4, Parent: 2, Start: 25, End: 35},  // a grandchild
		{Op: 2, ID: 5, Parent: 0, Start: 60, End: 70},  // another operation
	}
	for i, want := range map[int]int64{0: 100 - 40 - 10, 1: 20, 2: 20, 4: 10} {
		if got := selfTime(spans, i); got != want {
			t.Errorf("selfTime(span %d) = %d, want %d", i, got, want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for these inputs.
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	lower := specMetric{Name: "latency_p50_us", Better: "lower", Bound: 0.1}
	higher := specMetric{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	m := func(trials ...float64) metric { return newMetric("m", "us", trials...) }
	for _, c := range []struct {
		a, b metric
		s    specMetric
		want string
	}{
		{m(100, 101, 99), m(105, 104, 106), lower, "same"},
		{m(100, 101, 99), m(115, 116, 114), lower, "worse"},
		{m(100, 101, 99), m(85, 84, 86), lower, "better"},
		{m(100, 101, 99), m(85, 84, 86), higher, "worse"},
		{m(100, 101, 99), m(115, 116, 114), higher, "better"},
		{m(100, 140, 70), m(100, 101, 99), lower, "unresolved"},
	} {
		if got := judge(c.a, c.b, c.s); got != c.want {
			t.Errorf("judge(%v, %v, %s) = %s, want %s", c.a.Trials, c.b.Trials, c.s.Better, got, c.want)
		}
	}

	dir := t.TempDir()
	write := func(name string, ms ...metric) string {
		byName := map[string]metric{}
		for _, x := range ms {
			byName[x.Name] = x
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, results{Workloads: map[string]map[string]metric{"inline_zipf": byName}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	sp := &spec{EndToEnd: []specMetric{lower, higher}}
	a := write("a.json", newMetric("latency_p50_us", "us", 100, 101, 99), newMetric("ops_per_s", "ops/s", 1000, 1001, 999), newMetric("engine.us", "us", 5))
	b := write("b.json", newMetric("latency_p50_us", "us", 120, 121, 119), newMetric("ops_per_s", "ops/s", 1000, 1002, 998), newMetric("engine.us", "us", 9))
	var out bytes.Buffer
	worse, err := compareFiles(sp, a, b, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !worse {
		t.Errorf("a 20%% latency rise was not reported worse:\n%s", out.String())
	}
	for _, row := range []string{"latency_p50_us", "worse", "ops_per_s", "same", "engine.us", "ungated"} {
		if !strings.Contains(out.String(), row) {
			t.Errorf("comparison lacks %q:\n%s", row, out.String())
		}
	}
	if worse, err := compareFiles(sp, a, a, io.Discard); err != nil || worse {
		t.Errorf("a file compared with itself: worse=%v err=%v", worse, err)
	}
}

// inProcess launches serve.New on an httptest server with depserve's
// defaults; its VmHWM is this test process's.
func inProcess() (*target, error) {
	reg := obs.New()
	reg.SetSpanCap(spanCap)
	s := serve.New(serve.Config{
		Reg: reg, Logger: slog.New(slog.NewJSONHandler(io.Discard, nil)),
		CacheSize: cacheSize, TraceBuffer: traceBuf, DigestSize: digestSize,
	})
	s.SetReady(true)
	ts := httptest.NewServer(s.Handler())
	return &target{addr: strings.TrimPrefix(ts.URL, "http://"), pid: os.Getpid(), stop: func() error { ts.Close(); return nil }}, nil
}

// TestSmoke runs every workload for 300ms end to end, against the
// reference server too, and traced, and checks that no operation fails
// and that every BENCHMARK.json metric prints.
func TestSmoke(t *testing.T) {
	root, sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	refBin, err := build(filepath.Join(root, "bench"), refServerPkg, dir)
	if err != nil {
		t.Fatal(err)
	}
	refLaunch := serverLauncher(refBin, filepath.Join(dir, "refserver.log"))
	if len(sp.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(sp.Workloads), len(workloadNames))
	}
	const dur = 300 * time.Millisecond
	for i, name := range workloadNames {
		if sp.Workloads[i].Name != name {
			t.Errorf("BENCHMARK.json workload %d is %s, want %s", i, sp.Workloads[i].Name, name)
		}
		w := gen(t, name, 1)
		r, err := runE2E(context.Background(), w, inProcess, refLaunch, dur)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tr, err := traceRun(w, dur/10, dur, filepath.Join(t.TempDir(), "trace.json"))
		if err != nil {
			t.Fatalf("%s traced run: %v", name, err)
		}
		if r.failed != 0 || tr.failed != 0 || r.attempted == 0 || tr.attempted == 0 {
			t.Errorf("%s: failed %d of %d end to end and %d of %d traced", name, r.failed, r.attempted, tr.failed, tr.attempted)
		}
		var out bytes.Buffer
		printMetrics(&out, name, append(r.metrics, tr.metrics...))
		units := map[string]string{}
		for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
			f := strings.Fields(line)
			if len(f) != 4 || f[0] != name {
				t.Fatalf("malformed metric line %q", line)
			}
			units[f[1]] = f[3]
		}
		for _, s := range append(append([]specMetric{}, sp.EndToEnd...), sp.PerLayer...) {
			if u, ok := units[s.Name]; !ok || u != s.Unit {
				t.Errorf("%s: metric %s printed with unit %q, BENCHMARK.json says %q", name, s.Name, u, s.Unit)
			}
		}
	}
}
