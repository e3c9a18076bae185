package obs

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// updateGolden regenerates the exposition golden file instead of
// comparing (the Lemma 7.2 trace-golden convention):
//
//	go test ./internal/obs/ -run TestWritePrometheusGolden -update
var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds a fixed registry exercising every exposition
// shape: plain and labeled counters, gauges, a multi-bucket histogram,
// a labeled histogram, and a label value needing escaping.
func goldenRegistry() *Registry {
	reg := New()
	reg.Counter("chase.rounds").Add(42)
	reg.Counter("pool.hits").Add(11)
	reg.Counter("pool.misses").Add(4)
	reg.Counter("pool.discards").Add(1)
	reg.Counter(MetricName("http.requests", "path", "/v1/implies", "code", "200")).Add(7)
	reg.Counter(MetricName("http.requests", "path", "/v1/implies", "code", "503")).Add(1)
	reg.Counter(MetricName("http.requests", "path", "/metrics", "code", "200")).Add(3)
	reg.Counter(MetricName("serve.answers", "engine", "ind", "verdict", "yes")).Inc()
	reg.Counter(MetricName("quote.test", "q", `a"b\c`+"\n")).Inc()
	reg.Gauge("http.in_flight").Set(2)
	reg.Gauge("chase.tuples_peak").SetMax(17)
	// The exporter and digest-store counters are registered eagerly at
	// construction (NewExporter, NewDigestStore), so a real exposition
	// carries them at zero before any traffic; the golden pins that a
	// zero-valued counter is exposed, not elided.
	reg.Counter("obs.export_dropped")
	reg.Counter("obs.digest_evictions")
	h := reg.Histogram("ind.chain_length")
	h.Observe(1)
	h.Observe(3)
	h.Observe(3)
	h.Observe(200)
	lat := reg.Histogram(MetricName("http.latency_us", "path", "/v1/implies"))
	lat.Observe(120)
	lat.Observe(90000)
	// Every remaining family instrumented anywhere under internal/ is
	// pinned here with synthetic values so TestExpositionCompleteness
	// can assert the exposition covers the full inventory. Values are
	// deterministic (index-derived) — only presence and format matter.
	for i, name := range []string{
		"batch.goal_errors", "batch.goals", "batch.requests",
		"cache.evictions", "cache.footprint_invalidations", "cache.hits", "cache.misses",
		"compile.evictions", "compile.hits", "compile.misses",
		"chase.delta_tuples", "chase.fd_applications", "chase.fixpoint_passes",
		"chase.ind_applications", "chase.rd_applications", "chase.rekeyed_tuples",
		"chase.scans_skipped", "chase.tuples_created", "chase.unions",
		"fd.attrs_derived", "fd.closure_passes", "fd.prove_calls",
		"http.slow_requests", "http.traceparent_honored", "http.traceparent_minted",
		"ind.expanded", "ind.generated", "ind.visited",
		"lint.deps_checked", "lint.violations",
		"maintain.cascade_tuples", "maintain.deletes", "maintain.fd_checks",
		"maintain.ind_checks", "maintain.inserts", "maintain.rejects",
		"obs.digest_observations", "obs.export_batches", "obs.export_errors", "obs.export_spans",
		"registry.deletes", "registry.hits", "registry.misses", "registry.puts",
		"search.checks", "search.databases_enumerated", "search.exhaustive_skipped",
		"search.hits", "search.random_trials",
		"serve.deadline_exceeded", "serve.errors_total", "serve.requests_total",
		"tsdb.samples", "tsdb.series_dropped",
		"unary.cycle_rounds", "unary.reversed_fds", "unary.reversed_inds", "unary.systems_built",
		"watchdog.alerts_fired", "watchdog.alerts_resolved",
	} {
		reg.Counter(name).Add(int64(i + 1))
	}
	for i, name := range []string{
		"ind.frontier_peak", "maintain.index_entries", "obs.digest_entries",
		"process.gc_pause_total_ns", "process.gomaxprocs", "process.heap_alloc_bytes",
		"process.uptime_seconds", "registry.schemas", "tsdb.series",
		"unary.columns", "unary.ind_closure_edges", "watchdog.alerts_active",
	} {
		reg.Gauge(name).Set(int64(i + 1))
	}
	reg.Histogram("serve.http_latency").Observe(1234)
	reg.Gauge(MetricName("process.build_info", "version", "v0.0.0", "goversion", "go1.22", "revision", "dev")).Set(1)
	reg.Counter(MetricName("serve.satisfies", "verdict", "yes")).Inc()
	return reg
}

// TestWritePrometheusGolden pins the /metrics exposition format — line
// ordering, family grouping, cumulative buckets, escaping — against a
// golden file so scrapes stay diffable across changes.
func TestWritePrometheusGolden(t *testing.T) {
	var b strings.Builder
	if err := goldenRegistry().Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	path := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	wantLines := strings.Split(string(raw), "\n")
	gotLines := strings.Split(got, "\n")
	for i := 0; i < len(wantLines) || i < len(gotLines); i++ {
		var w, g string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w != g {
			t.Errorf("exposition line %d:\n  got:  %q\n  want: %q", i+1, g, w)
		}
	}
}

// The exposition must be byte-stable across repeated snapshots of the
// same state (map iteration order must not leak through).
func TestWritePrometheusDeterministic(t *testing.T) {
	reg := goldenRegistry()
	var first string
	for i := 0; i < 10; i++ {
		var b strings.Builder
		if err := reg.Snapshot().WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = b.String()
		} else if b.String() != first {
			t.Fatalf("exposition differs between identical snapshots:\n%s\nvs\n%s", first, b.String())
		}
	}
}

// Cumulative histogram invariants: bucket counts are nondecreasing in
// le order, the +Inf bucket equals _count, and _sum matches.
func TestWritePrometheusHistogramCumulative(t *testing.T) {
	reg := New()
	h := reg.Histogram("x")
	for _, v := range []int64{1, 2, 2, 5, 100} {
		h.Observe(v)
	}
	var b strings.Builder
	if err := reg.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`x_bucket{le="1"} 1`,
		`x_bucket{le="3"} 3`,
		`x_bucket{le="7"} 4`,
		`x_bucket{le="127"} 5`,
		`x_bucket{le="+Inf"} 5`,
		`x_sum 110`,
		`x_count 5`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestMetricNameEscaping(t *testing.T) {
	got := MetricName("m", "k", "a\"b\\c\nd")
	want := `m{k="a\"b\\c\nd"}`
	if got != want {
		t.Errorf("MetricName = %q, want %q", got, want)
	}
	if MetricName("m") != "m" {
		t.Errorf("MetricName with no labels should be the base name")
	}
}

func TestSanitizeFamily(t *testing.T) {
	for in, want := range map[string]string{
		"chase.rounds":    "chase_rounds",
		"http.latency_us": "http_latency_us",
		"9lives":          "_lives",
		"a-b.c":           "a_b_c",
	} {
		if got := sanitizeFamily(in); got != want {
			t.Errorf("sanitizeFamily(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestWritePrometheusEmptyHistogram pins the exposition of a histogram
// that was created but never observed: Prometheus requires the family
// to be present with a zero +Inf bucket, zero sum, and zero count —
// not silently absent — so dashboards can tell "instrument exists,
// nothing happened yet" from "instrument missing".
func TestWritePrometheusEmptyHistogram(t *testing.T) {
	reg := New()
	_ = reg.Histogram("idle.latency_us")
	var b strings.Builder
	if err := reg.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE idle_latency_us histogram",
		`idle_latency_us_bucket{le="+Inf"} 0`,
		"idle_latency_us_sum 0",
		"idle_latency_us_count 0",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("empty-histogram exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "idle_latency_us_bucket") != 1 {
		t.Errorf("empty histogram must emit exactly the +Inf bucket:\n%s", out)
	}
}

// TestWritePrometheusInfOnlyHistogram covers a snapshot whose histogram
// carries a count but no finite buckets (the shape a Diff can produce
// when every finite bucket delta cancels): the +Inf bucket must still
// equal _count so the cumulative invariant holds.
func TestWritePrometheusInfOnlyHistogram(t *testing.T) {
	s := &Snapshot{
		Histograms: map[string]HistogramSnapshot{
			"odd": {Count: 5, Sum: 40},
		},
	}
	var b strings.Builder
	if err := s.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`odd_bucket{le="+Inf"} 5`,
		"odd_sum 40",
		"odd_count 5",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("+Inf-only exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "odd_bucket") != 1 {
		t.Errorf("+Inf must be the only bucket line:\n%s", out)
	}
}
