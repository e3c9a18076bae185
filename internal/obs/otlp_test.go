package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// otlpFixture builds a fixed registry + record pair covering every
// encoding shape: labeled counters, gauges, a histogram with an
// exemplar, and a request record with a two-level span tree, a W3C
// trace ID, and a legacy (non-hex) exemplar needing normalization.
func otlpFixture() (*Snapshot, []*RequestRecord) {
	reg := New()
	reg.Counter("chase.rounds").Add(42)
	reg.Counter("pool.hits").Add(11)
	reg.Counter("pool.misses").Add(4)
	reg.Counter("pool.discards").Add(1)
	reg.Counter(MetricName("http.requests", "path", "/v1/implies", "code", "200")).Add(7)
	reg.Gauge("http.in_flight").Set(2)
	reg.Gauge(MetricName("process.build_info", "version", "v1.2.3", "goversion", "go1.22", "revision", "abc123")).Set(1)
	reg.Counter("obs.export_dropped").Add(3)
	h := reg.Histogram(MetricName("http.latency_us", "path", "/v1/implies"))
	h.Observe(90)
	h.ObserveExemplar(1500, "4bf92f3577b34da6a3ce929d0e0e4736")

	rec := &RequestRecord{
		TraceID:      "4bf92f3577b34da6a3ce929d0e0e4736",
		SpanID:       "00f067aa0ba902b7",
		ParentSpanID: "b7ad6b7169203331",
		Route:        "/v1/implies",
		Status:       200,
		Start:        time.Unix(1700000000, 0).UTC(),
		DurationNS:   2_500_000,
		Goal:         "R: A -> B",
		Mode:         "unrestricted",
		Verdict:      "yes",
		Engine:       "chase",
		Cache:        "miss",
		Trace: &Span{
			Name:       "implies",
			DurationNS: 2_000_000,
			Attrs:      []Attr{{Key: "engine", Value: "chase"}},
			Children: []*Span{
				{Name: "chase.round", DurationNS: 900_000},
				{Name: "chase.round", DurationNS: 800_000, Running: true},
			},
		},
	}
	legacy := &RequestRecord{
		TraceID:    "1a2b3c4-000042", // pre-trace-context request-ID form
		Route:      "/v1/explain",
		Status:     503,
		Start:      time.Unix(1700000004, 0).UTC(),
		DurationNS: 50_000_000,
		Verdict:    "unknown",
		Engine:     "chase",
	}
	return reg.Snapshot(), []*RequestRecord{rec, legacy}
}

// TestOTLPGolden pins the whole OTLP JSON document — field names,
// string-encoded int64s, attribute decoding, span flattening, ID
// synthesis — against a golden file (-update regenerates).
func TestOTLPGolden(t *testing.T) {
	snap, recs := otlpFixture()
	doc := OTLPExport(snap, recs, OTLPResource{Attributes: []OTLPKeyValue{
		otlpStr("service.name", "depserve"),
		otlpStr("service.version", "v1.2.3"),
		otlpStr("vcs.revision", "abc123"),
	}}, time.Unix(1700000010, 0).UTC())

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(doc); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "otlp.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got := buf.String(); got != string(want) {
		t.Errorf("OTLP encoding drifted from golden (regenerate with -update if intended)\n got: %s\nwant: %s", got, want)
	}
}

// TestOTLPRoundTrip re-decodes the wire form into the same document —
// the encoding must survive its own JSON round trip, since the file
// sink's lines are read back by downstream tooling.
func TestOTLPRoundTrip(t *testing.T) {
	snap, recs := otlpFixture()
	doc := OTLPExport(snap, recs, OTLPResourceFor("depserve"), time.Unix(1700000010, 0))
	var buf bytes.Buffer
	if err := doc.WriteOTLP(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Count(buf.String(), "\n") != 1 {
		t.Errorf("WriteOTLP should emit exactly one line, got %q", buf.String())
	}
	var back OTLPDocument
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("decode: %v", err)
	}
	var again bytes.Buffer
	if err := back.WriteOTLP(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Errorf("round trip not stable:\n1st: %s\n2nd: %s", buf.Bytes(), again.Bytes())
	}
}

func TestOTLPSpanEncoding(t *testing.T) {
	_, recs := otlpFixture()
	doc := OTLPExport(nil, recs, OTLPResourceFor("depserve"), time.Unix(1700000010, 0))
	if len(doc.ResourceMetrics) != 0 {
		t.Errorf("span-only export has resourceMetrics")
	}
	if len(doc.ResourceSpans) != 1 {
		t.Fatalf("resourceSpans = %d, want 1", len(doc.ResourceSpans))
	}
	spans := doc.ResourceSpans[0].ScopeSpans[0].Spans
	// Record 1: root + implies + 2 rounds; record 2: root only.
	if len(spans) != 5 {
		t.Fatalf("spans = %d, want 5", len(spans))
	}
	root := spans[0]
	if root.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" ||
		root.SpanID != "00f067aa0ba902b7" || root.ParentSpanID != "b7ad6b7169203331" {
		t.Errorf("root IDs = %s/%s/%s, want the record's W3C IDs",
			root.TraceID, root.SpanID, root.ParentSpanID)
	}
	if root.Kind != otlpKindServer || root.Status.Code != otlpStatusOK {
		t.Errorf("root kind/status = %d/%d", root.Kind, root.Status.Code)
	}
	if root.EndTimeUnixNano-root.StartTimeUnixNano != 2_500_000 {
		t.Errorf("root duration = %d ns", root.EndTimeUnixNano-root.StartTimeUnixNano)
	}
	engine := spans[1]
	if engine.ParentSpanID != root.SpanID || engine.Kind != otlpKindInternal {
		t.Errorf("engine span parent/kind = %s/%d", engine.ParentSpanID, engine.Kind)
	}
	if spans[2].ParentSpanID != engine.SpanID || spans[3].ParentSpanID != engine.SpanID {
		t.Errorf("round spans not parented to the engine span")
	}
	if spans[2].SpanID == spans[3].SpanID {
		t.Errorf("sibling spans share an ID: %s", spans[2].SpanID)
	}
	for i, sp := range spans {
		if !isHex(sp.TraceID, 32) || !isHex(sp.SpanID, 16) {
			t.Errorf("span %d IDs not valid hex: trace=%q span=%q", i, sp.TraceID, sp.SpanID)
		}
	}
	legacy := spans[4]
	if legacy.Status.Code != otlpStatusError {
		t.Errorf("503 record status = %d, want error", legacy.Status.Code)
	}
	if legacy.TraceID == recs[1].TraceID {
		t.Errorf("legacy trace ID passed through unnormalized: %q", legacy.TraceID)
	}
	if got := OTLPTraceID(recs[1].TraceID); got != legacy.TraceID {
		t.Errorf("legacy normalization unstable: %q vs %q", got, legacy.TraceID)
	}
}

func TestOTLPMetricEncoding(t *testing.T) {
	snap, _ := otlpFixture()
	doc := OTLPExport(snap, nil, OTLPResourceFor("depserve"), time.Unix(1700000010, 0))
	if len(doc.ResourceSpans) != 0 {
		t.Errorf("metric-only export has resourceSpans")
	}
	metrics := doc.ResourceMetrics[0].ScopeMetrics[0].Metrics
	byName := map[string]OTLPMetric{}
	for _, m := range metrics {
		byName[m.Name] = m
	}
	sum, ok := byName["http.requests"]
	if !ok || sum.Sum == nil || !sum.Sum.IsMonotonic {
		t.Fatalf("http.requests not a monotonic sum: %+v", sum)
	}
	dp := sum.Sum.DataPoints[0]
	if dp.AsInt != 7 || len(dp.Attributes) != 2 {
		t.Errorf("http.requests data point = %+v", dp)
	}
	if dp.Attributes[0].Key != "path" || dp.Attributes[0].Value.StringValue != "/v1/implies" {
		t.Errorf("label decoding = %+v", dp.Attributes)
	}
	if g, ok := byName["process.build_info"]; !ok || g.Gauge == nil ||
		len(g.Gauge.DataPoints[0].Attributes) != 3 {
		t.Errorf("build_info gauge = %+v", g)
	}
	hist, ok := byName["http.latency_us"]
	if !ok || hist.Histogram == nil {
		t.Fatalf("http.latency_us missing")
	}
	hdp := hist.Histogram.DataPoints[0]
	if len(hdp.BucketCounts) != len(hdp.ExplicitBounds)+1 {
		t.Errorf("bucketCounts/explicitBounds = %d/%d, want n+1/n",
			len(hdp.BucketCounts), len(hdp.ExplicitBounds))
	}
	if hdp.Count != 2 || hdp.Sum != 1590 {
		t.Errorf("histogram count/sum = %d/%v", hdp.Count, hdp.Sum)
	}
	if len(hdp.Exemplars) != 1 || hdp.Exemplars[0].TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("exemplars = %+v", hdp.Exemplars)
	}
}

func TestOTLPResourceFor(t *testing.T) {
	res := OTLPResourceFor("depserve")
	got := map[string]string{}
	for _, a := range res.Attributes {
		got[a.Key] = a.Value.StringValue
	}
	if got["service.name"] != "depserve" {
		t.Errorf("service.name = %q", got["service.name"])
	}
	for _, key := range []string{"service.version", "vcs.revision", "process.runtime.version"} {
		if got[key] == "" {
			t.Errorf("resource attribute %s empty", key)
		}
	}
	if !strings.HasPrefix(got["process.runtime.version"], "go") {
		t.Errorf("process.runtime.version = %q", got["process.runtime.version"])
	}
}

func TestOTLPNilAndEmpty(t *testing.T) {
	doc := OTLPExport(nil, nil, OTLPResourceFor("x"), time.Unix(0, 1))
	if len(doc.ResourceSpans) != 0 || len(doc.ResourceMetrics) != 0 {
		t.Errorf("empty export = %+v", doc)
	}
	b, err := json.Marshal(doc)
	if err != nil || string(b) != "{}" {
		t.Errorf("empty document = %s (%v), want {}", b, err)
	}
	if OTLPExport((*Snapshot)(nil), []*RequestRecord{nil}, OTLPResource{}, time.Unix(0, 1)); false {
		t.Error("unreachable")
	}
}

func TestSynthHexProperties(t *testing.T) {
	a := synthHex("seed", "k1", 16)
	b := synthHex("seed", "k2", 16)
	if a == b {
		t.Errorf("distinct keys collided: %s", a)
	}
	if a != synthHex("seed", "k1", 16) {
		t.Errorf("synthHex not deterministic")
	}
	if !isHex(a, 32) || !isHex(synthHex("s", "k", 8), 16) {
		t.Errorf("synthHex output not valid hex: %q", a)
	}
}
