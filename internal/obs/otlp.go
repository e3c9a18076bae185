package obs

import (
	"encoding/json"
	"hash/fnv"
	"io"
	"strings"
	"time"
)

// This file is the wire-level export side of the package: an
// OTLP-compatible JSON encoding (the proto3 JSON mapping of the
// OpenTelemetry collector's ExportTraceServiceRequest /
// ExportMetricsServiceRequest payloads) of the registry's metric
// snapshots and the flight recorder's request records, so a standard
// tracing backend can ingest what the homegrown registry measures.
// depserve serves the encoding at GET /debug/otlp and streams it
// through the batching Exporter (exporter.go).
//
// The encoding is hand-rolled rather than generated: the repository is
// zero-dependency, and the subset it emits — resource attributes,
// server/internal spans, monotonic sums, gauges, explicit-bound
// histograms with exemplars — is small and stable. int64 fields that
// the proto mapping renders as JSON strings (timestamps, counts,
// integer values) use `json:",string"` so the output matches what an
// OTLP/HTTP JSON receiver expects.

// OTLPDocument is one export payload: span trees, metric snapshots, or
// both, each under a resource describing the producing process.
type OTLPDocument struct {
	ResourceSpans   []OTLPResourceSpans   `json:"resourceSpans,omitempty"`
	ResourceMetrics []OTLPResourceMetrics `json:"resourceMetrics,omitempty"`
}

// OTLPValue is an attribute value (the AnyValue subset this package
// emits: strings and integers).
type OTLPValue struct {
	StringValue string `json:"stringValue,omitempty"`
	IntValue    string `json:"intValue,omitempty"`
}

// OTLPKeyValue is one attribute.
type OTLPKeyValue struct {
	Key   string    `json:"key"`
	Value OTLPValue `json:"value"`
}

// OTLPResource identifies the producing process.
type OTLPResource struct {
	Attributes []OTLPKeyValue `json:"attributes,omitempty"`
}

// OTLPScope names the instrumentation scope.
type OTLPScope struct {
	Name    string `json:"name"`
	Version string `json:"version,omitempty"`
}

// OTLPResourceSpans groups span batches under one resource.
type OTLPResourceSpans struct {
	Resource   OTLPResource     `json:"resource"`
	ScopeSpans []OTLPScopeSpans `json:"scopeSpans"`
}

// OTLPScopeSpans is one scope's spans.
type OTLPScopeSpans struct {
	Scope OTLPScope  `json:"scope"`
	Spans []OTLPSpan `json:"spans"`
}

// OTLP span kinds and status codes (the subset used here).
const (
	otlpKindInternal = 1
	otlpKindServer   = 2
	otlpStatusOK     = 1
	otlpStatusError  = 2
)

// OTLPSpan is one span. TraceID/SpanID are lowercase hex (32 and 16
// chars); timestamps are Unix nanoseconds rendered as strings.
type OTLPSpan struct {
	TraceID           string         `json:"traceId"`
	SpanID            string         `json:"spanId"`
	ParentSpanID      string         `json:"parentSpanId,omitempty"`
	Name              string         `json:"name"`
	Kind              int            `json:"kind,omitempty"`
	StartTimeUnixNano int64          `json:"startTimeUnixNano,string"`
	EndTimeUnixNano   int64          `json:"endTimeUnixNano,string"`
	Attributes        []OTLPKeyValue `json:"attributes,omitempty"`
	Status            *OTLPStatus    `json:"status,omitempty"`
}

// OTLPStatus is a span's outcome.
type OTLPStatus struct {
	Code    int    `json:"code,omitempty"`
	Message string `json:"message,omitempty"`
}

// OTLPResourceMetrics groups metric batches under one resource.
type OTLPResourceMetrics struct {
	Resource     OTLPResource       `json:"resource"`
	ScopeMetrics []OTLPScopeMetrics `json:"scopeMetrics"`
}

// OTLPScopeMetrics is one scope's metrics.
type OTLPScopeMetrics struct {
	Scope   OTLPScope    `json:"scope"`
	Metrics []OTLPMetric `json:"metrics"`
}

// OTLPMetric is one metric family: exactly one of Sum (counters),
// Gauge, or Histogram is set.
type OTLPMetric struct {
	Name      string         `json:"name"`
	Sum       *OTLPSum       `json:"sum,omitempty"`
	Gauge     *OTLPGauge     `json:"gauge,omitempty"`
	Histogram *OTLPHistogram `json:"histogram,omitempty"`
}

// otlpCumulative is AGGREGATION_TEMPORALITY_CUMULATIVE — the only
// temporality this registry has (its counters never reset).
const otlpCumulative = 2

// OTLPSum is a counter family.
type OTLPSum struct {
	DataPoints             []OTLPNumberDataPoint `json:"dataPoints"`
	AggregationTemporality int                   `json:"aggregationTemporality"`
	IsMonotonic            bool                  `json:"isMonotonic,omitempty"`
}

// OTLPGauge is a gauge family.
type OTLPGauge struct {
	DataPoints []OTLPNumberDataPoint `json:"dataPoints"`
}

// OTLPNumberDataPoint is one labeled integer sample.
type OTLPNumberDataPoint struct {
	Attributes   []OTLPKeyValue `json:"attributes,omitempty"`
	TimeUnixNano int64          `json:"timeUnixNano,string"`
	AsInt        int64          `json:"asInt,string"`
}

// OTLPHistogram is a histogram family.
type OTLPHistogram struct {
	DataPoints             []OTLPHistogramDataPoint `json:"dataPoints"`
	AggregationTemporality int                      `json:"aggregationTemporality"`
}

// OTLPHistogramDataPoint is one labeled histogram with explicit bounds
// (the log₂ bucket upper bounds) and per-bucket exemplar trace IDs.
type OTLPHistogramDataPoint struct {
	Attributes     []OTLPKeyValue `json:"attributes,omitempty"`
	TimeUnixNano   int64          `json:"timeUnixNano,string"`
	Count          int64          `json:"count,string"`
	Sum            float64        `json:"sum"`
	Max            float64        `json:"max,omitempty"`
	BucketCounts   []int64        `json:"bucketCounts"`
	ExplicitBounds []float64      `json:"explicitBounds"`
	Exemplars      []OTLPExemplar `json:"exemplars,omitempty"`
}

// OTLPExemplar links one bucket to the trace that most recently landed
// in it; AsInt is the bucket's upper bound (the snapshot keeps the
// identity, not the exact value).
type OTLPExemplar struct {
	TimeUnixNano int64  `json:"timeUnixNano,string"`
	TraceID      string `json:"traceId,omitempty"`
	AsInt        int64  `json:"asInt,string"`
}

// otlpScope is the instrumentation scope every export carries.
var otlpScope = OTLPScope{Name: "indfd/internal/obs"}

// otlpStr / otlpInt build attributes.
func otlpStr(k, v string) OTLPKeyValue {
	return OTLPKeyValue{Key: k, Value: OTLPValue{StringValue: v}}
}

func otlpInt(k string, v int64) OTLPKeyValue {
	return OTLPKeyValue{Key: k, Value: OTLPValue{IntValue: itoa(v)}}
}

func itoa(v int64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// ServiceName is the service.name of the resource depserve exports
// under, at /debug/otlp and through the Exporter alike.
const ServiceName = "depserve"

// OTLPResourceFor builds the resource block for a service: its name
// plus the binary identity Build() resolves (service.version, Go
// toolchain, VCS revision).
func OTLPResourceFor(service string) OTLPResource {
	id := Build()
	return OTLPResource{Attributes: []OTLPKeyValue{
		otlpStr("service.name", service),
		otlpStr("service.version", id.Version),
		otlpStr("vcs.revision", id.Revision),
		otlpStr("process.runtime.name", "go"),
		otlpStr("process.runtime.version", id.GoVersion),
		otlpStr("telemetry.sdk.name", "indfd-obs"),
	}}
}

// OTLPExport encodes a registry snapshot and a set of flight-recorder
// records as one OTLP document under res. Either side may be nil/empty;
// now stamps every data point (callers pass a fixed time for
// deterministic output — the golden test does). Counters become
// cumulative monotonic sums, gauges stay gauges, histograms carry their
// log₂ upper bounds as explicitBounds with exemplar trace IDs, and
// MetricName label blocks ({k="v",...}) are decoded into data-point
// attributes so series of one family share one OTLP metric.
func OTLPExport(snap *Snapshot, recs []*RequestRecord, res OTLPResource, now time.Time) *OTLPDocument {
	doc := &OTLPDocument{}
	if spans := otlpSpans(recs); len(spans) > 0 {
		doc.ResourceSpans = []OTLPResourceSpans{{
			Resource:   res,
			ScopeSpans: []OTLPScopeSpans{{Scope: otlpScope, Spans: spans}},
		}}
	}
	if metrics := otlpMetrics(snap, now); len(metrics) > 0 {
		doc.ResourceMetrics = []OTLPResourceMetrics{{
			Resource:     res,
			ScopeMetrics: []OTLPScopeMetrics{{Scope: otlpScope, Metrics: metrics}},
		}}
	}
	return doc
}

// WriteOTLP writes the document as compact single-line JSON — the unit
// the file exporter appends (one document per line) and the HTTP
// exporter posts.
func (d *OTLPDocument) WriteOTLP(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return enc.Encode(d)
}

// --- spans ------------------------------------------------------------------

// otlpSpans flattens each record into a server root span plus its
// engine span tree as internal children.
func otlpSpans(recs []*RequestRecord) []OTLPSpan {
	var out []OTLPSpan
	for _, rec := range recs {
		if rec == nil {
			continue
		}
		out = appendRecordSpans(out, rec)
	}
	return out
}

// appendRecordSpans encodes one request: the HTTP span carries the
// wide-event attributes (route, status, goal, verdict, engine, cache);
// the engine span tree hangs off it with synthesized span IDs. Child
// spans inherit their parent's start — a span keeps durations, not
// offsets — which keeps every child inside its parent's interval.
func appendRecordSpans(out []OTLPSpan, rec *RequestRecord) []OTLPSpan {
	traceID := OTLPTraceID(rec.TraceID)
	rootID := rec.SpanID
	if !isHex(rootID, 16) {
		rootID = synthSpanID(traceID, "root")
	}
	start := rec.Start.UnixNano()
	end := start + rec.DurationNS
	attrs := []OTLPKeyValue{
		otlpStr("http.route", rec.Route),
		otlpInt("http.response.status_code", int64(rec.Status)),
	}
	for k, v := range map[string]string{
		"query.goal": rec.Goal, "query.mode": rec.Mode,
		"query.verdict": rec.Verdict, "query.engine": rec.Engine,
		"cache.result": rec.Cache,
	} {
		if v != "" {
			attrs = append(attrs, otlpStr(k, v))
		}
	}
	// Map iteration order is random; keep the document deterministic.
	sortAttrs(attrs[2:])
	for _, a := range rec.Attrs {
		attrs = append(attrs, otlpStr(a.Key, a.Value))
	}
	status := &OTLPStatus{Code: otlpStatusOK}
	if rec.Status >= 500 {
		status.Code = otlpStatusError
	}
	out = append(out, OTLPSpan{
		TraceID:           traceID,
		SpanID:            rootID,
		ParentSpanID:      normalizeSpanID(rec.ParentSpanID),
		Name:              rec.Route,
		Kind:              otlpKindServer,
		StartTimeUnixNano: start,
		EndTimeUnixNano:   end,
		Attributes:        attrs,
		Status:            status,
	})
	return appendTreeSpans(out, rec.Trace, traceID, rootID, start, "0")
}

// appendTreeSpans walks a span tree depth-first, assigning each node a
// deterministic span ID derived from (trace ID, tree path).
func appendTreeSpans(out []OTLPSpan, sp *Span, traceID, parentID string, start int64, path string) []OTLPSpan {
	if sp == nil {
		return out
	}
	id := synthSpanID(traceID, path)
	span := OTLPSpan{
		TraceID:           traceID,
		SpanID:            id,
		ParentSpanID:      parentID,
		Name:              sp.Name,
		Kind:              otlpKindInternal,
		StartTimeUnixNano: start,
		EndTimeUnixNano:   start + sp.DurationNS,
	}
	for _, a := range sp.Attrs {
		span.Attributes = append(span.Attributes, otlpStr(a.Key, a.Value))
	}
	if sp.Running {
		span.Attributes = append(span.Attributes, otlpStr("running", "true"))
	}
	out = append(out, span)
	for i, c := range sp.Children {
		out = appendTreeSpans(out, c, traceID, id, start, path+"."+itoa(int64(i)))
	}
	return out
}

// OTLPTraceID maps any trace-ID string to a valid OTLP trace ID: a
// 32-char lowercase-hex ID passes through (the W3C IDs serve mints),
// anything else — the legacy request-ID form predates trace context —
// hashes to a stable 32-hex synthetic so the span is still ingestible
// and two exports of one record agree.
func OTLPTraceID(id string) string {
	if isHex(id, 32) {
		return id
	}
	return synthHex(id, "trace", 16)
}

// normalizeSpanID keeps valid 16-hex span IDs and drops the rest ("" =
// no parent) — a malformed parent must not fabricate a link.
func normalizeSpanID(id string) string {
	if isHex(id, 16) {
		return id
	}
	return ""
}

// synthSpanID derives a deterministic 16-hex span ID from the trace ID
// and a position key.
func synthSpanID(traceID, key string) string {
	return synthHex(traceID, key, 8)
}

// synthHex hashes seed+key into n bytes of lowercase hex via FNV-64
// (concatenating as many rounds as needed), never all-zero.
func synthHex(seed, key string, n int) string {
	const hexdigits = "0123456789abcdef"
	out := make([]byte, 0, 2*n)
	round := 0
	for len(out) < 2*n {
		h := fnv.New64a()
		io.WriteString(h, seed)               //nolint:errcheck
		io.WriteString(h, "\x00"+key)         //nolint:errcheck
		io.WriteString(h, itoa(int64(round))) //nolint:errcheck
		v := h.Sum64()
		for i := 0; i < 16 && len(out) < 2*n; i++ {
			out = append(out, hexdigits[(v>>uint(60-4*i))&0xf])
		}
		round++
	}
	out[len(out)-1] = '1' // cannot be the all-zero invalid ID
	return string(out)
}

// isHex reports whether s is exactly n lowercase-hex chars and not all
// zeros.
func isHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	zero := true
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
		if c != '0' {
			zero = false
		}
	}
	return !zero
}

func sortAttrs(attrs []OTLPKeyValue) {
	for i := 1; i < len(attrs); i++ {
		for j := i; j > 0 && attrs[j].Key < attrs[j-1].Key; j-- {
			attrs[j], attrs[j-1] = attrs[j-1], attrs[j]
		}
	}
}

// --- metrics ----------------------------------------------------------------

// otlpMetrics converts a snapshot's instruments, grouping MetricName
// series ("family{k=\"v\"}") into one OTLP metric per family with the
// labels as data-point attributes. Families and series are sorted, so
// identical snapshots encode identically.
func otlpMetrics(snap *Snapshot, now time.Time) []OTLPMetric {
	if snap == nil {
		return nil
	}
	ts := now.UnixNano()
	type familyAcc struct {
		name string
		sum  *OTLPSum
		gg   *OTLPGauge
		hist *OTLPHistogram
	}
	var order []string
	byName := map[string]*familyAcc{}
	family := func(name string) *familyAcc {
		f, ok := byName[name]
		if !ok {
			f = &familyAcc{name: name}
			byName[name] = f
			order = append(order, name)
		}
		return f
	}

	for _, series := range sortedKeys(snap.Counters) {
		raw, labels := splitSeries(series)
		f := family(raw)
		if f.sum == nil {
			f.sum = &OTLPSum{AggregationTemporality: otlpCumulative, IsMonotonic: true}
		}
		f.sum.DataPoints = append(f.sum.DataPoints, OTLPNumberDataPoint{
			Attributes: labelAttrs(labels), TimeUnixNano: ts, AsInt: snap.Counters[series],
		})
	}
	for _, series := range sortedKeys(snap.Gauges) {
		raw, labels := splitSeries(series)
		f := family(raw)
		if f.gg == nil {
			f.gg = &OTLPGauge{}
		}
		f.gg.DataPoints = append(f.gg.DataPoints, OTLPNumberDataPoint{
			Attributes: labelAttrs(labels), TimeUnixNano: ts, AsInt: snap.Gauges[series],
		})
	}
	for _, series := range sortedKeys(snap.Histograms) {
		raw, labels := splitSeries(series)
		h := snap.Histograms[series]
		f := family(raw)
		if f.hist == nil {
			f.hist = &OTLPHistogram{AggregationTemporality: otlpCumulative}
		}
		dp := OTLPHistogramDataPoint{
			Attributes:   labelAttrs(labels),
			TimeUnixNano: ts,
			Count:        h.Count,
			Sum:          float64(h.Sum),
			Max:          float64(h.Max),
			// One overflow slot past the last explicit bound, per the
			// OTLP invariant len(bucketCounts) == len(explicitBounds)+1;
			// the log₂ snapshot's last bound covers its max, so the
			// overflow count is always zero.
			BucketCounts:   make([]int64, 0, len(h.Buckets)+1),
			ExplicitBounds: make([]float64, 0, len(h.Buckets)),
		}
		for _, b := range h.Buckets {
			dp.ExplicitBounds = append(dp.ExplicitBounds, float64(b.Le))
			dp.BucketCounts = append(dp.BucketCounts, b.Count)
			if b.Exemplar != "" {
				dp.Exemplars = append(dp.Exemplars, OTLPExemplar{
					TimeUnixNano: ts, TraceID: OTLPTraceID(b.Exemplar), AsInt: b.Le,
				})
			}
		}
		dp.BucketCounts = append(dp.BucketCounts, 0)
		f.hist.DataPoints = append(f.hist.DataPoints, dp)
	}

	metrics := make([]OTLPMetric, 0, len(order))
	for _, name := range order {
		f := byName[name]
		metrics = append(metrics, OTLPMetric{Name: f.name, Sum: f.sum, Gauge: f.gg, Histogram: f.hist})
	}
	// order accumulated per-kind; sort families for a stable document.
	for i := 1; i < len(metrics); i++ {
		for j := i; j > 0 && metrics[j].Name < metrics[j-1].Name; j-- {
			metrics[j], metrics[j-1] = metrics[j-1], metrics[j]
		}
	}
	return metrics
}

// labelAttrs decodes a MetricName label block (`k="v",...`, values
// escaped per the Prometheus text format) into OTLP attributes.
func labelAttrs(labels string) []OTLPKeyValue {
	if labels == "" {
		return nil
	}
	var out []OTLPKeyValue
	for _, pair := range splitLabelPairs(labels) {
		eq := strings.IndexByte(pair, '=')
		if eq < 0 {
			continue
		}
		k := pair[:eq]
		v := strings.TrimSuffix(strings.TrimPrefix(pair[eq+1:], `"`), `"`)
		out = append(out, otlpStr(k, unescapeLabelValue(v)))
	}
	return out
}

// unescapeLabelValue reverses escapeLabelValue.
func unescapeLabelValue(v string) string {
	if !strings.ContainsRune(v, '\\') {
		return v
	}
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		if v[i] != '\\' || i+1 == len(v) {
			b.WriteByte(v[i])
			continue
		}
		i++
		switch v[i] {
		case 'n':
			b.WriteByte('\n')
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}
