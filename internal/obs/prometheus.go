package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file is the live-exposition side of the package: the Prometheus
// text-format exporter behind depserve's GET /metrics, the labeled-series
// naming convention it scrapes, and snapshot diffing for per-request
// metric deltas.
//
// Instrument names may carry Prometheus-style labels using the
// MetricName convention: "http.latency_us{path=\"/v1/implies\"}". The
// registry treats the whole string as an opaque key; WritePrometheus
// splits it back into a metric family (the dotted base, sanitized to
// [a-zA-Z0-9_:]) and a label block (emitted verbatim, which is why
// MetricName escapes label values).

// MetricName builds a labeled instrument name: base followed by a
// {k="v",...} block from alternating key/value pairs. Label values are
// escaped per the Prometheus text format (backslash, double quote,
// newline). Series of the same family should pass labels in the same
// key order so the exposition stays diffable; WritePrometheus sorts
// whole series strings, which groups a family's label sets
// deterministically.
func MetricName(base string, kv ...string) string {
	if len(kv) == 0 {
		return base
	}
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// splitSeries separates an instrument name into its family part and its
// label block ("" when unlabeled, else `k="v",...` without braces).
func splitSeries(name string) (family, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	labels = strings.TrimSuffix(name[i+1:], "}")
	return name[:i], labels
}

// sanitizeFamily maps a dotted instrument family to a legal Prometheus
// metric name: [a-zA-Z_:][a-zA-Z0-9_:]*, with every other rune replaced
// by '_'.
func sanitizeFamily(s string) string {
	var b strings.Builder
	for i, r := range s {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP docstring per the text format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// joinLabels merges an existing label block with one more label.
func joinLabels(labels, extra string) string {
	if labels == "" {
		return extra
	}
	return labels + "," + extra
}

// promFamily is one metric family being assembled for exposition.
type promFamily struct {
	name   string // sanitized Prometheus name (counters already have _total)
	help   string // original instrument family, used as the HELP docstring
	typ    string // counter | gauge | histogram
	series []string
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format (version 0.0.4): counters as <family>_total, gauges as-is, and
// histograms as cumulative <family>_bucket{le="..."} lines (one per
// occupied log₂ bucket plus le="+Inf") with <family>_sum and
// <family>_count. Families are sorted by exposition name and series
// within a family by their label block, so successive scrapes of the
// same instruments differ only in values — the output is diffable and
// golden-testable. Spans are not exposed here; they are served by the
// JSON snapshot endpoint. A nil snapshot writes nothing.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	if s == nil {
		return nil
	}
	byName := map[string]*promFamily{}
	family := func(rawFamily, typ, suffix string) *promFamily {
		name := sanitizeFamily(rawFamily) + suffix
		f, ok := byName[name]
		if !ok {
			f = &promFamily{name: name, help: rawFamily, typ: typ}
			byName[name] = f
		}
		return f
	}
	for series, v := range s.Counters {
		raw, labels := splitSeries(series)
		// Instruments already named *_total (serve.requests_total, …)
		// must not expose as *_total_total.
		suffix := "_total"
		if strings.HasSuffix(raw, "_total") {
			suffix = ""
		}
		f := family(raw, "counter", suffix)
		f.series = append(f.series, sampleLine(f.name, labels, v))
	}
	for series, v := range s.Gauges {
		raw, labels := splitSeries(series)
		f := family(raw, "gauge", "")
		f.series = append(f.series, sampleLine(f.name, labels, v))
	}
	for series, h := range s.Histograms {
		raw, labels := splitSeries(series)
		f := family(raw, "histogram", "")
		cum := int64(0)
		for _, b := range h.Buckets {
			cum += b.Count
			le := joinLabels(labels, fmt.Sprintf(`le="%d"`, b.Le))
			f.series = append(f.series, sampleLine(f.name+"_bucket", le, cum))
		}
		inf := joinLabels(labels, `le="+Inf"`)
		f.series = append(f.series, sampleLine(f.name+"_bucket", inf, h.Count))
		f.series = append(f.series, sampleLine(f.name+"_sum", labels, h.Sum))
		f.series = append(f.series, sampleLine(f.name+"_count", labels, h.Count))
	}

	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := byName[name]
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, escapeHelp(f.help), f.name, f.typ); err != nil {
			return err
		}
		// Histogram series are generated in cumulative order per series
		// label set; sorting whole lines keeps a family's label sets
		// grouped while preserving le-order within numeric width. For the
		// le="..." lines the numeric order and the string order can
		// disagree across widths, so sort stably by the label block's
		// series identity first (everything except the le pair).
		sort.SliceStable(f.series, func(i, j int) bool {
			return seriesSortKey(f.series[i]) < seriesSortKey(f.series[j])
		})
		for _, line := range f.series {
			if _, err := io.WriteString(w, line); err != nil {
				return err
			}
		}
	}
	return nil
}

// sampleLine renders one exposition line.
func sampleLine(name, labels string, v int64) string {
	if labels == "" {
		return fmt.Sprintf("%s %d\n", name, v)
	}
	return fmt.Sprintf("%s{%s} %d\n", name, labels, v)
}

// seriesSortKey orders exposition lines: by metric name, then by the
// label block with any le="..." pair blanked (so all buckets of one
// series stay adjacent and in insertion — i.e. cumulative — order).
func seriesSortKey(line string) string {
	name := line
	labels := ""
	if i := strings.IndexByte(line, '{'); i >= 0 {
		name = line[:i]
		if j := strings.LastIndexByte(line, '}'); j > i {
			labels = line[i+1 : j]
		}
	} else if i := strings.IndexByte(line, ' '); i >= 0 {
		name = line[:i]
	}
	var kept []string
	for _, pair := range splitLabelPairs(labels) {
		if !strings.HasPrefix(pair, `le="`) {
			kept = append(kept, pair)
		}
	}
	return name + "\x00" + strings.Join(kept, ",")
}

// splitLabelPairs splits a label block on commas outside quoted values.
func splitLabelPairs(labels string) []string {
	if labels == "" {
		return nil
	}
	var out []string
	depth := false // inside a quoted value
	start := 0
	for i := 0; i < len(labels); i++ {
		switch labels[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, labels[start:i])
				start = i + 1
			}
		}
	}
	return append(out, labels[start:])
}
