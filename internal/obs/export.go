package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// WriteJSON writes the snapshot as indented JSON — the machine-readable
// export behind the CLIs' -trace-json flag and bench_test.go's -benchjson
// path (the BENCH_engines.json schema is exactly this struct).
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(s)
}

// ReadSnapshot parses a snapshot previously written with WriteJSON.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("obs: decoding snapshot: %w", err)
	}
	return &s, nil
}

// WriteText writes a deterministic human-readable report: counters, gauges
// and histograms sorted by name, then the span trees indented two spaces
// per level. This is what the CLIs print under -stats.
func (s *Snapshot) WriteText(w io.Writer) error {
	if s == nil {
		return nil
	}
	if len(s.Counters) > 0 {
		if _, err := fmt.Fprintln(w, "counters:"); err != nil {
			return err
		}
		for _, name := range sortedKeys(s.Counters) {
			if _, err := fmt.Fprintf(w, "  %-36s %d\n", name, s.Counters[name]); err != nil {
				return err
			}
		}
	}
	if len(s.Gauges) > 0 {
		if _, err := fmt.Fprintln(w, "gauges:"); err != nil {
			return err
		}
		for _, name := range sortedKeys(s.Gauges) {
			if _, err := fmt.Fprintf(w, "  %-36s %d\n", name, s.Gauges[name]); err != nil {
				return err
			}
		}
	}
	if len(s.Histograms) > 0 {
		if _, err := fmt.Fprintln(w, "histograms:"); err != nil {
			return err
		}
		for _, name := range sortedKeys(s.Histograms) {
			h := s.Histograms[name]
			mean := float64(0)
			if h.Count > 0 {
				mean = float64(h.Sum) / float64(h.Count)
			}
			if _, err := fmt.Fprintf(w, "  %-36s count=%d mean=%.1f max=%d\n", name, h.Count, mean, h.Max); err != nil {
				return err
			}
			for _, b := range h.Buckets {
				if _, err := fmt.Fprintf(w, "    ≤%-12d %d\n", b.Le, b.Count); err != nil {
					return err
				}
			}
		}
	}
	if len(s.Spans) > 0 {
		if _, err := fmt.Fprintln(w, "spans:"); err != nil {
			return err
		}
		for _, sp := range s.Spans {
			if err := writeSpanText(w, sp, 1); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSpanText(w io.Writer, sp *Span, depth int) error {
	if sp == nil {
		return nil
	}
	for i := 0; i < depth; i++ {
		if _, err := io.WriteString(w, "  "); err != nil {
			return err
		}
	}
	state := ""
	if sp.Running {
		state = " (running)"
	}
	if _, err := fmt.Fprintf(w, "%s %v%s", sp.Name, time.Duration(sp.DurationNS), state); err != nil {
		return err
	}
	for _, a := range sp.Attrs {
		if _, err := fmt.Fprintf(w, " %s=%s", a.Key, a.Value); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	for _, c := range sp.Children {
		if err := writeSpanText(w, c, depth+1); err != nil {
			return err
		}
	}
	return nil
}
