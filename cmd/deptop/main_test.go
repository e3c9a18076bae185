package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
	"unicode/utf8"
)

func TestSparkline(t *testing.T) {
	got := sparkline([]float64{0, 1, 2, 3}, 4)
	if utf8.RuneCountInString(got) != 4 {
		t.Fatalf("width = %d runes (%q)", utf8.RuneCountInString(got), got)
	}
	runes := []rune(got)
	if runes[0] != '▁' || runes[3] != '█' {
		t.Errorf("scaling wrong: %q", got)
	}
	// Monotone input → monotone bars.
	for i := 1; i < len(runes); i++ {
		if strings.IndexRune(sparkRunes, runes[i]) < strings.IndexRune(sparkRunes, runes[i-1]) {
			t.Errorf("bars not monotone: %q", got)
		}
	}
	// NaN gaps render as spaces.
	if got := sparkline([]float64{1, math.NaN(), 2}, 3); []rune(got)[1] != ' ' {
		t.Errorf("gap not a space: %q", got)
	}
	// Short series left-pad so the newest sample is rightmost.
	if got := sparkline([]float64{5}, 4); !strings.HasPrefix(got, "   ") {
		t.Errorf("no left pad: %q", got)
	}
	// Long series keep the tail.
	got = sparkline([]float64{9, 9, 9, 0, 0}, 2)
	if got != "▁▁" {
		t.Errorf("tail not kept: %q", got)
	}
	// All-zero values draw the floor, not a crash.
	if got := sparkline([]float64{0, 0}, 2); got != "▁▁" {
		t.Errorf("zeros = %q", got)
	}
	if sparkline(nil, 0) == "" {
		t.Error("zero width must still render one cell")
	}
}

func TestRatio(t *testing.T) {
	m := map[string][]tsPoint{
		"hits":   {{T: 1000, V: 3}, {T: 2000, V: 0}, {T: 3000, V: 9}},
		"misses": {{T: 1000, V: 1}, {T: 2000, V: 0}, {T: 3000, V: 1}},
	}
	r := ratio(m, "hits", "misses")
	if len(r) != 3 {
		t.Fatalf("ratio = %v", r)
	}
	if r[0] != 0.75 || r[2] != 0.9 {
		t.Errorf("ratio = %v", r)
	}
	if !math.IsNaN(r[1]) {
		t.Errorf("zero-traffic tick = %v, want NaN gap", r[1])
	}
}

func sampleTimeseries() timeseriesReply {
	pts := func(vs ...float64) []tsPoint {
		out := make([]tsPoint, len(vs))
		for i, v := range vs {
			out[i] = tsPoint{T: int64(i+1) * 2000, V: v}
		}
		return out
	}
	return timeseriesReply{
		Enabled:      true,
		ResolutionMS: 2000,
		RetentionMS:  900000,
		SeriesCount:  8,
		Series: []tsSeries{
			{Name: "serve.requests_total", Kind: "delta", Points: pts(100, 200, 150)},
			{Name: "serve.http_latency:p50", Kind: "quantile", Points: pts(800, 900, 1000)},
			{Name: "serve.http_latency:p99", Kind: "quantile", Points: pts(4000, 5000, 9000)},
			{Name: "cache.hits", Kind: "delta", Points: pts(90, 90, 90)},
			{Name: "cache.misses", Kind: "delta", Points: pts(10, 10, 10)},
			{Name: "compile.hits", Kind: "delta", Points: pts(60, 60, 60)},
			{Name: "compile.misses", Kind: "delta", Points: pts(20, 20, 20)},
			{Name: "chase.rounds", Kind: "delta", Points: pts(40, 50, 60)},
		},
	}
}

func TestBuildFrame(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	frame := buildFrame(sampleTimeseries(), alertsReply{
		Enabled: true,
		Active: []alertEntry{
			{Name: "lat_burn", Severity: "critical", State: "firing", Message: "lat_burn: SLO p99<5ms burning at 3.1x"},
			{Name: "warnish", Severity: "warning", State: "pending", Message: "warnish: pending"},
		},
		Events: []alertEvent{{Time: now.Add(-time.Minute), Name: "lat_burn", Severity: "critical", State: "fired"}},
	}, digestsReply{
		Digests: []digestEntry{
			{Fingerprint: "abc123", Query: "R: A -> D | sigma=3", Count: 500, Errors: 5, CacheHits: 250, TotalNS: 2e9, MeanNS: 4e6},
			{Fingerprint: "tiny", Count: 10, TotalNS: 9e9, MeanNS: 9e8},
		},
	}, now, frameOptions{Width: 20, Window: 5 * time.Minute, Color: false})

	for _, want := range []string{
		"qps", "p50 ms", "p99 ms", "cache hit", "compile hit", "pool hit", "chase rnds",
		"lat_burn", "firing", "critical", "warnish", "pending",
		"hottest digests", "R: A -> D | sigma=3",
		"8 series", "2s resolution",
	} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame missing %q:\n%s", want, frame)
		}
	}
	// qps latest = 150 deltas / 2s = 75.0
	if !strings.Contains(frame, "75.0") {
		t.Errorf("qps value not rendered:\n%s", frame)
	}
	// p99 latest = 9000us = 9.00ms
	if !strings.Contains(frame, "9.00") {
		t.Errorf("p99 not rendered in ms:\n%s", frame)
	}
	// cache hit = 90/(90+10) = 90%
	if !strings.Contains(frame, "90%") {
		t.Errorf("cache hit %% not rendered:\n%s", frame)
	}
	// compile hit = 60/(60+20) = 75%
	if !strings.Contains(frame, "75%") {
		t.Errorf("compile hit %% not rendered:\n%s", frame)
	}
	// The digests table sorts by total time: "tiny" (9s) before the
	// named query (2s).
	if strings.Index(frame, "tiny") > strings.Index(frame, "R: A -> D") {
		t.Errorf("digests not sorted by total time:\n%s", frame)
	}
	// No-color mode must emit no escape sequences besides none at all.
	if strings.Contains(frame, "\x1b[") {
		t.Errorf("ANSI codes under -no-color:\n%q", frame)
	}

	colored := buildFrame(sampleTimeseries(), alertsReply{Enabled: true, Active: []alertEntry{
		{Name: "x", Severity: "critical", State: "firing"},
	}}, digestsReply{}, now, frameOptions{Width: 20, Window: time.Minute, Color: true})
	if !strings.Contains(colored, ansiRed) {
		t.Error("critical alert not red in color mode")
	}
}

func TestBuildFrameDisabled(t *testing.T) {
	frame := buildFrame(timeseriesReply{Enabled: false}, alertsReply{}, digestsReply{},
		time.Now(), frameOptions{Width: 10, Window: time.Minute})
	if !strings.Contains(frame, "-ts-resolution 0") {
		t.Errorf("disabled frame = %q", frame)
	}
}

func TestBuildFrameQuietAlerts(t *testing.T) {
	opts := frameOptions{Width: 10, Window: time.Minute}
	frame := buildFrame(sampleTimeseries(), alertsReply{Enabled: true}, digestsReply{}, time.Now(), opts)
	if !strings.Contains(frame, "none active") {
		t.Errorf("quiet alerts frame:\n%s", frame)
	}
	frame = buildFrame(sampleTimeseries(), alertsReply{Enabled: false}, digestsReply{}, time.Now(), opts)
	if !strings.Contains(frame, "watchdog off") {
		t.Errorf("watchdog-off frame:\n%s", frame)
	}
}

// TestFetchFrame drives the full fetch path against a fake depserve.
func TestFetchFrame(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/timeseries", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("since") == "" {
			t.Error("no since parameter on the timeseries fetch")
		}
		json.NewEncoder(w).Encode(sampleTimeseries()) //nolint:errcheck
	})
	mux.HandleFunc("/debug/alerts", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(alertsReply{Enabled: true}) //nolint:errcheck
	})
	mux.HandleFunc("/debug/digests", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(digestsReply{}) //nolint:errcheck
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	frame, err := fetchFrame(&http.Client{}, ts.URL, frameOptions{Width: 30, Window: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(frame, "qps") || !strings.Contains(frame, "none active") {
		t.Errorf("frame:\n%s", frame)
	}

	// A dead target is an error, not a hang or a panic.
	if _, err := fetchFrame(&http.Client{Timeout: 200 * time.Millisecond}, "http://127.0.0.1:1", frameOptions{}); err == nil {
		t.Error("dead target fetched")
	}
}
