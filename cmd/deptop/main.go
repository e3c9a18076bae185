// Command deptop is a terminal "top" for a running depserve: it polls
// GET /debug/timeseries, /debug/alerts and /debug/digests and renders
// the live state of the service as sparkline panels — qps, p50/p99
// latency, cache and pool hit rates, chase rounds — plus the hottest
// query digests and any active watchdog alerts, redrawn in place every
// -interval.
//
// Usage:
//
//	deptop [-target http://127.0.0.1:8377] [-interval 2s] [-window 5m]
//	       [-frames 0] [-once] [-width 60] [-no-color]
//
// deptop needs the server's time-series history on (depserve's
// default; it is off only under -ts-resolution 0). -once prints a
// single frame without clearing the screen — scripts and CI snapshots
// use it; -frames N stops after N redraws (0 = run until interrupted).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	target := flag.String("target", "http://127.0.0.1:8377", "depserve base URL")
	interval := flag.Duration("interval", 2*time.Second, "redraw interval")
	window := flag.Duration("window", 5*time.Minute, "history window the panels show")
	frames := flag.Int("frames", 0, "stop after this many frames (0 = run until interrupted)")
	once := flag.Bool("once", false, "print one frame without clearing the screen and exit")
	width := flag.Int("width", 60, "sparkline width in cells")
	noColor := flag.Bool("no-color", false, "disable ANSI colors")
	flag.Parse()

	opt := frameOptions{Width: *width, Window: *window, Color: !*noColor}
	if *once {
		*frames = 1
	}
	if err := run(os.Stdout, *target, *interval, *frames, *once, opt); err != nil {
		fmt.Fprintln(os.Stderr, "deptop:", err)
		os.Exit(1)
	}
}

func run(out *os.File, target string, interval time.Duration, frames int, once bool, opt frameOptions) error {
	client := &http.Client{Timeout: 5 * time.Second}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	drawn := 0
	for {
		frame, err := fetchFrame(client, target, opt)
		if err != nil {
			return err
		}
		if !once {
			// Home the cursor and clear below instead of a full wipe, so
			// the redraw never flickers.
			fmt.Fprint(out, "\x1b[H\x1b[2J")
		}
		fmt.Fprint(out, frame)
		drawn++
		if frames > 0 && drawn >= frames {
			return nil
		}
		select {
		case <-time.After(interval):
		case <-sig:
			return nil
		}
	}
}

// --- wire types (the /debug JSON shapes deptop consumes) --------------------

type tsPoint struct {
	T int64   `json:"t"` // unix milliseconds
	V float64 `json:"v"`
}

type tsSeries struct {
	Name   string    `json:"name"`
	Kind   string    `json:"kind"`
	Points []tsPoint `json:"points"`
}

type timeseriesReply struct {
	Enabled      bool       `json:"enabled"`
	ResolutionMS int64      `json:"resolution_ms"`
	RetentionMS  int64      `json:"retention_ms"`
	SeriesCount  int        `json:"series_count"`
	Series       []tsSeries `json:"series"`
}

type alertEntry struct {
	Name     string  `json:"name"`
	Severity string  `json:"severity"`
	Clause   string  `json:"clause"`
	State    string  `json:"state"`
	Value    float64 `json:"value"`
	Message  string  `json:"message"`
}

type alertEvent struct {
	Time     time.Time `json:"time"`
	Name     string    `json:"name"`
	Severity string    `json:"severity"`
	State    string    `json:"state"`
	Message  string    `json:"message"`
}

type alertsReply struct {
	Enabled bool         `json:"enabled"`
	Active  []alertEntry `json:"active"`
	Events  []alertEvent `json:"events"`
}

type digestEntry struct {
	Fingerprint string `json:"fingerprint"`
	Query       string `json:"query"`
	Count       int64  `json:"count"`
	Errors      int64  `json:"errors"`
	CacheHits   int64  `json:"cache_hits"`
	TotalNS     int64  `json:"total_ns"`
	MeanNS      int64  `json:"mean_ns"`
}

type digestsReply struct {
	Digests []digestEntry `json:"digests"`
}

// --- fetching ---------------------------------------------------------------

func fetchFrame(client *http.Client, target string, opt frameOptions) (string, error) {
	var ts timeseriesReply
	if err := fetchJSON(client, target+"/debug/timeseries?since="+opt.Window.String(), &ts); err != nil {
		return "", err
	}
	var alerts alertsReply
	if err := fetchJSON(client, target+"/debug/alerts?limit=5", &alerts); err != nil {
		return "", err
	}
	var digests digestsReply
	if err := fetchJSON(client, target+"/debug/digests?limit=8", &digests); err != nil {
		return "", err
	}
	return buildFrame(ts, alerts, digests, time.Now(), opt), nil
}

func fetchJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// --- frame building (pure; the tests drive this directly) -------------------

type frameOptions struct {
	Width  int
	Window time.Duration
	Color  bool
}

const sparkRunes = "▁▂▃▄▅▆▇█"

// sparkline renders values into a fixed-width bar string. Values are
// scaled against the series max; NaN (a tsdb gap) renders as a space.
// When there are more values than cells the tail (newest) wins.
func sparkline(values []float64, width int) string {
	if width <= 0 {
		width = 1
	}
	if len(values) > width {
		values = values[len(values)-width:]
	}
	max := 0.0
	for _, v := range values {
		if !math.IsNaN(v) && v > max {
			max = v
		}
	}
	runes := []rune(sparkRunes)
	var b strings.Builder
	for i := len(values); i < width; i++ {
		b.WriteByte(' ') // left-pad so the newest sample is always rightmost
	}
	for _, v := range values {
		switch {
		case math.IsNaN(v):
			b.WriteByte(' ')
		case max <= 0:
			b.WriteRune(runes[0])
		default:
			idx := int(v / max * float64(len(runes)-1))
			if idx >= len(runes) {
				idx = len(runes) - 1
			}
			b.WriteRune(runes[idx])
		}
	}
	return b.String()
}

// seriesByName indexes a timeseries reply.
func seriesByName(ts timeseriesReply) map[string][]tsPoint {
	m := make(map[string][]tsPoint, len(ts.Series))
	for _, s := range ts.Series {
		m[s.Name] = s.Points
	}
	return m
}

// values extracts the point values of one series (empty when absent).
func values(m map[string][]tsPoint, name string) []float64 {
	pts := m[name]
	out := make([]float64, len(pts))
	for i, p := range pts {
		out[i] = p.V
	}
	return out
}

// ratio builds the pointwise a/(a+b) series over two delta series,
// aligned by timestamp; ticks where a+b is 0 are gaps (NaN).
func ratio(m map[string][]tsPoint, aName, bName string) []float64 {
	a, b := m[aName], m[bName]
	bAt := make(map[int64]float64, len(b))
	for _, p := range b {
		bAt[p.T] = p.V
	}
	out := make([]float64, len(a))
	for i, p := range a {
		total := p.V + bAt[p.T]
		if total <= 0 || math.IsNaN(total) {
			out[i] = math.NaN()
			continue
		}
		out[i] = p.V / total
	}
	return out
}

// scale multiplies every value (gaps stay gaps).
func scale(v []float64, f float64) []float64 {
	out := make([]float64, len(v))
	for i := range v {
		out[i] = v[i] * f
	}
	return out
}

// last returns the newest non-gap value, or NaN.
func last(v []float64) float64 {
	for i := len(v) - 1; i >= 0; i-- {
		if !math.IsNaN(v[i]) {
			return v[i]
		}
	}
	return math.NaN()
}

func fmtVal(v float64, format string) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf(format, v)
}

const (
	ansiRed    = "\x1b[31m"
	ansiYellow = "\x1b[33m"
	ansiGreen  = "\x1b[32m"
	ansiBold   = "\x1b[1m"
	ansiReset  = "\x1b[0m"
)

func colorize(on bool, color, s string) string {
	if !on {
		return s
	}
	return color + s + ansiReset
}

// buildFrame renders one full screen of panels from the three debug
// replies. Pure: every input is a value, now is a parameter, the
// output is the exact string printed.
func buildFrame(ts timeseriesReply, alerts alertsReply, digests digestsReply, now time.Time, opt frameOptions) string {
	var b strings.Builder
	title := fmt.Sprintf("deptop · %s · window %s", now.Format("15:04:05"), opt.Window)
	b.WriteString(colorize(opt.Color, ansiBold, title))
	b.WriteByte('\n')

	if !ts.Enabled {
		b.WriteString("time-series history is off on this server (-ts-resolution 0); nothing to draw\n")
		return b.String()
	}
	resSec := float64(ts.ResolutionMS) / 1000
	if resSec <= 0 {
		resSec = 1
	}
	m := seriesByName(ts)

	qps := scale(values(m, "serve.requests_total"), 1/resSec)
	p50 := scale(values(m, "serve.http_latency:p50"), 1e-3) // µs → ms
	p99 := scale(values(m, "serve.http_latency:p99"), 1e-3)
	cacheHit := scale(ratio(m, "cache.hits", "cache.misses"), 100)
	compileHit := scale(ratio(m, "compile.hits", "compile.misses"), 100)
	poolHit := scale(ratio(m, "pool.hits", "pool.misses"), 100)
	rounds := values(m, "chase.rounds")

	panel := func(label string, v []float64, format, unit string) {
		fmt.Fprintf(&b, "%-12s %s %8s%s\n", label, sparkline(v, opt.Width), fmtVal(last(v), format), unit)
	}
	panel("qps", qps, "%.1f", "")
	panel("p50 ms", p50, "%.2f", "")
	panel("p99 ms", p99, "%.2f", "")
	panel("cache hit", cacheHit, "%.0f", "%")
	panel("compile hit", compileHit, "%.0f", "%")
	panel("pool hit", poolHit, "%.0f", "%")
	panel("chase rnds", rounds, "%.0f", "")

	// Alerts panel: active ones first (critical red, warning yellow),
	// then the most recent transitions.
	b.WriteByte('\n')
	if !alerts.Enabled {
		b.WriteString(colorize(opt.Color, ansiGreen, "alerts: watchdog off (no -alert-rules)"))
		b.WriteByte('\n')
	} else if len(alerts.Active) == 0 {
		b.WriteString(colorize(opt.Color, ansiGreen, "alerts: none active"))
		b.WriteByte('\n')
	} else {
		for _, a := range alerts.Active {
			color := ansiYellow
			if a.Severity == "critical" {
				color = ansiRed
			}
			line := fmt.Sprintf("%s %-8s %-9s %s", a.State, a.Severity, a.Name, a.Message)
			b.WriteString(colorize(opt.Color, color, line))
			b.WriteByte('\n')
		}
	}
	for _, ev := range alerts.Events {
		fmt.Fprintf(&b, "  %s %-8s %s (%s)\n", ev.Time.Format("15:04:05"), ev.State, ev.Name, ev.Severity)
	}

	// Hottest digests by total engine time.
	if len(digests.Digests) > 0 {
		b.WriteByte('\n')
		b.WriteString(colorize(opt.Color, ansiBold,
			fmt.Sprintf("%-24s %8s %8s %9s %6s %6s", "hottest digests", "calls", "mean ms", "total s", "err%", "hit%")))
		b.WriteByte('\n')
		sort.SliceStable(digests.Digests, func(i, j int) bool {
			return digests.Digests[i].TotalNS > digests.Digests[j].TotalNS
		})
		for _, d := range digests.Digests {
			name := d.Query
			if name == "" {
				name = d.Fingerprint
			}
			if len(name) > 24 {
				name = name[:21] + "..."
			}
			errPct, hitPct := 0.0, 0.0
			if d.Count > 0 {
				errPct = 100 * float64(d.Errors) / float64(d.Count)
				hitPct = 100 * float64(d.CacheHits) / float64(d.Count)
			}
			fmt.Fprintf(&b, "%-24s %8d %8.2f %9.2f %5.1f%% %5.1f%%\n",
				name, d.Count, float64(d.MeanNS)/1e6, float64(d.TotalNS)/1e9, errPct, hitPct)
		}
	}
	fmt.Fprintf(&b, "\n%d series · %s resolution · %s retained\n",
		ts.SeriesCount,
		(time.Duration(ts.ResolutionMS) * time.Millisecond).String(),
		(time.Duration(ts.RetentionMS) * time.Millisecond).String())
	return b.String()
}
