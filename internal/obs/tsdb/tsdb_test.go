package tsdb

import (
	"math"
	"sync"
	"testing"
	"time"

	"indfd/internal/obs"
)

// base is an arbitrary fixed instant; every test ticks relative to it
// so slot arithmetic is deterministic.
var base = time.Unix(1_700_000_000, 0)

// newStore builds a 1s × 10s store with a 5s × 50s coarse tier. The
// store's own meters land in a registry the tests can also inspect.
func newStore(t *testing.T, maxSeries int) (*Store, *obs.Registry) {
	t.Helper()
	meters := obs.New()
	s := New(Config{
		Resolution:      time.Second,
		Retention:       10 * time.Second,
		CoarseStep:      5 * time.Second,
		CoarseRetention: 50 * time.Second,
		MaxSeries:       maxSeries,
		Reg:             meters,
	})
	if s == nil {
		t.Fatal("New returned nil for a positive resolution")
	}
	return s, meters
}

// snap builds a data snapshot from scratch — a separate registry from
// the store's meters, so queries see only the test's own series.
func snap(build func(reg *obs.Registry)) *obs.Snapshot {
	reg := obs.New()
	build(reg)
	return reg.Snapshot()
}

func findSeries(out []Series, name string) *Series {
	for i := range out {
		if out[i].Name == name {
			return &out[i]
		}
	}
	return nil
}

func TestNewOffStore(t *testing.T) {
	if s := New(Config{Resolution: 0, Reg: obs.New()}); s != nil {
		t.Fatal("Resolution 0 must return the nil off store")
	}
	var s *Store
	s.Sample(snap(func(reg *obs.Registry) { reg.Counter("c").Inc() }), base)
	if got := s.Query(QueryOptions{}); got != nil {
		t.Errorf("nil store Query = %v", got)
	}
	if _, ok := s.WindowSum("c", time.Second); ok {
		t.Error("nil store WindowSum ok")
	}
	if _, ok := s.WindowAvg("c", time.Second); ok {
		t.Error("nil store WindowAvg ok")
	}
	if s.SeriesCount() != 0 || s.Resolution() != 0 || s.Retention() != 0 {
		t.Error("nil store accessors not zero")
	}
	if !s.LastTick().IsZero() {
		t.Error("nil store LastTick not zero")
	}
}

// TestCounterDelta pins the delta encoding: the first sight of a
// counter emits no point, later ticks store the increment, and a
// counter that goes backwards (registry restart) clamps to zero.
func TestCounterDelta(t *testing.T) {
	s, _ := newStore(t, 0)
	mk := func(v int64) *obs.Snapshot {
		return snap(func(reg *obs.Registry) { reg.Counter("reqs").Add(v) })
	}
	s.Sample(mk(10), base)
	if got := s.Query(QueryOptions{}); findSeries(got, "reqs") != nil {
		t.Fatalf("first sight of a counter emitted a point: %+v", got)
	}
	s.Sample(mk(15), base.Add(time.Second))
	s.Sample(mk(15), base.Add(2*time.Second))
	s.Sample(mk(3), base.Add(3*time.Second)) // restarted counter
	se := findSeries(s.Query(QueryOptions{}), "reqs")
	if se == nil {
		t.Fatal("no reqs series")
	}
	if se.Kind != "delta" {
		t.Errorf("kind = %q", se.Kind)
	}
	want := []float64{5, 0, 0}
	if len(se.Points) != len(want) {
		t.Fatalf("points = %+v, want %v", se.Points, want)
	}
	for i, p := range se.Points {
		if p.V != want[i] {
			t.Errorf("point %d = %v, want %v", i, p.V, want[i])
		}
	}
	if sum, ok := s.WindowSum("reqs", 10*time.Second); !ok || sum != 5 {
		t.Errorf("WindowSum = %v, %v, want 5, true", sum, ok)
	}
}

func TestGaugeLastValue(t *testing.T) {
	s, _ := newStore(t, 0)
	mk := func(v int64) *obs.Snapshot {
		return snap(func(reg *obs.Registry) { reg.Gauge("depth").Set(v) })
	}
	s.Sample(mk(7), base)
	s.Sample(mk(3), base.Add(time.Second))
	se := findSeries(s.Query(QueryOptions{}), "depth")
	if se == nil || se.Kind != "gauge" {
		t.Fatalf("series = %+v", se)
	}
	if len(se.Points) != 2 || se.Points[0].V != 7 || se.Points[1].V != 3 {
		t.Errorf("points = %+v", se.Points)
	}
	if avg, ok := s.WindowAvg("depth", 10*time.Second); !ok || avg != 5 {
		t.Errorf("WindowAvg = %v, %v, want 5, true", avg, ok)
	}
}

// TestHistogramSeries pins the histogram expansion: per-tick count
// deltas, mean and quantiles from bucket deltas, and gapped quantiles
// (not zeros) on idle ticks.
func TestHistogramSeries(t *testing.T) {
	s, _ := newStore(t, 0)
	reg := obs.New()
	h := reg.Histogram("lat")
	for i := 0; i < 100; i++ {
		h.Observe(100)
	}
	s.Sample(reg.Snapshot(), base)
	// Idle tick: no new observations.
	s.Sample(reg.Snapshot(), base.Add(time.Second))
	// A slower burst.
	for i := 0; i < 50; i++ {
		h.Observe(1000)
	}
	s.Sample(reg.Snapshot(), base.Add(2*time.Second))

	out := s.Query(QueryOptions{})
	count := findSeries(out, "lat:count")
	if count == nil || count.Kind != "delta" {
		t.Fatalf("lat:count = %+v", count)
	}
	wantCounts := []float64{100, 0, 50}
	if len(count.Points) != 3 {
		t.Fatalf("count points = %+v", count.Points)
	}
	for i, p := range count.Points {
		if p.V != wantCounts[i] {
			t.Errorf("count point %d = %v, want %v", i, p.V, wantCounts[i])
		}
	}
	p99 := findSeries(out, "lat:p99")
	if p99 == nil || p99.Kind != "quantile" {
		t.Fatalf("lat:p99 = %+v", p99)
	}
	// The idle tick must be a gap: two points, not three.
	if len(p99.Points) != 2 {
		t.Fatalf("p99 points = %+v, want 2 (idle tick gapped)", p99.Points)
	}
	if p99.Points[0].V < 64 || p99.Points[0].V > 127 {
		t.Errorf("first p99 = %v, want inside the 100us bucket", p99.Points[0].V)
	}
	// The second window is all ~1000us observations; its p99 must sit in
	// the 1000us bucket [512,1023], far from the first window's.
	if p99.Points[1].V < 512 || p99.Points[1].V > 1023 {
		t.Errorf("second p99 = %v, want inside the 1000us bucket", p99.Points[1].V)
	}
	mean := findSeries(out, "lat:mean")
	if mean == nil || len(mean.Points) != 2 {
		t.Fatalf("lat:mean = %+v", mean)
	}
	if mean.Points[1].V != 1000 {
		t.Errorf("second mean = %v, want 1000", mean.Points[1].V)
	}
}

// TestGapInvalidation skips far more ticks than the ring holds and
// wants stale points invalidated, not resurfaced at fresh timestamps.
func TestGapInvalidation(t *testing.T) {
	s, _ := newStore(t, 0) // 10 slots
	mk := func(v int64) *obs.Snapshot {
		return snap(func(reg *obs.Registry) { reg.Gauge("g").Set(v) })
	}
	s.Sample(mk(1), base)
	s.Sample(mk(2), base.Add(time.Second))
	// Jump 25 slots — more than two full laps.
	s.Sample(mk(9), base.Add(26*time.Second))
	se := findSeries(s.Query(QueryOptions{}), "g")
	if se == nil {
		t.Fatal("no series")
	}
	if len(se.Points) != 1 || se.Points[0].V != 9 {
		t.Fatalf("points = %+v, want only the post-gap point", se.Points)
	}
	wantT := base.Add(26*time.Second).UnixNano() / int64(time.Second) * 1000
	if se.Points[0].T != wantT {
		t.Errorf("timestamp = %d, want %d", se.Points[0].T, wantT)
	}
}

func TestTimeBackwards(t *testing.T) {
	s, _ := newStore(t, 0)
	mk := func(v int64) *obs.Snapshot {
		return snap(func(reg *obs.Registry) { reg.Gauge("g").Set(v) })
	}
	s.Sample(mk(1), base.Add(5*time.Second))
	s.Sample(mk(99), base) // clock went backwards; must not corrupt
	se := findSeries(s.Query(QueryOptions{}), "g")
	if len(se.Points) != 1 || se.Points[0].V != 1 {
		t.Errorf("points = %+v, want the forward point only", se.Points)
	}
}

func TestQuerySinceStepMatch(t *testing.T) {
	s, _ := newStore(t, 0)
	for i := 0; i < 8; i++ {
		cum := int64((i + 1) * 2) // delta of 2 per tick after the first
		now := base.Add(time.Duration(i) * time.Second)
		s.Sample(snap(func(reg *obs.Registry) {
			reg.Counter("hits").Add(cum)
			reg.Gauge("depth").Set(int64(i))
		}), now)
	}
	// match narrows by substring.
	out := s.Query(QueryOptions{Match: "hit"})
	if len(out) != 1 || out[0].Name != "hits" {
		t.Fatalf("match query = %+v", out)
	}
	// since drops older points.
	since := base.Add(5 * time.Second)
	out = s.Query(QueryOptions{Match: "hits", Since: since})
	for _, p := range out[0].Points {
		if p.T < since.UnixMilli() {
			t.Errorf("point at %d predates since", p.T)
		}
	}
	if len(out[0].Points) != 3 {
		t.Errorf("since points = %+v, want 3", out[0].Points)
	}
	// step re-buckets: deltas sum, gauges average.
	out = s.Query(QueryOptions{Step: 4 * time.Second})
	hits := findSeries(out, "hits")
	var sum float64
	for _, p := range hits.Points {
		sum += p.V
	}
	if sum != 14 { // 7 deltas of 2
		t.Errorf("rebucketed delta total = %v, want 14", sum)
	}
	depth := findSeries(out, "depth")
	if len(depth.Points) >= 8 {
		t.Errorf("gauge not rebucketed: %+v", depth.Points)
	}
}

// TestCoarseTier reaches past the fine retention and wants the coarse
// downsampled ring to answer: summed deltas, averaged gauges.
func TestCoarseTier(t *testing.T) {
	s, _ := newStore(t, 0) // fine 1s×10s, coarse 5s×50s
	for i := 0; i < 40; i++ {
		cum := int64(i + 1)
		now := base.Add(time.Duration(i) * time.Second)
		s.Sample(snap(func(reg *obs.Registry) {
			reg.Counter("c").Add(cum)
			reg.Gauge("g").Set(10)
		}), now)
	}
	out := s.Query(QueryOptions{Since: base.Add(-time.Minute)})
	c := findSeries(out, "c")
	if c == nil {
		t.Fatal("no coarse counter series")
	}
	for i, p := range c.Points {
		// Each closed coarse slot holds 5 summed deltas of 1 — except the
		// first, whose opening tick was the counter's first sight (no
		// delta yet), leaving 4.
		want := 5.0
		if i == 0 {
			want = 4.0
		}
		if p.V != want {
			t.Errorf("coarse delta point %d = %+v, want %v", i, p, want)
		}
	}
	if len(c.Points) < 5 {
		t.Errorf("coarse points = %d, want >= 5", len(c.Points))
	}
	g := findSeries(out, "g")
	for _, p := range g.Points {
		if p.V != 10 {
			t.Errorf("coarse gauge point = %+v, want the 10 average", p)
		}
	}
}

func TestMaxSeriesCap(t *testing.T) {
	s, meters := newStore(t, 2)
	s.Sample(snap(func(reg *obs.Registry) {
		reg.Gauge("a").Set(1)
		reg.Gauge("b").Set(2)
		reg.Gauge("c").Set(3)
		reg.Gauge("d").Set(4)
	}), base)
	if got := s.SeriesCount(); got != 2 {
		t.Errorf("series count = %d, want capped at 2", got)
	}
	if dropped := meters.Snapshot().Counters["tsdb.series_dropped"]; dropped != 2 {
		t.Errorf("tsdb.series_dropped = %d, want 2", dropped)
	}
}

func TestMeters(t *testing.T) {
	s, meters := newStore(t, 0)
	s.Sample(snap(func(reg *obs.Registry) { reg.Gauge("g").Set(1) }), base)
	s.Sample(snap(func(reg *obs.Registry) { reg.Gauge("g").Set(2) }), base.Add(time.Second))
	ms := meters.Snapshot()
	if ms.Counters["tsdb.samples"] != 2 {
		t.Errorf("tsdb.samples = %d", ms.Counters["tsdb.samples"])
	}
	if ms.Gauges["tsdb.series"] != 1 {
		t.Errorf("tsdb.series = %d", ms.Gauges["tsdb.series"])
	}
	if got := s.LastTick(); !got.Equal(base.Add(time.Second).Truncate(time.Millisecond)) {
		t.Errorf("LastTick = %v", got)
	}
}

func TestWindowNoData(t *testing.T) {
	s, _ := newStore(t, 0)
	if _, ok := s.WindowAvg("missing", time.Minute); ok {
		t.Error("WindowAvg ok for an absent series")
	}
	s.Sample(snap(func(reg *obs.Registry) { reg.Counter("c").Add(1) }), base)
	// Only the first sight landed — no delta point exists yet.
	if _, ok := s.WindowSum("c", time.Minute); ok {
		t.Error("WindowSum ok before any delta point")
	}
}

func TestWindowAverageSkipsGaps(t *testing.T) {
	s, _ := newStore(t, 0)
	mk := func(v int64) *obs.Snapshot {
		return snap(func(reg *obs.Registry) { reg.Gauge("g").Set(v) })
	}
	s.Sample(mk(4), base)
	// skip 2 ticks
	s.Sample(mk(8), base.Add(3*time.Second))
	if avg, ok := s.WindowAvg("g", 10*time.Second); !ok || avg != 6 {
		t.Errorf("WindowAvg = %v, %v, want 6 (gaps skipped, not zero-filled)", avg, ok)
	}
}

func TestNoNaNLeaks(t *testing.T) {
	s, _ := newStore(t, 0)
	s.Sample(snap(func(reg *obs.Registry) { reg.Gauge("g").Set(1) }), base)
	for _, se := range s.Query(QueryOptions{}) {
		for _, p := range se.Points {
			if math.IsNaN(p.V) {
				t.Errorf("series %s leaked NaN", se.Name)
			}
		}
	}
}

// TestSampleConcurrentReaders runs a Sample loop against Query,
// WindowSum and SeriesCount readers (run it under -race). Every tick
// adds one to counter "c", so any window of it sums to at most its
// slot count, and the series population only grows, up to its cap.
func TestSampleConcurrentReaders(t *testing.T) {
	const ticks, maxSeries = 300, 8
	s, _ := newStore(t, maxSeries)
	reg := obs.New()
	c, g, h := reg.Counter("c"), reg.Gauge("g"), reg.Histogram("h")
	done := make(chan struct{})
	var wg sync.WaitGroup
	reader := func(read func() string) {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if msg := read(); msg != "" {
				t.Error(msg)
				return
			}
		}
	}
	wg.Add(3)
	go reader(func() string {
		for _, se := range s.Query(QueryOptions{}) {
			for i := 1; i < len(se.Points); i++ {
				if se.Points[i].T <= se.Points[i-1].T {
					return "Query returned points out of order in " + se.Name
				}
			}
		}
		return ""
	})
	go reader(func() string {
		if sum, ok := s.WindowSum("c", 5*time.Second); ok && (sum < 0 || sum > 5) {
			return "WindowSum over 5 ticks of +1 left [0, 5]"
		}
		return ""
	})
	last := 0
	go reader(func() string {
		n := s.SeriesCount()
		if n < last || n > maxSeries {
			return "SeriesCount shrank or passed its cap"
		}
		last = n
		return ""
	})
	for i := 0; i < ticks; i++ {
		c.Inc()
		g.Set(int64(i))
		h.Observe(int64(i))
		s.Sample(reg.Snapshot(), base.Add(time.Duration(i)*time.Second))
	}
	close(done)
	wg.Wait()
	if sum, ok := s.WindowSum("c", 10*time.Second); !ok || sum != 10 {
		t.Errorf("final WindowSum(c, 10s) = %v, %v; want 10, true", sum, ok)
	}
}
