// Package tsdb retains telemetry history inside the process: a
// fixed-memory ring of time series behind one mutex, sampled from an
// obs.Registry on a ticker, plus a watchdog (watchdog.go) that
// evaluates SLO rules over the rings and raises alerts while the
// process runs.
//
// Every other observability surface in this repository is a
// point-in-time snapshot — /metrics, /debug/obs, /debug/digests all
// answer "what is true now". The tsdb answers "what changed in the
// last five minutes": each Sample tick turns the registry snapshot (its
// instruments; the registry keeps no span trees, so a tick copies none)
// into one point per series — counters delta-encode (the stored value
// is the increment during the tick, so rate = value/resolution),
// gauges store their last value, and histograms extract per-tick
// quantiles (p50/p90/p95/p99), mean and count from the bucket deltas
// between consecutive snapshots, so a latency series reflects each
// window's traffic, not the cumulative blur.
//
// Memory is fixed at construction: every series owns one float64 ring
// of retention/resolution slots plus one coarser downsampled ring
// (e.g. 2s × 15m fine, 30s × 2h coarse), and the series population is
// capped (new names beyond the cap are dropped and counted in
// tsdb.series_dropped). A nil *Store is the valid "history off" store:
// Sample and Query on nil are allocation-free no-ops, the same
// contract the rest of internal/obs honors.
package tsdb

import (
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"indfd/internal/obs"
)

// Kind classifies how a series' points were derived from the registry.
type Kind uint8

const (
	// KindDelta points are per-tick increments of a cumulative counter
	// (or of a histogram's count); sum them to re-aggregate over a
	// window, divide by the resolution for a rate.
	KindDelta Kind = iota
	// KindGauge points are last-value samples; average them over a
	// window.
	KindGauge
	// KindQuantile points are per-tick quantile/mean extractions from a
	// histogram's bucket deltas; average them over a window.
	KindQuantile
)

// String returns the JSON name of the kind.
func (k Kind) String() string {
	switch k {
	case KindDelta:
		return "delta"
	case KindGauge:
		return "gauge"
	default:
		return "quantile"
	}
}

// Config parameterizes New. Zero fields take the documented defaults.
type Config struct {
	// Resolution is the sampling period (default 2s). Each Sample call
	// lands points in the slot now/Resolution; the caller (depserve's
	// sampler loop, or a test) owns the ticker.
	Resolution time.Duration
	// Retention is how far back the fine ring reaches (default 15m).
	Retention time.Duration
	// CoarseStep is the downsampled tier's period (default
	// 15×Resolution); CoarseRetention its reach (default 8×Retention).
	// Queries older than Retention are served from the coarse ring.
	CoarseStep      time.Duration
	CoarseRetention time.Duration
	// MaxSeries caps the series population (default 1024). The registry
	// bounds its own label cardinality (routes are registered patterns,
	// engines a fixed set), so the cap is a backstop, not a working
	// limit; drops count in tsdb.series_dropped.
	MaxSeries int
	// Reg receives the store's own meters: tsdb.samples (ticks taken),
	// tsdb.series (gauge: live series), tsdb.series_dropped.
	Reg *obs.Registry
}

// Point is one retained sample: T is unix milliseconds, V the value.
type Point struct {
	T int64   `json:"t"`
	V float64 `json:"v"`
}

// Series is one query result: a named, kinded point list in ascending
// time order. Gap ticks (no sample landed) are absent, not zero.
type Series struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Points []Point `json:"points"`
}

// series is one ring pair. All fields are guarded by Store.mu.
type series struct {
	name string
	kind Kind

	ring     []float64 // fine tier; NaN = no sample
	lastSlot int64     // absolute fine slot last written, -1 = never

	// Delta state: the previous cumulative value, valid once seen.
	prevRaw  float64
	havePrev bool

	coarse     []float64 // coarse tier; NaN = no sample
	coarseLast int64     // absolute coarse slot last flushed, -1 = never
	accSum     float64   // accumulator for the open coarse slot
	accCnt     int64
	accSlot    int64 // absolute coarse slot the accumulator belongs to
}

// histState is the per-histogram bucket memory that turns cumulative
// snapshots into per-tick delta histograms.
type histState struct {
	buckets map[int64]int64
	count   int64
	sum     int64
}

// Store is the in-process time-series database. Create with New; nil
// is the valid "off" store.
type Store struct {
	res         time.Duration
	retention   time.Duration
	slots       int
	coarseStep  time.Duration
	coarseSlots int
	maxSeries   int

	// mu guards the fields below. The traffic is one Sample per tick,
	// the watchdog's window reads on that tick and an occasional Query,
	// so one lock is enough.
	mu         sync.Mutex
	series     map[string]*series
	hists      map[string]*histState
	lastTickMS int64 // unix millis of the latest Sample

	cSamples *obs.Counter
	cDropped *obs.Counter
	gSeries  *obs.Gauge
}

// New builds a Store. cfg.Resolution <= 0 returns nil — the off store —
// so a flag value of 0 disables history with no further branching at
// the call sites.
func New(cfg Config) *Store {
	if cfg.Resolution <= 0 {
		return nil
	}
	if cfg.Retention <= 0 {
		cfg.Retention = 15 * time.Minute
	}
	if cfg.Retention < cfg.Resolution {
		cfg.Retention = cfg.Resolution
	}
	if cfg.CoarseStep <= 0 {
		cfg.CoarseStep = 15 * cfg.Resolution
	}
	if cfg.CoarseStep < cfg.Resolution {
		cfg.CoarseStep = cfg.Resolution
	}
	if cfg.CoarseRetention <= 0 {
		cfg.CoarseRetention = 8 * cfg.Retention
	}
	if cfg.MaxSeries <= 0 {
		cfg.MaxSeries = 1024
	}
	s := &Store{
		res:         cfg.Resolution,
		retention:   cfg.Retention,
		slots:       int(cfg.Retention / cfg.Resolution),
		coarseStep:  cfg.CoarseStep,
		coarseSlots: int(cfg.CoarseRetention / cfg.CoarseStep),
		maxSeries:   cfg.MaxSeries,
		series:      make(map[string]*series),
		hists:       make(map[string]*histState),
		cSamples:    cfg.Reg.Counter("tsdb.samples"),
		cDropped:    cfg.Reg.Counter("tsdb.series_dropped"),
		gSeries:     cfg.Reg.Gauge("tsdb.series"),
	}
	if s.slots < 1 {
		s.slots = 1
	}
	if s.coarseSlots < 1 {
		s.coarseSlots = 1
	}
	return s
}

// Resolution returns the sampling period (0 for the nil store).
func (s *Store) Resolution() time.Duration {
	if s == nil {
		return 0
	}
	return s.res
}

// Retention returns the fine tier's reach (0 for the nil store).
func (s *Store) Retention() time.Duration {
	if s == nil {
		return 0
	}
	return s.retention
}

// LastTick returns when the latest Sample landed (zero time if never,
// or for the nil store).
func (s *Store) LastTick() time.Time {
	if s == nil {
		return time.Time{}
	}
	s.mu.Lock()
	ms := s.lastTickMS
	s.mu.Unlock()
	if ms == 0 {
		return time.Time{}
	}
	return time.UnixMilli(ms)
}

// Sample ingests one registry snapshot at now: one point per counter
// (delta), gauge (last value) and histogram quantile. Call it on a
// steady ticker at the configured resolution; uneven or skipped ticks
// leave gaps, they do not corrupt neighbors. Nil store and nil
// snapshot are no-ops.
func (s *Store) Sample(snap *obs.Snapshot, now time.Time) {
	if s == nil || snap == nil {
		return
	}
	slot := now.UnixNano() / int64(s.res)
	s.mu.Lock()
	for name, v := range snap.Counters {
		s.observe(name, KindDelta, float64(v), slot)
	}
	for name, v := range snap.Gauges {
		s.observe(name, KindGauge, float64(v), slot)
	}
	for name, h := range snap.Histograms {
		s.observeHistogram(name, h, slot)
	}
	s.lastTickMS = now.UnixMilli()
	s.mu.Unlock()
	s.cSamples.Inc()
}

// observeHistogram turns the cumulative histogram into a per-tick
// delta histogram and lands its quantile/mean/count series. Caller
// holds mu.
func (s *Store) observeHistogram(name string, h obs.HistogramSnapshot, slot int64) {
	st, ok := s.hists[name]
	if !ok {
		if len(s.hists) >= s.maxSeries {
			s.cDropped.Inc()
			return
		}
		st = &histState{buckets: make(map[int64]int64)}
		s.hists[name] = st
	}
	delta := obs.HistogramSnapshot{
		Count: h.Count - st.count,
		Sum:   h.Sum - st.sum,
		Max:   h.Max, // per-window max is unknowable from cumulative buckets; cap at the global max
	}
	for _, b := range h.Buckets {
		if d := b.Count - st.buckets[b.Le]; d > 0 {
			delta.Buckets = append(delta.Buckets, obs.Bucket{Le: b.Le, Count: d})
		}
		st.buckets[b.Le] = b.Count
	}
	st.count, st.sum = h.Count, h.Sum
	s.observe(name+":count", KindDelta2, float64(delta.Count), slot)
	if delta.Count <= 0 {
		// A tick without observations contributes count=0 and leaves the
		// quantile series gapped — averaging in zeros would drag every
		// idle window's p99 to nothing.
		return
	}
	s.observe(name+":mean", KindQuantile, float64(delta.Sum)/float64(delta.Count), slot)
	for _, q := range [...]struct {
		suffix string
		q      float64
	}{{":p50", 0.50}, {":p90", 0.90}, {":p95", 0.95}, {":p99", 0.99}} {
		s.observe(name+q.suffix, KindQuantile, float64(delta.Quantile(q.q)), slot)
	}
}

// KindDelta2 is KindDelta for values that are already per-tick deltas
// (histogram count increments): stored as-is, no differencing.
const KindDelta2 = Kind(3)

// observe lands one raw value in the named series at the absolute fine
// slot. Caller holds mu.
func (s *Store) observe(name string, kind Kind, raw float64, slot int64) {
	se, ok := s.series[name]
	if !ok {
		if len(s.series) >= s.maxSeries {
			s.cDropped.Inc()
			return
		}
		storedKind := kind
		if kind == KindDelta2 {
			storedKind = KindDelta
		}
		se = &series{
			name:       name,
			kind:       storedKind,
			ring:       make([]float64, s.slots),
			coarse:     make([]float64, s.coarseSlots),
			lastSlot:   -1,
			coarseLast: -1,
			accSlot:    -1,
		}
		for i := range se.ring {
			se.ring[i] = math.NaN()
		}
		for i := range se.coarse {
			se.coarse[i] = math.NaN()
		}
		s.series[name] = se
		s.gSeries.Set(int64(len(s.series)))
	}

	v := raw
	switch kind {
	case KindDelta:
		if !se.havePrev {
			se.prevRaw, se.havePrev = raw, true
			return // the first sight of a counter has no delta yet
		}
		v = raw - se.prevRaw
		se.prevRaw = raw
		if v < 0 {
			v = 0 // a restarted counter (snapshot from a fresh registry) must not go negative
		}
	case KindDelta2, KindGauge, KindQuantile:
	}

	// Invalidate any slots skipped since the last write so a ring lap
	// cannot resurface stale points at fresh timestamps.
	if se.lastSlot >= 0 && slot > se.lastSlot {
		gap := slot - se.lastSlot - 1
		if gap > int64(s.slots) {
			gap = int64(s.slots)
		}
		for i := int64(1); i <= gap; i++ {
			se.ring[int((se.lastSlot+i)%int64(s.slots))] = math.NaN()
		}
	}
	if slot < se.lastSlot {
		return // time went backwards; drop rather than corrupt
	}
	se.ring[int(slot%int64(s.slots))] = v
	se.lastSlot = slot

	// Coarse tier: accumulate within the open coarse slot, flush when
	// the sample crosses into the next one.
	cslot := slot * int64(s.res) / int64(s.coarseStep)
	if se.accSlot >= 0 && cslot != se.accSlot {
		s.flushCoarse(se)
	}
	se.accSlot = cslot
	se.accSum += v
	se.accCnt++
}

// flushCoarse folds the accumulator into the coarse ring: deltas sum
// (the coarse point re-aggregates the window), gauges and quantiles
// average.
func (s *Store) flushCoarse(se *series) {
	if se.accCnt == 0 {
		return
	}
	v := se.accSum
	if se.kind != KindDelta {
		v /= float64(se.accCnt)
	}
	if se.coarseLast >= 0 && se.accSlot > se.coarseLast {
		gap := se.accSlot - se.coarseLast - 1
		if gap > int64(s.coarseSlots) {
			gap = int64(s.coarseSlots)
		}
		for i := int64(1); i <= gap; i++ {
			se.coarse[int((se.coarseLast+i)%int64(s.coarseSlots))] = math.NaN()
		}
	}
	se.coarse[int(se.accSlot%int64(s.coarseSlots))] = v
	se.coarseLast = se.accSlot
	se.accSum, se.accCnt, se.accSlot = 0, 0, -1
}

// QueryOptions narrows a Query. The zero value returns every series'
// full fine-tier history.
type QueryOptions struct {
	// Since drops points older than this instant. When it reaches back
	// past the fine retention the result comes from the coarse tier.
	Since time.Time
	// Step re-aggregates points into coarser buckets (rounded up to a
	// multiple of the tier's resolution): deltas sum, gauges and
	// quantiles average.
	Step time.Duration
	// Match keeps only series whose name contains this substring.
	Match string
}

// Query returns the retained history, name-sorted, points ascending in
// time. Nil store returns nil.
func (s *Store) Query(opt QueryOptions) []Series {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	lastMS := s.lastTickMS
	if lastMS == 0 {
		s.mu.Unlock()
		return nil
	}
	fine := true
	res := s.res
	if !opt.Since.IsZero() && time.UnixMilli(lastMS).Sub(opt.Since) > s.retention {
		fine = false
		res = s.coarseStep
	}
	var out []Series
	for _, se := range s.series {
		if opt.Match != "" && !strings.Contains(se.name, opt.Match) {
			continue
		}
		pts := s.points(se, fine, opt.Since)
		if len(pts) == 0 {
			continue
		}
		out = append(out, Series{Name: se.name, Kind: se.kind.String(), Points: pts})
	}
	s.mu.Unlock()
	if opt.Step > res {
		step := opt.Step.Round(res)
		if step < res {
			step = res
		}
		for i := range out {
			out[i].Points = rebucket(out[i].Points, out[i].Kind, step)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// points copies one series' tier into a Point slice, oldest first,
// skipping NaN gaps and points before since. Caller holds mu.
func (s *Store) points(se *series, fine bool, since time.Time) []Point {
	ring, last, step := se.ring, se.lastSlot, int64(s.res)
	if !fine {
		ring, last, step = se.coarse, se.coarseLast, int64(s.coarseStep)
	}
	if last < 0 {
		return nil
	}
	n := int64(len(ring))
	start := last - n + 1
	if start < 0 {
		start = 0
	}
	sinceNS := int64(math.MinInt64)
	if !since.IsZero() {
		sinceNS = since.UnixNano()
	}
	var pts []Point
	for slot := start; slot <= last; slot++ {
		v := ring[int(slot%n)]
		if math.IsNaN(v) {
			continue
		}
		tNS := slot * step
		if tNS < sinceNS {
			continue
		}
		pts = append(pts, Point{T: tNS / int64(time.Millisecond), V: v})
	}
	return pts
}

// rebucket folds points into step-sized buckets: "delta" sums, other
// kinds average.
func rebucket(pts []Point, kind string, step time.Duration) []Point {
	if len(pts) == 0 {
		return pts
	}
	stepMS := step.Milliseconds()
	var out []Point
	var sum float64
	var cnt int64
	bucket := pts[0].T / stepMS
	flush := func(b int64) {
		if cnt == 0 {
			return
		}
		v := sum
		if kind != "delta" {
			v /= float64(cnt)
		}
		out = append(out, Point{T: b * stepMS, V: v})
		sum, cnt = 0, 0
	}
	for _, p := range pts {
		if b := p.T / stepMS; b != bucket {
			flush(bucket)
			bucket = b
		}
		sum += p.V
		cnt++
	}
	flush(bucket)
	return out
}

// --- window reads (the watchdog's view) ------------------------------------

// WindowSum sums the named series' fine-tier points over the trailing
// window (relative to the last tick). ok is false when no point
// landed in the window — "no data" must not read as zero for an
// alerting rule. Nil store: never ok.
func (s *Store) WindowSum(name string, window time.Duration) (sum float64, ok bool) {
	return s.window(name, window, false)
}

// WindowAvg averages the named series' fine-tier points over the
// trailing window. Nil store: never ok.
func (s *Store) WindowAvg(name string, window time.Duration) (avg float64, ok bool) {
	return s.window(name, window, true)
}

func (s *Store) window(name string, window time.Duration, avg bool) (float64, bool) {
	if s == nil {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	se, ok := s.series[name]
	if !ok || se.lastSlot < 0 {
		return 0, false
	}
	slots := int64(window / s.res)
	if slots < 1 {
		slots = 1
	}
	if slots > int64(s.slots) {
		slots = int64(s.slots)
	}
	var sum float64
	var cnt int64
	for slot := se.lastSlot - slots + 1; slot <= se.lastSlot; slot++ {
		if slot < 0 {
			continue
		}
		v := se.ring[int(slot%int64(s.slots))]
		if math.IsNaN(v) {
			continue
		}
		sum += v
		cnt++
	}
	if cnt == 0 {
		return 0, false
	}
	if avg {
		return sum / float64(cnt), true
	}
	return sum, true
}

// SeriesCount returns the live series population (0 for nil).
func (s *Store) SeriesCount() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.series)
}
