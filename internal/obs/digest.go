package obs

import (
	"math/bits"
	"sort"
	"sync"
)

// This file is the query-digest aggregator: a sharded, bounded top-K
// store of per-query-shape workload statistics, keyed by the canonical
// query fingerprint (core.QueryFingerprint — queries that differ only in
// the order of Σ or of the relations share a key). Where
// the flight recorder answers "what did request X do", the digest store
// answers "what does this WORKLOAD do": which query shapes dominate
// total engine time, how their latency distributes, how often they err
// or hit the answer cache, and which Σ members they burn (the merged
// per-dependency profiles of profile.go).
//
// Memory is bounded by construction. Each shard holds at most K/shards
// entries; when a shard is full, a new fingerprint is admitted by
// SPACE-SAVING replacement — it evicts the entry with the smallest
// total time and inherits that total as its error floor (InheritedNS in
// the snapshot), the classical guarantee that a true heavy hitter
// cannot be kept out by a stream of singletons. Evictions are counted
// in obs.digest_evictions; obs.digest_observations and the
// obs.digest_entries gauge round out the aggregate metrics, which land
// in the shared registry and therefore in the Prometheus and OTLP
// exports for free.

// digestShards stripes the store's mutexes, like the flight recorder's.
const digestShards = 8

// digestHotDeps bounds the merged per-dependency profile retained per
// digest: only the hottest members survive each merge, so a digest's
// memory stays constant no matter how many distinct dependencies its
// queries touch over time.
const digestHotDeps = 8

// DigestObservation is one completed query as the serve layer reports
// it to the store.
type DigestObservation struct {
	// Fingerprint is the canonical query fingerprint — the digest key.
	Fingerprint string
	// Query is a display sample of the query (the rendered goal); the
	// first observation's sample is retained.
	Query string
	// DurationNS is the request's engine wall time.
	DurationNS int64
	// Err marks deadline-exceeded and internal-error outcomes.
	Err bool
	// CacheHit marks answers served from the answer cache.
	CacheHit bool
	// Profile, when non-nil, is the query's per-dependency cost
	// attribution; its hottest entries are merged into the digest.
	Profile *DepProfile
}

// DigestSnapshot is one digest as /debug/digests serves it.
type DigestSnapshot struct {
	Fingerprint string `json:"fingerprint"`
	Query       string `json:"query,omitempty"`
	Count       int64  `json:"count"`
	Errors      int64  `json:"errors,omitempty"`
	CacheHits   int64  `json:"cache_hits,omitempty"`
	TotalNS     int64  `json:"total_ns"`
	MeanNS      int64  `json:"mean_ns"`
	MaxNS       int64  `json:"max_ns"`
	// InheritedNS is the space-saving error floor: the evicted
	// predecessor's total at admission time. A digest's true total lies
	// in [TotalNS - InheritedNS, TotalNS].
	InheritedNS int64 `json:"inherited_ns,omitempty"`
	// LatencyUS is the digest's log₂ latency histogram in microseconds.
	LatencyUS HistogramSnapshot `json:"latency_us"`
	// HotDeps is the merged per-dependency profile of the digest's
	// profiled queries, hottest first (at most digestHotDeps entries).
	HotDeps []DepCost `json:"hot_deps,omitempty"`
}

type digestEntry struct {
	fp        string
	query     string
	count     int64
	errs      int64
	hits      int64
	totalNS   int64
	maxNS     int64
	inherited int64
	buckets   [histBuckets]int64
	bucketSum int64 // sum of microsecond observations, for the snapshot
	prof      DepProfile
}

// digestShard keeps its entries in slots, which an eviction scans, with
// entries as the index by fingerprint. An admission into a full shard
// reuses the victim's entry and slot in place.
type digestShard struct {
	mu      sync.Mutex
	slots   []*digestEntry
	entries map[string]*digestEntry
}

// DigestStore is the bounded query-digest aggregator. A nil
// *DigestStore is a valid "digests off" store: Observe is a no-op and
// allocation-free, Snapshot returns nothing.
type DigestStore struct {
	shards   [digestShards]digestShard
	perShard int

	cObserved *Counter
	cEvicted  *Counter
	gEntries  *Gauge
}

// NewDigestStore builds a store holding at most k digests in total
// (rounded up to a multiple of the shard count; minimum one per shard).
// The obs.digest_observations / obs.digest_evictions counters and the
// obs.digest_entries gauge land in reg — registered eagerly so the
// exports show them at zero before the first query. k <= 0 returns nil,
// the digests-off store.
func NewDigestStore(k int, reg *Registry) *DigestStore {
	if k <= 0 {
		return nil
	}
	per := (k + digestShards - 1) / digestShards
	d := &DigestStore{
		perShard:  per,
		cObserved: reg.Counter("obs.digest_observations"),
		cEvicted:  reg.Counter("obs.digest_evictions"),
		gEntries:  reg.Gauge("obs.digest_entries"),
	}
	for i := range d.shards {
		d.shards[i].slots = make([]*digestEntry, 0, per)
		d.shards[i].entries = make(map[string]*digestEntry, per)
	}
	return d
}

// Cap returns the total number of digests the store retains (0 when
// nil).
func (d *DigestStore) Cap() int {
	if d == nil {
		return 0
	}
	return d.perShard * digestShards
}

// Len reports the live digest count across all shards.
func (d *DigestStore) Len() int {
	if d == nil {
		return 0
	}
	n := 0
	for i := range d.shards {
		d.shards[i].mu.Lock()
		n += len(d.shards[i].slots)
		d.shards[i].mu.Unlock()
	}
	return n
}

// shardFor maps a fingerprint to its stripe (FNV-1a, as the answer
// cache shards).
func (d *DigestStore) shardFor(key string) *digestShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &d.shards[h%digestShards]
}

// Observe folds one completed query into its digest, admitting the
// fingerprint by space-saving replacement when its shard is full. A nil
// store or an empty fingerprint is a no-op.
func (d *DigestStore) Observe(o DigestObservation) {
	if d == nil || o.Fingerprint == "" {
		return
	}
	d.cObserved.Inc()
	sh := d.shardFor(o.Fingerprint)
	sh.mu.Lock()
	e := sh.entries[o.Fingerprint]
	if e == nil {
		if len(sh.slots) < d.perShard {
			e = &digestEntry{fp: o.Fingerprint, query: o.Query}
			sh.slots = append(sh.slots, e)
			d.gEntries.Add(1)
		} else {
			// Space-saving: evict the coldest entry, the earliest slot
			// on ties; the newcomer inherits its total as the error
			// floor, so K observations of a genuinely hot shape always
			// out-total the floor and the hot shape is never churned
			// out by singletons. The newcomer takes over the victim's
			// entry, so admission allocates nothing.
			e = sh.slots[0]
			for _, cand := range sh.slots[1:] {
				if cand.totalNS < e.totalNS {
					e = cand
				}
			}
			delete(sh.entries, e.fp)
			d.cEvicted.Inc()
			floor := e.totalNS
			*e = digestEntry{fp: o.Fingerprint, query: o.Query, totalNS: floor, inherited: floor}
		}
		sh.entries[o.Fingerprint] = e
	}
	e.count++
	e.totalNS += o.DurationNS
	if o.DurationNS > e.maxNS {
		e.maxNS = o.DurationNS
	}
	if o.Err {
		e.errs++
	}
	if o.CacheHit {
		e.hits++
	}
	us := o.DurationNS / 1e3
	e.bucketSum += us
	if us > 0 {
		e.buckets[bits.Len64(uint64(us))]++
	} else {
		e.buckets[0]++
	}
	if o.Profile != nil {
		e.prof.Merge(o.Profile)
		if hot := e.prof.Hot(digestHotDeps); len(hot) < len(e.prof.Deps) {
			e.prof.Deps = hot
		}
	}
	sh.mu.Unlock()
}

// Snapshot returns up to limit digests sorted by total engine time,
// hottest workload first (limit <= 0 means all).
func (d *DigestStore) Snapshot(limit int) []DigestSnapshot {
	if d == nil {
		return nil
	}
	var out []DigestSnapshot
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.Lock()
		for _, e := range sh.slots {
			s := DigestSnapshot{
				Fingerprint: e.fp,
				Query:       e.query,
				Count:       e.count,
				Errors:      e.errs,
				CacheHits:   e.hits,
				TotalNS:     e.totalNS,
				MaxNS:       e.maxNS,
				InheritedNS: e.inherited,
				HotDeps:     e.prof.Hot(digestHotDeps),
			}
			if e.count > 0 {
				s.MeanNS = (e.totalNS - e.inherited) / e.count
			}
			s.LatencyUS = HistogramSnapshot{Count: e.count, Sum: e.bucketSum, Max: e.maxNS / 1e3}
			for b := range e.buckets {
				n := e.buckets[b]
				if n == 0 {
					continue
				}
				le := int64(0)
				if b > 0 {
					le = int64(1)<<uint(b) - 1
				}
				s.LatencyUS.Buckets = append(s.LatencyUS.Buckets, Bucket{Le: le, Count: n})
			}
			out = append(out, s)
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalNS != out[j].TotalNS {
			return out[i].TotalNS > out[j].TotalNS
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}
