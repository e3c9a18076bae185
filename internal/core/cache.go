// Answer caching for implication queries.
//
// Implication is a pure function of (schema, Σ, goal, semantics, engine
// budgets): the same question always has the same answer, and the paper's
// lower bounds (PSPACE-hard IND implication, undecidable FD+IND
// implication) make re-deriving it arbitrarily expensive. A resident
// server therefore caches complete answers behind a canonical
// fingerprint: textually different but semantically identical requests —
// Σ reordered, relations declared in another order — hit the same entry.
//
// The cache is a fixed array of mutex-striped LRU shards, so concurrent
// clients contend only when their fingerprints collide on a shard.
// Entries carry an optional TTL. Only COMPLETE answers may be stored:
// a deadline-killed chase returns an error alongside its partial stats,
// and caching that as "the answer" would wedge every later client into
// the first client's deadline; callers enforce this by caching only
// error-free results (serve additionally never caches 5xx responses).
package core

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strconv"
	"sync"
	"time"

	"indfd/internal/deps"
	"indfd/internal/obs"
	"indfd/internal/schema"
)

// QueryFingerprint is the canonical cache key of an implication query:
// a SHA-256 over the sorted relation schemes, the sorted canonical keys
// of Σ, the goal's canonical key, the semantics mode, and any extra
// answer-shaping knobs the caller appends (budget, search fallback,
// explain). Two queries with equal fingerprints have byte-identical
// complete answers.
func QueryFingerprint(db *schema.Database, sigma []deps.Dependency, goal deps.Dependency, mode string, extras ...string) string {
	keys := make([]string, len(sigma))
	for i, d := range sigma {
		keys[i] = d.Key()
	}
	sort.Strings(keys)
	return fingerprintHash(db.Canonical(), keys, goal.Key(), mode, extras)
}

// fingerprintHash is the one hasher behind every fingerprint variant:
// QueryFingerprint sorts its member keys and calls it, System.QueryKey
// feeds it the presorted keys from the component index. Sharing the
// byte layout here is what makes the two byte-identical.
func fingerprintHash(canon string, sortedKeys []string, goalKey, mode string, extras []string) string {
	h := sha256.New()
	write := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	// The scheme's canonical render is maintained by Database.Add, so
	// the hot per-query path hashes one prebuilt string instead of
	// re-rendering every relation.
	write(canon)
	write("|sigma")
	for _, k := range sortedKeys {
		write(k)
	}
	write("|goal")
	write(goalKey)
	write(mode)
	for _, e := range extras {
		write(e)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// QueryKey is the footprint-aware fingerprint computed from the
// precompiled component index: byte-identical to
// QueryFingerprint(DB(), Relevant(goal), goal, mode, extras...) — both
// feed fingerprintHash the same sorted member keys — but without
// re-rendering or re-sorting Σ per query. Keying on the goal's component
// rather than all of Σ is exact (core restricts Σ to that component
// before dispatching) and keeps every such key, and hence the hit rate,
// unchanged when a member outside the component is added or edited.
func (s *System) QueryKey(goal deps.Dependency, mode string, extras ...string) string {
	return fingerprintHash(s.db.Canonical(), s.relevantIndex(goal).keys, goal.Key(), mode, extras)
}

// FingerprintOptions renders the answer-shaping members of Options into
// fingerprint extras. Obs and Ctx are deliberately absent: they shape
// observability and deadlines, not the answer. Footprint is absent too:
// like Profile capture it never changes the answer, only whether
// Answer.Footprint is recorded, and serve strips that from responses.
func FingerprintOptions(opt Options) []string {
	return []string{
		"budget=" + strconv.Itoa(opt.ChaseMaxTuples),
		"search=" + strconv.FormatBool(opt.SearchFallback),
		"provenance=" + strconv.FormatBool(opt.Provenance),
	}
}

// CachedAnswer is the unit an AnswerCache stores: a complete Answer plus
// the engine's explanation when the caller requested one. Trace and
// DepProfile are per-query observability, not part of the answer,
// and are stripped before storage (a cached profile would misreport the
// hit's cost — scan times are wall-clock measurements of the miss).
type CachedAnswer struct {
	Answer      Answer
	Explanation string
}

// cacheShards is the stripe count. 16 shards keep 32 concurrent clients
// mostly un-contended while the array stays small enough to embed.
const cacheShards = 16

// AnswerCache is a concurrency-safe, sharded LRU of complete implication
// answers. A nil *AnswerCache is a valid "caching off" cache: Get always
// misses without counting, Put is a no-op.
type AnswerCache struct {
	shards   [cacheShards]cacheShard
	perShard int
	ttl      time.Duration
	now      func() time.Time // injectable for TTL tests

	// Reverse index for footprint invalidation: canonical member key →
	// set of cache fingerprints whose answer depended on that member
	// (tags supplied to PutTagged). Guarded by its own mutex, never held
	// together with a shard lock (shard ops collect work under the shard
	// lock and touch the index after unlocking), so the two lock classes
	// cannot deadlock.
	idxMu sync.Mutex
	idx   map[string]map[string]struct{}

	hits           *obs.Counter
	misses         *obs.Counter
	evictions      *obs.Counter
	footprintEvict *obs.Counter
}

type cacheShard struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	lru     *list.List // front = most recently used
}

type cacheEntry struct {
	key     string
	val     CachedAnswer
	expires time.Time // zero = no expiry
	// tags are the canonical member keys this answer's footprint touched
	// (nil for untagged Put); each tag holds a reverse-index edge that
	// must be dropped when the entry leaves the cache.
	tags []string
}

// NewAnswerCache builds a cache holding at most size entries in total
// (rounded up to a multiple of the shard count), each valid for ttl
// (0 = forever). The cache.hits / cache.misses / cache.evictions
// counters land in reg; a nil reg disables counting but not caching.
// size <= 0 returns nil — the caching-off cache.
func NewAnswerCache(size int, ttl time.Duration, reg *obs.Registry) *AnswerCache {
	if size <= 0 {
		return nil
	}
	per := (size + cacheShards - 1) / cacheShards
	c := &AnswerCache{
		perShard:       per,
		ttl:            ttl,
		now:            time.Now,
		idx:            make(map[string]map[string]struct{}),
		hits:           reg.Counter("cache.hits"),
		misses:         reg.Counter("cache.misses"),
		evictions:      reg.Counter("cache.evictions"),
		footprintEvict: reg.Counter("cache.footprint_invalidations"),
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*list.Element, per)
		c.shards[i].lru = list.New()
	}
	return c
}

// shardFor maps a fingerprint to its stripe (FNV-1a over the key).
func (c *AnswerCache) shardFor(key string) *cacheShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &c.shards[h%cacheShards]
}

// Get returns the cached answer for the fingerprint, if present and
// unexpired, and counts the hit or miss.
func (c *AnswerCache) Get(key string) (CachedAnswer, bool) {
	if c == nil {
		return CachedAnswer{}, false
	}
	sh := c.shardFor(key)
	sh.mu.Lock()
	el, ok := sh.entries[key]
	if !ok {
		sh.mu.Unlock()
		c.misses.Inc()
		return CachedAnswer{}, false
	}
	e := el.Value.(*cacheEntry)
	if !e.expires.IsZero() && c.now().After(e.expires) {
		sh.lru.Remove(el)
		delete(sh.entries, key)
		sh.mu.Unlock()
		c.untag(e) // index update outside the shard lock (lock ordering)
		c.misses.Inc()
		return CachedAnswer{}, false
	}
	sh.lru.MoveToFront(el)
	val := e.val
	sh.mu.Unlock()
	c.hits.Inc()
	return val, true
}

// Put stores a complete answer under the fingerprint, evicting the
// shard's least-recently-used entry when the shard is full. Callers must
// not Put partial answers (cancelled or deadline-killed queries); the
// cache cannot tell them apart from complete ones.
func (c *AnswerCache) Put(key string, val CachedAnswer) {
	c.PutTagged(key, val, nil)
}

// PutTagged is Put plus footprint registration: tags are the canonical
// Key()s of the Σ members the answer depended on (System.AnswerTags), and
// InvalidateMembers on any of them later drops the entry. Nil tags
// stores an entry no member edit can target.
func (c *AnswerCache) PutTagged(key string, val CachedAnswer, tags []string) {
	if c == nil {
		return
	}
	// The answer is the payload; per-query observability is not.
	val.Answer.Trace = nil
	val.Answer.DepProfile = nil
	var expires time.Time
	if c.ttl > 0 {
		expires = c.now().Add(c.ttl)
	}
	// Index edges to drop and add are decided under the shard lock but
	// applied after unlocking, so the shard and index locks never nest.
	var dropped *cacheEntry
	entry := &cacheEntry{key: key, val: val, expires: expires, tags: tags}
	sh := c.shardFor(key)
	sh.mu.Lock()
	if el, ok := sh.entries[key]; ok {
		old := el.Value.(*cacheEntry)
		el.Value = entry
		sh.lru.MoveToFront(el)
		sh.mu.Unlock()
		c.untag(old)
		c.tag(entry)
		return
	}
	if sh.lru.Len() >= c.perShard {
		oldest := sh.lru.Back()
		if oldest != nil {
			sh.lru.Remove(oldest)
			dropped = oldest.Value.(*cacheEntry)
			delete(sh.entries, dropped.key)
			c.evictions.Inc()
		}
	}
	sh.entries[key] = sh.lru.PushFront(entry)
	sh.mu.Unlock()
	c.untag(dropped)
	c.tag(entry)
}

// tag registers the entry's fingerprint under each of its member tags.
func (c *AnswerCache) tag(e *cacheEntry) {
	if e == nil || len(e.tags) == 0 {
		return
	}
	c.idxMu.Lock()
	for _, t := range e.tags {
		s, ok := c.idx[t]
		if !ok {
			s = make(map[string]struct{})
			c.idx[t] = s
		}
		s[e.key] = struct{}{}
	}
	c.idxMu.Unlock()
}

// untag drops the entry's reverse-index edges after it left the cache.
func (c *AnswerCache) untag(e *cacheEntry) {
	if e == nil || len(e.tags) == 0 {
		return
	}
	c.idxMu.Lock()
	for _, t := range e.tags {
		if s, ok := c.idx[t]; ok {
			delete(s, e.key)
			if len(s) == 0 {
				delete(c.idx, t)
			}
		}
	}
	c.idxMu.Unlock()
}

// InvalidateMembers drops every cached answer whose footprint touched
// any of the given members (canonical Key()s), returning the number of
// entries removed and counting each as cache.footprint_invalidations.
// The registry calls this on a Σ edit: only answers that actually used
// the edited member pay, answers over disjoint parts of the scheme stay
// warm. Concurrent PutTagged calls racing this are benign — a tag
// registered after the sweep keeps its entry, which is still a correct
// answer for its own fingerprint (keys bind the full relevant Σ).
func (c *AnswerCache) InvalidateMembers(memberKeys ...string) int {
	if c == nil {
		return 0
	}
	// Collect the doomed fingerprints under the index lock, then walk
	// their shards without holding it.
	doomed := make(map[string]struct{})
	c.idxMu.Lock()
	for _, m := range memberKeys {
		for k := range c.idx[m] {
			doomed[k] = struct{}{}
		}
	}
	c.idxMu.Unlock()
	removed := 0
	for k := range doomed {
		sh := c.shardFor(k)
		sh.mu.Lock()
		el, ok := sh.entries[k]
		var e *cacheEntry
		if ok {
			e = el.Value.(*cacheEntry)
			sh.lru.Remove(el)
			delete(sh.entries, k)
		}
		sh.mu.Unlock()
		if ok {
			c.untag(e)
			c.footprintEvict.Inc()
			removed++
		}
	}
	return removed
}

// Len reports the live entry count across all shards (expired entries
// not yet touched still count; they are reaped lazily on Get).
func (c *AnswerCache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += c.shards[i].lru.Len()
		c.shards[i].mu.Unlock()
	}
	return n
}
