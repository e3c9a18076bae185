// Answer caching for implication queries.
//
// Implication is a pure function of (schema, Σ, goal, semantics, engine
// budgets): the same question always has the same answer, and the paper's
// lower bounds (PSPACE-hard IND implication, undecidable FD+IND
// implication) make re-deriving it arbitrarily expensive. A resident
// server therefore caches complete answers behind a canonical
// fingerprint: requests that differ only in the order of Σ or of the
// relations hit the same entry. The goal is keyed as spelled, because
// the proof an answer carries names it that way.
//
// The cache is a fixed array of mutex-striped LRU shards, so concurrent
// clients contend only when their fingerprints collide on a shard.
// Entries carry an optional TTL. Only COMPLETE answers may be stored:
// a deadline-killed chase returns an error alongside its partial stats,
// and caching that as "the answer" would wedge every later client into
// the first client's deadline; callers enforce this by caching only
// error-free results (serve additionally never caches 5xx responses).
// Entries may carry footprint tags, the canonical keys of the Σ members
// their answer depended on, so a Σ edit can free exactly the answers it
// touched (InvalidateMembers).
package core

import (
	"container/list"
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"hash"
	"slices"
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
// of Σ, the goal as spelled (its String, since a proof names the goal
// the way the query did), the semantics mode, and any extra
// answer-shaping knobs the caller appends (budget, search fallback,
// explain). Two queries with equal fingerprints get the same verdict
// from the same engine. The proof, counterexample and stats of a cached
// answer come from the Σ ordering that filled the entry; they are valid
// for any Σ with the same members, but another ordering may have
// derived another proof.
func QueryFingerprint(db *schema.Database, sigma []deps.Dependency, goal deps.Dependency, mode string, extras ...string) string {
	keys := make([]string, len(sigma))
	for i, d := range sigma {
		keys[i] = d.Key()
	}
	sort.Strings(keys)
	return fingerprintHash(db.Canonical(), keys, goal.String(), mode, extras)
}

// The fingerprint's byte layout is every field followed by a NUL: the
// scheme's canonical render, "|sigma", the sorted member keys, then
// "|goal", the goal's String, the mode and the extras. The first three
// depend only on the component, so System.QueryKey hashes them once per
// component (compIndex.prefix) and resumes from that state per goal.

// appendField appends one fingerprint field and its NUL terminator.
func appendField(buf []byte, s string) []byte {
	return append(append(buf, s...), 0)
}

// appendSigmaFields appends the component's part of the layout.
func appendSigmaFields(buf []byte, canon string, sortedKeys []string) []byte {
	buf = appendField(buf, canon)
	buf = appendField(buf, "|sigma")
	for _, k := range sortedKeys {
		buf = appendField(buf, k)
	}
	return buf
}

// appendGoalFields appends the query's part of the layout.
func appendGoalFields(buf []byte, goal, mode string, extras []string) []byte {
	buf = appendField(buf, "|goal")
	buf = appendField(buf, goal)
	buf = appendField(buf, mode)
	for _, e := range extras {
		buf = appendField(buf, e)
	}
	return buf
}

// fingerprintHash hashes the whole layout in one pass: QueryFingerprint,
// and QueryKey on an index without a valid prefix.
func fingerprintHash(canon string, sortedKeys []string, goal, mode string, extras []string) string {
	buf := appendSigmaFields(nil, canon, sortedKeys)
	sum := sha256.Sum256(appendGoalFields(buf, goal, mode, extras))
	return hex.EncodeToString(sum[:])
}

// prefixState hashes canon and the sorted member keys once and returns
// the hash's marshaled state, or nil when it cannot marshal its state;
// QueryKey then hashes in full.
func prefixState(canon string, sortedKeys []string) []byte {
	h := sha256.New()
	h.Write(appendSigmaFields(nil, canon, sortedKeys))
	m, ok := h.(encoding.BinaryMarshaler)
	if !ok {
		return nil
	}
	state, err := m.MarshalBinary()
	if err != nil {
		return nil
	}
	return state
}

// keyHasher is GoalKey's scratch: a SHA-256 hash to resume a
// component's prefix state into, and the buffer the goal's fields and
// the sum are laid out in. Pooled, so a key allocates only its text.
type keyHasher struct {
	h   hash.Hash
	buf []byte
}

var keyHashers = sync.Pool{New: func() any {
	return &keyHasher{h: sha256.New(), buf: make([]byte, 0, 256)}
}}

// QueryKey is the footprint-aware fingerprint computed from the
// precompiled component index: byte-identical to
// QueryFingerprint(DB(), Relevant(goal), goal, mode, extras...) — both
// hash the same sorted member keys — but without re-rendering or
// re-sorting Σ per query. Keying on the goal's component rather than all
// of Σ is exact (core restricts Σ to that component before dispatching)
// and keeps every such key, and hence the hit rate, unchanged when a
// member outside the component is added or edited.
//
// A component's index carries its hashed prefix, so a query hashes only
// its own fields. The prefix is used only while the database's canonical
// render is still the one it hashed: a scheme added to the database
// after Add, a bridging IND goal's merged index and a component Σ does
// not name all take the full hash.
func (s *System) QueryKey(goal deps.Dependency, mode string, extras ...string) string {
	return s.GoalKey(Goal{Dep: goal}, mode, extras...)
}

// GoalKey is QueryKey for a goal whose text its caller already
// rendered: the key hashes that text as the goal's field.
func (s *System) GoalKey(g Goal, mode string, extras ...string) string {
	ci := s.relevantIndex(g.Dep)
	text := g.text()
	if !ci.current(s.db) || ci.prefix == nil {
		return fingerprintHash(s.db.Canonical(), ci.keys, text, mode, extras)
	}
	kh := keyHashers.Get().(*keyHasher)
	defer keyHashers.Put(kh)
	if err := kh.h.(encoding.BinaryUnmarshaler).UnmarshalBinary(ci.prefix); err != nil {
		return fingerprintHash(s.db.Canonical(), ci.keys, text, mode, extras)
	}
	kh.buf = appendGoalFields(kh.buf[:0], text, mode, extras)
	kh.h.Write(kh.buf)
	kh.buf = kh.h.Sum(kh.buf[:0])
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], kh.buf)
	return string(out[:])
}

// FingerprintOptions renders the answer-shaping members of Options into
// fingerprint extras. Obs and Ctx are deliberately absent: they shape
// observability and deadlines, not the answer. Footprint is absent too:
// like Profile capture it never changes the answer, only whether
// Answer.Footprint is recorded, and serve strips that from responses.
// The two flags and the default budget take their constant spellings,
// and any other budget is formatted in one allocation. The slice is the
// caller's own, with room for one more field, so appending a caller's
// extra (serve's explain flag) does not grow it.
func FingerprintOptions(opt Options) []string {
	budget, search, provenance := "budget=0", "search=false", "provenance=false"
	if opt.ChaseMaxTuples != 0 {
		var buf [32]byte
		budget = string(strconv.AppendInt(append(buf[:0], "budget="...), int64(opt.ChaseMaxTuples), 10))
	}
	if opt.SearchFallback {
		search = "search=true"
	}
	if opt.Provenance {
		provenance = "provenance=true"
	}
	out := make([]string, 3, 4)
	out[0], out[1], out[2] = budget, search, provenance
	return out
}

// CachedAnswer is the unit an AnswerCache stores: a complete Answer plus
// the engine's explanation when the caller requested one. Trace and
// DepProfile are per-query observability, not part of the answer,
// and are stripped before storage (a cached profile would misreport the
// hit's cost — scan times are wall-clock measurements of the miss).
type CachedAnswer struct {
	Answer      Answer
	Explanation string
	// Counterexample is Answer.Counterexample's text as its caller
	// rendered it when the answer entered the cache, so that every hit
	// serves that text rather than rendering the database again.
	Counterexample string
}

// cacheShards is the stripe count. 16 shards keep 32 concurrent clients
// mostly un-contended while the array stays small enough to embed.
const cacheShards = 16

// AnswerCache is a concurrency-safe, sharded LRU of complete implication
// answers. A nil *AnswerCache is a valid "caching off" cache: Get always
// misses without counting, Put is a no-op.
//
// Footprint tags ride on the entries themselves, sorted; there is no
// reverse index from member to entries. Every Get, Put and eviction
// therefore locks exactly one shard, and the rare Σ edit pays instead:
// InvalidateMembers sweeps the shards one lock at a time.
type AnswerCache struct {
	shards   [cacheShards]cacheShard
	perShard int
	ttl      time.Duration
	now      func() time.Time // injectable for TTL tests

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
	// tags are the canonical member keys this answer's footprint
	// touched, sorted ascending (nil for untagged Put) so the
	// invalidation sweep can binary-search them. The slice may be shared
	// with the caller and other entries and is never written.
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

// PutTagged is Put plus footprint tags: the canonical Key()s of the Σ
// members the answer depended on (System.AnswerTags), any of which
// passed to InvalidateMembers later drops the entry. Nil tags stores an
// entry no member edit can target. Sorted tags are kept as given — the
// caller must not modify them afterwards; unsorted tags are copied and
// sorted first.
func (c *AnswerCache) PutTagged(key string, val CachedAnswer, tags []string) {
	if c == nil {
		return
	}
	// The answer is the payload; per-query observability is not.
	val.Answer.Trace = nil
	val.Answer.DepProfile = nil
	if !slices.IsSorted(tags) {
		tags = slices.Clone(tags)
		slices.Sort(tags)
	}
	var expires time.Time
	if c.ttl > 0 {
		expires = c.now().Add(c.ttl)
	}
	entry := cacheEntry{key: key, val: val, expires: expires, tags: tags}
	sh := c.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.entries[key]; ok {
		*el.Value.(*cacheEntry) = entry
		sh.lru.MoveToFront(el)
		return
	}
	if oldest := sh.lru.Back(); oldest != nil && sh.lru.Len() >= c.perShard {
		// The victim's element and entry are recycled for the newcomer:
		// nothing outside the shard lock holds either.
		old := oldest.Value.(*cacheEntry)
		delete(sh.entries, old.key)
		c.evictions.Inc()
		*old = entry
		sh.lru.MoveToFront(oldest)
		sh.entries[key] = oldest
		return
	}
	fresh := entry
	sh.entries[key] = sh.lru.PushFront(&fresh)
}

// InvalidateMembers drops every cached answer whose footprint touched
// any of the given members (canonical Key()s), returning the number of
// entries removed and counting each as cache.footprint_invalidations.
// The registry calls this on a Σ edit: only answers tagged with an
// edited member pay, answers over disjoint parts of the scheme stay
// warm. It sweeps every entry, one shard lock at a time, binary-searching
// each entry's sorted tags — the cost an edit pays so that puts and
// evictions keep no reverse index. A PutTagged racing the sweep into an
// already swept shard keeps its entry; that is benign, since the entry
// is still a correct answer for its own fingerprint (keys bind the full
// relevant Σ).
func (c *AnswerCache) InvalidateMembers(memberKeys ...string) int {
	if c == nil || len(memberKeys) == 0 {
		return 0
	}
	changed := slices.Clone(memberKeys)
	slices.Sort(changed)
	removed := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for el := sh.lru.Front(); el != nil; {
			next := el.Next()
			if e := el.Value.(*cacheEntry); intersects(e.tags, changed) {
				sh.lru.Remove(el)
				delete(sh.entries, e.key)
				removed++
			}
			el = next
		}
		sh.mu.Unlock()
	}
	c.footprintEvict.Add(int64(removed))
	return removed
}

// intersects reports whether two sorted key lists share a key: none
// when their ranges are disjoint (answers over other relations' members
// mostly are), else by probing each key of the shorter into the longer.
func intersects(a, b []string) bool {
	if len(a) == 0 || len(b) == 0 || a[len(a)-1] < b[0] || b[len(b)-1] < a[0] {
		return false
	}
	if len(a) > len(b) {
		a, b = b, a
	}
	for _, k := range a {
		if _, ok := slices.BinarySearch(b, k); ok {
			return true
		}
	}
	return false
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
