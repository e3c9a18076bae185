// Cross-request engine pooling. A resident server answers a stream of
// implication queries that overwhelmingly share a handful of (schema,
// sigma) shapes; compiling sigma and growing arenas, interners, witness
// indexes and union-find backing from zero on every request is pure
// allocation churn. An EnginePool keyed by a fingerprint of the schema
// and sigma recycles structurally reset engines across runs: a warm hit
// re-runs the same query shape with zero steady-state allocations (the
// interners keep their key arenas and slots across epochs, every slice
// keeps its backing array — TestZeroAlloc pins this). A run's counts
// reach its registry before the engine is parked, and a parked engine
// holds no registry.
//
// Correctness over the fingerprint: the hash picks the bucket, but a
// pooled engine is only handed out after a field-by-field comparison of
// its compiled schema and sigma against the request (matches below), so
// a hash collision degrades to a pool miss, never to reuse of the wrong
// compilation. Engines come back to the pool only after an error-free
// run — release discards an engine whose chase was killed mid-round
// (deadline, cancellation, contradiction), because its tableau is
// partial state no later request may observe.
//
// Bounded state: the idle engines sit in one mutex-guarded set, a LIFO
// stack per bucket plus one LRU across buckets, both linked through
// fields on the engine, so parking and reusing one allocates nothing.
// The set holds at most poolMaxIdle engines (the oldest idle one goes
// first), a bucket emptied by get leaves no map entry, and an engine
// whose run created more than DefaultMaxTuples tuples is dropped rather
// than kept resident with its grown arrays. The pool holds its idle
// engines strongly, so a garbage collection never empties the set.
package chase

import (
	"sync"

	"indfd/internal/deps"
	"indfd/internal/obs"
	"indfd/internal/schema"
)

// poolMaxIdle bounds the idle engines one pool keeps across all its
// buckets. depserve runs one pool for inline and registered schemas
// alike; the bound is that of its compiled-system memo, so every system
// the memo retains can keep one warm engine.
const poolMaxIdle = 256

// EnginePool recycles chase engines across runs, bucketed by a
// (schema, sigma) fingerprint. Safe for concurrent use; the zero value
// is not ready, use NewEnginePool.
type EnginePool struct {
	mu sync.Mutex
	// buckets maps a fingerprint to the newest idle engine of its
	// bucket; engine.down leads to older ones. An empty bucket has no
	// entry.
	buckets map[uint64]*engine
	// newest and oldest end the LRU of every idle engine, linked through
	// engine.newer/older; idle counts its members.
	newest, oldest *engine
	idle           int

	hits     *obs.Counter // pool.hits: requests served by a recycled engine
	misses   *obs.Counter // pool.misses: requests that compiled fresh
	discards *obs.Counter // pool.discards: engines dropped as poisoned, colliding or oversized
}

// NewEnginePool returns an empty pool reporting pool.hits/misses/
// discards to reg (nil = uncounted).
func NewEnginePool(reg *obs.Registry) *EnginePool {
	return &EnginePool{
		buckets:  make(map[uint64]*engine),
		hits:     reg.Counter("pool.hits"),
		misses:   reg.Counter("pool.misses"),
		discards: reg.Counter("pool.discards"),
	}
}

// get returns a reset engine compiled from an identical schema and
// sigma, or nil (a miss). The caller arms it.
func (p *EnginePool) get(key uint64, db *schema.Database, sigma []deps.Dependency) *engine {
	for {
		p.mu.Lock()
		e := p.buckets[key]
		if e != nil {
			p.unlink(e)
		}
		p.mu.Unlock()
		if e == nil {
			break
		}
		if e.matches(db, sigma) {
			p.hits.Inc()
			return e
		}
		// Fingerprint collision: this engine belongs to a different
		// (schema, sigma). Drop it rather than re-pooling it here —
		// colliding shapes in one bucket would otherwise thrash.
		p.discards.Inc()
	}
	p.misses.Inc()
	return nil
}

// put parks a structurally reset engine on top of its bucket and at the
// new end of the LRU, dropping the oldest idle engine past poolMaxIdle.
func (p *EnginePool) put(e *engine) {
	p.mu.Lock()
	if top := p.buckets[e.poolKey]; top != nil {
		top.up, e.down = e, top
	}
	p.buckets[e.poolKey] = e
	if p.newest != nil {
		p.newest.newer, e.older = e, p.newest
	} else {
		p.oldest = e
	}
	p.newest = e
	p.idle++
	if p.idle > poolMaxIdle {
		p.unlink(p.oldest)
	}
	p.mu.Unlock()
}

// unlink takes an idle engine out of its bucket and the LRU; p.mu must
// be held.
func (p *EnginePool) unlink(e *engine) {
	if e.up != nil {
		e.up.down = e.down
	} else if e.down != nil {
		p.buckets[e.poolKey] = e.down
	} else {
		delete(p.buckets, e.poolKey)
	}
	if e.down != nil {
		e.down.up = e.up
	}
	if e.newer != nil {
		e.newer.older = e.older
	} else {
		p.newest = e.older
	}
	if e.older != nil {
		e.older.newer = e.newer
	} else {
		p.oldest = e.newer
	}
	e.up, e.down, e.newer, e.older = nil, nil, nil, nil
	p.idle--
}

// discard counts an engine that must not be re-pooled (poisoned or
// oversized); the engine is simply dropped for the GC.
func (p *EnginePool) discard(*engine) {
	p.discards.Inc()
}

// matches reports whether the engine was compiled from exactly this
// schema and sigma — relation names, attribute sequences, and every
// dependency field-by-field, in order. It allocates nothing (it runs on
// the pooled hot path). An engine compiled from the very database and
// sigma slice requested matches without the comparison: core hands
// every chase over a component that component's own members slice,
// which nothing writes after Add, and a database only grows.
func (e *engine) matches(db *schema.Database, sigma []deps.Dependency) bool {
	names := db.Names()
	if len(names) != len(e.rels) {
		return false
	}
	if db == e.db && len(sigma) == len(e.sigma) && (len(sigma) == 0 || &sigma[0] == &e.sigma[0]) {
		return true
	}
	for i, n := range names {
		if e.rels[i].name != n {
			return false
		}
		s1, _ := e.db.Scheme(n)
		s2, ok := db.Scheme(n)
		if !ok || !schema.EqualSeq(s1.Attrs(), s2.Attrs()) {
			return false
		}
	}
	if len(sigma) != len(e.sigma) {
		return false
	}
	for i := range sigma {
		if !sameDep(e.sigma[i], sigma[i]) {
			return false
		}
	}
	return true
}

func sameDep(a, b deps.Dependency) bool {
	switch da := a.(type) {
	case deps.FD:
		db, ok := b.(deps.FD)
		return ok && da.Rel == db.Rel && schema.EqualSeq(da.X, db.X) && schema.EqualSeq(da.Y, db.Y)
	case deps.IND:
		db, ok := b.(deps.IND)
		return ok && da.LRel == db.LRel && da.RRel == db.RRel &&
			schema.EqualSeq(da.X, db.X) && schema.EqualSeq(da.Y, db.Y)
	case deps.RD:
		db, ok := b.(deps.RD)
		return ok && da.Rel == db.Rel && schema.EqualSeq(da.X, db.X) && schema.EqualSeq(da.Y, db.Y)
	default:
		return false
	}
}

// FNV-1a, inlined so fingerprinting allocates nothing.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

func hashByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime
}

func hashAttrs(h uint64, attrs []schema.Attribute) uint64 {
	for _, a := range attrs {
		h = hashString(h, string(a))
		h = hashByte(h, 0xfe)
	}
	return hashByte(h, 0xfd)
}

// PoolKey is the engine pool's bucket key for db and sigma, for
// Options.PoolKey.
func PoolKey(db *schema.Database, sigma []deps.Dependency) uint64 {
	return poolFingerprint(db, sigma)
}

// poolFingerprint hashes the pool bucket key: every relation name and
// attribute sequence in database order, then every dependency of sigma
// in order with a kind tag. Order-sensitive on purpose — the engine's
// compile indexes (and hence its deterministic merge order) depend on
// it. Collisions are tolerable (matches re-verifies), so 64-bit FNV-1a
// is plenty.
func poolFingerprint(db *schema.Database, sigma []deps.Dependency) uint64 {
	h := uint64(fnvOffset)
	for _, n := range db.Names() {
		h = hashString(h, n)
		s, _ := db.Scheme(n)
		h = hashAttrs(h, s.Attrs())
	}
	h = hashByte(h, 0xff)
	for _, d := range sigma {
		switch dd := d.(type) {
		case deps.FD:
			h = hashByte(h, 1)
			h = hashString(h, dd.Rel)
			h = hashAttrs(h, dd.X)
			h = hashAttrs(h, dd.Y)
		case deps.IND:
			h = hashByte(h, 2)
			h = hashString(h, dd.LRel)
			h = hashAttrs(h, dd.X)
			h = hashString(h, dd.RRel)
			h = hashAttrs(h, dd.Y)
		case deps.RD:
			h = hashByte(h, 3)
			h = hashString(h, dd.Rel)
			h = hashAttrs(h, dd.X)
			h = hashAttrs(h, dd.Y)
		default:
			h = hashByte(h, 0)
		}
	}
	return h
}
