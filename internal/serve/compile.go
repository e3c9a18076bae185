// The compiled-system memo. Requests repeat their schema and Σ far more
// often than they change them, and decoding, parsing and compiling the
// fields (decodeEntries, parseSchemaSigma, core.NewSystem, Add) costs
// more than many answers do. The memo maps a request's schema and sigma
// fields, as the raw JSON bytes it sent, to the compiled *core.System,
// so a repeat skips all four, whether it is an inline /v1/implies,
// /v1/explain or /v1/batch request or a PUT /v1/schemas/{name}
// (compile.hits counts both): a compiled Σ is the same object whether a
// request inlines it or names it. Equal bytes decode to equal fields,
// so a hit is exact; a body that spells the same fields differently
// (other whitespace, other escapes) is a miss and compiles a system of
// its own. Goals are not memoized: prepare parses every goal and
// validates it against the system's scheme on every request. A compiled
// System is immutable after Add and already shared across goroutines,
// so one memoized System serves any number of requests.
package serve

import (
	"container/list"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"indfd/internal/core"
	"indfd/internal/obs"
)

// The memo's bounds. A compiled System is 24–35× the size of its
// request text, so on small Σ the count bounds the memo's heap, and on
// large ones the key text does: 512 KiB of text is roughly 12–18 MiB of
// compiled systems.
const (
	memoMaxSystems  = 256
	memoMaxKeyBytes = 512 << 10
)

// compileMemo is a concurrency-safe LRU of compiled systems, keyed by
// the request's raw schema and sigma bytes. A system is stored only once
// its whole request proved valid, so a body that gets a 400 is parsed
// again on every request and never retained. A nil *compileMemo is the
// memo switched off: compile compiles every time without counting, put
// stores nothing.
type compileMemo struct {
	mu       sync.Mutex
	entries  map[string]*list.Element
	lru      *list.List // of *memoEntry; front = most recently used
	keyBytes int        // total len(key) over the retained entries

	hits      *obs.Counter // compile.hits: requests served a memoized system
	misses    *obs.Counter // compile.misses: requests that parsed and compiled
	evictions *obs.Counter // compile.evictions: systems dropped by the bounds
}

type memoEntry struct {
	key string
	sys *core.System
}

// newCompileMemo returns an empty memo reporting compile.hits, misses
// and evictions to reg.
func newCompileMemo(reg *obs.Registry) *compileMemo {
	return &compileMemo{
		entries:   make(map[string]*list.Element),
		lru:       list.New(),
		hits:      reg.Counter("compile.hits"),
		misses:    reg.Counter("compile.misses"),
		evictions: reg.Counter("compile.evictions"),
	}
}

// compile returns the system for a request's raw schema and sigma
// fields and counts the lookup: on a hit, the system an earlier request
// compiled from the same bytes and an empty key; on a miss, a fresh
// compile and the key to put it under once its whole request proved
// valid. A nil memo returns every fresh compile with an empty key.
func (m *compileMemo) compile(schemaRaw, sigmaRaw json.RawMessage) (*core.System, string, error) {
	var key string
	if m != nil {
		// The lookup builds its key on the stack; only a miss, whose key
		// may be retained, copies it into a string.
		var small [1 << 10]byte
		kb := appendMemoKey(small[:0], schemaRaw, sigmaRaw)
		var sys *core.System
		m.mu.Lock()
		if el, ok := m.entries[string(kb)]; ok {
			m.lru.MoveToFront(el)
			sys = el.Value.(*memoEntry).sys
		}
		m.mu.Unlock()
		if sys != nil {
			m.hits.Inc()
			return sys, "", nil
		}
		m.misses.Inc()
		key = string(kb)
	}
	schemaLines, err := decodeEntries("schema", schemaRaw)
	if err != nil {
		return nil, "", err
	}
	sigma, err := decodeEntries("sigma", sigmaRaw)
	if err != nil {
		return nil, "", err
	}
	db, members, err := parseSchemaSigma(schemaLines, sigma)
	if err != nil {
		return nil, "", err
	}
	sys := core.NewSystem(db)
	if err := sys.Add(members...); err != nil {
		return nil, "", fmt.Errorf("sigma: %w", err)
	}
	return sys, key, nil
}

// put stores a fresh system under the key compile returned with it and
// evicts least recently used systems until both bounds hold. An empty
// key (a hit, or the memo off) and a key longer than the text bound
// store nothing.
func (m *compileMemo) put(key string, sys *core.System) {
	if key == "" || len(key) > memoMaxKeyBytes {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[key]; ok {
		// A concurrent miss on the same text stored its system first.
		return
	}
	m.entries[key] = m.lru.PushFront(&memoEntry{key: key, sys: sys})
	m.keyBytes += len(key)
	for m.lru.Len() > memoMaxSystems || m.keyBytes > memoMaxKeyBytes {
		e := m.lru.Remove(m.lru.Back()).(*memoEntry)
		delete(m.entries, e.key)
		m.keyBytes -= len(e.key)
		m.evictions.Inc()
	}
}

// len reports the number of retained systems.
func (m *compileMemo) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lru.Len()
}

// appendMemoKey encodes the two raw fields injectively: the schema
// field's byte length, a colon, its bytes, then the sigma field's
// bytes. The length fixes where one field ends, so no two pairs of
// fields share a key.
func appendMemoKey(dst []byte, schemaRaw, sigmaRaw json.RawMessage) []byte {
	dst = strconv.AppendInt(dst, int64(len(schemaRaw)), 10)
	dst = append(dst, ':')
	dst = append(dst, schemaRaw...)
	return append(dst, sigmaRaw...)
}
