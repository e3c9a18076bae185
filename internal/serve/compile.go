// The compiled-system memo. Inline /v1/implies, /v1/explain and
// /v1/batch requests repeat their schema and Σ far more often than they
// change them, and parsing and compiling the fields (parseSchemaSigma,
// core.NewSystem, Add) costs more than many answers do. The memo maps a
// request's raw schema and sigma fields to the compiled *core.System,
// so a repeat skips all three. Goals are not memoized: prepare parses
// every goal and validates it against the system's scheme on every
// request. A compiled System is immutable after Add and already shared
// across goroutines (registry entries, batch workers), so one memoized
// System serves any number of concurrent requests.
package serve

import (
	"container/list"
	"fmt"
	"strconv"
	"strings"
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

// compileMemo is a concurrency-safe LRU of compiled inline systems,
// keyed by the request's raw schema and sigma text. prepare stores a
// system only once its whole request proved valid, so a body that gets
// a 400 is parsed again on every request and never retained. A nil
// *compileMemo is the memo switched off: get always misses without
// counting, put stores nothing.
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

// get looks up a request's inline schema and sigma fields. It returns
// the memo key and the system an earlier request compiled from the same
// text, or nil, and counts the hit or miss. On a nil memo it returns
// ("", nil) and counts nothing.
func (m *compileMemo) get(schemaLines, sigma []string) (string, *core.System) {
	if m == nil {
		return "", nil
	}
	key := memoKey(schemaLines, sigma)
	var sys *core.System
	m.mu.Lock()
	if el, ok := m.entries[key]; ok {
		m.lru.MoveToFront(el)
		sys = el.Value.(*memoEntry).sys
	}
	m.mu.Unlock()
	if sys == nil {
		m.misses.Inc()
	} else {
		m.hits.Inc()
	}
	return key, sys
}

// put stores a compiled system under key and evicts least recently used
// systems until both bounds hold. A key longer than the text bound is
// not stored at all, and a nil memo stores nothing.
func (m *compileMemo) put(key string, sys *core.System) {
	if m == nil || len(key) > memoMaxKeyBytes {
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

// memoKey encodes the two fields injectively: each field's entry count,
// then every entry behind its byte length. Joining entries with a
// separator would not be injective: ["R: A -> B\nR: B -> C"], one entry
// with a line break (a 400), would share the key of its valid twin
// ["R: A -> B", "R: B -> C"].
func memoKey(schemaLines, sigma []string) string {
	size := 0
	for _, field := range [2][]string{schemaLines, sigma} {
		size += 8
		for _, e := range field {
			size += 8 + len(e)
		}
	}
	var b strings.Builder
	b.Grow(size)
	var num [20]byte
	for _, field := range [2][]string{schemaLines, sigma} {
		b.Write(strconv.AppendInt(num[:0], int64(len(field)), 10))
		b.WriteByte(';')
		for _, e := range field {
			b.Write(strconv.AppendInt(num[:0], int64(len(e)), 10))
			b.WriteByte(':')
			b.WriteString(e)
		}
	}
	return b.String()
}

// compileInline parses a request's inline schema and sigma fields and
// compiles them into a System.
func compileInline(schemaLines, sigma []string) (*core.System, error) {
	db, members, err := parseSchemaSigma(schemaLines, sigma)
	if err != nil {
		return nil, err
	}
	sys := core.NewSystem(db)
	if err := sys.Add(members...); err != nil {
		return nil, fmt.Errorf("sigma: %w", err)
	}
	return sys, nil
}
