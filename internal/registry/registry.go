// Package registry is depserve's named-schema store: a versioned,
// concurrency-safe map from schema names to compiled implication
// systems. Clients that pose many goals against one dependency set —
// an optimizer validating rewrites, a discovery pipeline checking
// candidate dependencies — register the (schema, Σ) pair once and
// reference it by name afterwards, so the per-request cost drops to a
// map lookup plus the goals' own parse. Register publishes a
// core.System its caller compiled (depserve compiles request fields
// through the same memo its inline requests use); Put parses and
// compiles a .dep document first.
//
// Entries are immutable after publication. A registration builds a
// complete new Entry — the compiled system, its canonical Σ and member
// keys — and swaps it in under the write lock; readers that already
// hold the old Entry keep using it unharmed, and readers that look up
// after the swap see the new one. No request can ever observe a torn
// Σ: the version and the dependency set travel together inside one
// pointer.
//
// The registry owns the process's one chase.EnginePool. Every entry
// points to it, and depserve answers inline requests from it too: the
// pool is keyed by the chase shape, not by the name, so the engines of
// a component an edit left unchanged stay warm across the edit.
//
// Versions are per name, start at 1, bump on every registration, and
// survive Delete (the counter lives outside the entry map), so a version
// number uniquely identifies one Σ that existed — the property the
// concurrency hammer asserts.
package registry

import (
	"fmt"
	"sort"
	"sync"

	"indfd/internal/chase"
	"indfd/internal/core"
	"indfd/internal/deps"
	"indfd/internal/fd"
	"indfd/internal/obs"
	"indfd/internal/parser"
	"indfd/internal/schema"
)

// Entry is one published version of a named schema: everything a
// request needs, pre-computed. Treat it as read-only.
type Entry struct {
	// Name and Version identify the publication; Version bumps on every
	// registration of the same name and survives Delete/re-registration.
	Name    string
	Version int64
	// DB and Sigma are the parsed schema and the canonicalized Σ
	// (deduplicated, insertion order), shared with Sys.
	DB    *schema.Database
	Sigma []deps.Dependency
	// Members is the set of Σ members' canonical Keys — the per-member
	// fingerprints the answer cache's invalidation tags and the algebra
	// endpoint work with.
	Members map[string]struct{}
	// Sys is the ready implication system over DB and Sigma.
	Sys *core.System
	// Pool is the registry's one chase engine pool, the same for every
	// entry (see Registry.Pool).
	Pool *chase.EnginePool
}

// Registry is the concurrency-safe store. Use New.
type Registry struct {
	mu       sync.RWMutex
	entries  map[string]*Entry
	versions map[string]int64 // survives Delete: versions never repeat
	pool     *chase.EnginePool

	puts    *obs.Counter // registry.puts: successful registrations
	deletes *obs.Counter // registry.deletes: successful removals
	hits    *obs.Counter // registry.hits: Get found the name
	misses  *obs.Counter // registry.misses: Get found nothing
	schemas *obs.Gauge   // registry.schemas: live entry count
}

// New returns an empty registry reporting registry.* metrics to reg
// (nil = uncounted), and its engine pool's pool.* metrics too.
func New(reg *obs.Registry) *Registry {
	return &Registry{
		entries:  make(map[string]*Entry),
		versions: make(map[string]int64),
		pool:     chase.NewEnginePool(reg),
		puts:     reg.Counter("registry.puts"),
		deletes:  reg.Counter("registry.deletes"),
		hits:     reg.Counter("registry.hits"),
		misses:   reg.Counter("registry.misses"),
		schemas:  reg.Gauge("registry.schemas"),
	}
}

// Pool returns the chase engine pool every entry shares.
func (r *Registry) Pool() *chase.EnginePool { return r.pool }

// Put registers a .dep document — scheme declarations and Σ, no query
// lines — under name: a document parse and a compile in front of
// Register. Query lines are rejected (a registered schema is a
// declaration, goals arrive per request), and so are template
// dependencies.
func (r *Registry) Put(name, source string) (*Entry, []string, error) {
	f, err := parser.ParseString(source)
	if err != nil {
		return nil, nil, err
	}
	if len(f.Queries) > 0 || len(f.TDQueries) > 0 {
		return nil, nil, fmt.Errorf("registry: schema document must not contain query lines (goals are per request)")
	}
	if len(f.TDs) > 0 {
		return nil, nil, fmt.Errorf("registry: template dependencies are not supported in registered schemas")
	}
	sys := core.NewSystem(f.DB)
	if err := sys.Add(f.Sigma...); err != nil {
		return nil, nil, err
	}
	return r.Register(name, sys)
}

// Register publishes a compiled system under name, bumping the name's
// version. The system must not change afterwards; one system may back
// any number of entries and inline requests. Register returns the
// published entry plus the canonical keys of the members that CHANGED
// relative to the previous version (symmetric difference; everything
// on a fresh name, everything removed plus everything added on an
// edit) — exactly the set whose cached answers the caller must
// invalidate.
func (r *Registry) Register(name string, sys *core.System) (*Entry, []string, error) {
	if name == "" {
		return nil, nil, fmt.Errorf("registry: empty schema name")
	}
	canon := sys.Sigma()
	members := make(map[string]struct{}, len(canon))
	for _, d := range canon {
		members[d.Key()] = struct{}{}
	}
	e := &Entry{Name: name, DB: sys.DB(), Sigma: canon, Members: members, Sys: sys, Pool: r.pool}
	r.mu.Lock()
	prev := r.entries[name]
	r.versions[name]++
	e.Version = r.versions[name]
	r.entries[name] = e
	n := len(r.entries)
	r.mu.Unlock()
	r.puts.Inc()
	r.schemas.Set(int64(n))
	return e, memberDiff(prev, e), nil
}

// Get returns the current entry for name.
func (r *Registry) Get(name string) (*Entry, bool) {
	r.mu.RLock()
	e, ok := r.entries[name]
	r.mu.RUnlock()
	if ok {
		r.hits.Inc()
	} else {
		r.misses.Inc()
	}
	return e, ok
}

// Delete removes name, returning the removed entry (whose member keys
// the caller invalidates) and whether it existed. The name's version
// counter is retained: a later re-Put continues the sequence.
func (r *Registry) Delete(name string) (*Entry, bool) {
	r.mu.Lock()
	e, ok := r.entries[name]
	if ok {
		delete(r.entries, name)
	}
	n := len(r.entries)
	r.mu.Unlock()
	if ok {
		r.deletes.Inc()
		r.schemas.Set(int64(n))
	}
	return e, ok
}

// List returns the live entries sorted by name.
func (r *Registry) List() []*Entry {
	r.mu.RLock()
	out := make([]*Entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// memberDiff is the symmetric difference of two versions' member key
// sets, sorted. prev == nil means a fresh name: every member changed.
func memberDiff(prev, next *Entry) []string {
	changed := make(map[string]struct{})
	if prev != nil {
		for k := range prev.Members {
			if _, ok := next.Members[k]; !ok {
				changed[k] = struct{}{}
			}
		}
	}
	for k := range next.Members {
		if prev == nil {
			changed[k] = struct{}{}
			continue
		}
		if _, ok := prev.Members[k]; !ok {
			changed[k] = struct{}{}
		}
	}
	out := make([]string, 0, len(changed))
	for k := range changed {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Algebra ops over registered Σ sets (the registry's first derived
// workload): union and intersection of two named sets, and the minimal
// cover of one set's FDs. Results are returned as dependencies, not
// registered — the caller decides whether to Put them under a new name.

// Union returns the canonical union of the two entries' Σ sets; both
// must be over the same schema (relation-by-relation equal schemes).
func Union(a, b *Entry) ([]deps.Dependency, error) {
	if err := sameSchema(a, b); err != nil {
		return nil, err
	}
	s := deps.NewSet(a.Sigma...)
	s.Add(b.Sigma...)
	return s.All(), nil
}

// Intersect returns the members present in both entries' Σ sets (by
// canonical key); both must be over the same schema.
func Intersect(a, b *Entry) ([]deps.Dependency, error) {
	if err := sameSchema(a, b); err != nil {
		return nil, err
	}
	var out []deps.Dependency
	for _, d := range a.Sigma {
		if _, ok := b.Members[d.Key()]; ok {
			out = append(out, d)
		}
	}
	return out, nil
}

// MinimalCover returns the entry's Σ with its FD fragment replaced by a
// minimal cover (right-reduced, left-reduced, no redundant FD — the
// classical construction in internal/fd); INDs and RDs pass through
// unchanged, in order, after the cover.
func MinimalCover(a *Entry) []deps.Dependency {
	set := deps.NewSet(a.Sigma...)
	cover := fd.MinimalCover(set.FDs())
	out := make([]deps.Dependency, 0, len(a.Sigma))
	for _, d := range cover {
		out = append(out, d)
	}
	for _, d := range a.Sigma {
		if d.Kind() != deps.KindFD {
			out = append(out, d)
		}
	}
	return out
}

func sameSchema(a, b *Entry) error {
	an, bn := a.DB.Names(), b.DB.Names()
	if len(an) != len(bn) {
		return fmt.Errorf("registry: %s and %s are over different schemas", a.Name, b.Name)
	}
	for i, n := range an {
		if bn[i] != n {
			return fmt.Errorf("registry: %s and %s are over different schemas", a.Name, b.Name)
		}
		sa, _ := a.DB.Scheme(n)
		sb, _ := b.DB.Scheme(n)
		if !schema.EqualSeq(sa.Attrs(), sb.Attrs()) {
			return fmt.Errorf("registry: %s and %s disagree on scheme %s", a.Name, b.Name, n)
		}
	}
	return nil
}
