// Interned expressions for the Corollary 3.2 frontier.
//
// The decision procedure's inner loop generates one successor expression
// per (frontier node, applicable IND) pair, and Theorem 3.3 says the
// number of such pairs can grow exponentially. The naive implementation
// paid three to five heap allocations per generated successor (a
// projection map, an attribute slice, and the string key built from
// them) even when the successor had already been visited. This file
// removes the per-successor cost:
//
//   - each Decide call numbers the relations and attributes of sigma and
//     the goal once, so an expression S[X] becomes the int32 tuple
//     (ID of S, IDs of X); every expression of one call has len(goal.X)
//     attributes, so the tuples have one fixed width;
//   - the shared internal/intern.Table maps those tuples to dense node
//     IDs: the visited set is the table, and node i's expression is the
//     table's key i, so a node carries no attribute slice at all;
//   - successors are assembled into one reusable scratch tuple, so a
//     duplicate successor allocates nothing and a fresh one only grows
//     the table's arena;
//   - each member of Σ is precompiled into an applier carrying the IDs of
//     both its sides and a 64-bit mask of its left-hand attribute IDs, so
//     most inapplicable INDs are rejected with one AND.
package ind

import (
	"indfd/internal/deps"
	"indfd/internal/schema"
)

// idMask is the mask of a sequence of attribute IDs: bit id mod 64 of
// each. With at most 64 attributes in a call the masks are exact.
func idMask(ids []int32) uint64 {
	var m uint64
	for _, id := range ids {
		m |= 1 << (uint32(id) & 63)
	}
	return m
}

// applier is a member of Σ compiled for repeated application: the IND
// itself, its position in sigma (for proof reconstruction), the ID of
// its right-hand relation, the attribute IDs of its two sides, and the
// mask of its left-hand side. An expression E applies under the IND iff
// every attribute of E occurs in d.X; mask(E) &^ mask is a
// one-instruction necessary test for that.
type applier struct {
	d    deps.IND
	si   int
	rrel int32
	x, y []int32
	mask uint64
}

// compiled is sigma compiled for one Decide call: the appliers grouped
// by left-hand relation ID, each group in sigma order, and the start and
// target expressions as keys.
type compiled struct {
	appliers []applier
	groups   []int32 // appliers of relation r: appliers[groups[r]:groups[r+1]]
	start    []int32
	target   []int32
}

// compileSigma numbers the relations and attributes of goal and sigma
// and compiles sigma into appliers. Every ID slice it builds shares one
// arena.
func compileSigma(sigma []deps.IND, goal deps.IND) compiled {
	rels := make(map[string]int32)
	attrs := make(map[schema.Attribute]int32)
	relID := func(name string) int32 {
		id, ok := rels[name]
		if !ok {
			id = int32(len(rels))
			rels[name] = id
		}
		return id
	}
	n := 2 + len(goal.X) + len(goal.Y)
	for _, d := range sigma {
		n += len(d.X) + len(d.Y)
		relID(d.LRel)
		relID(d.RRel)
	}
	arena := make([]int32, 0, n)
	// ids appends the IDs of as to the arena and returns them.
	ids := func(as []schema.Attribute) []int32 {
		at := len(arena)
		for _, a := range as {
			id, ok := attrs[a]
			if !ok {
				id = int32(len(attrs))
				attrs[a] = id
			}
			arena = append(arena, id)
		}
		return arena[at:len(arena):len(arena)]
	}
	// key appends and returns the key of the expression rel[as].
	key := func(rel string, as []schema.Attribute) []int32 {
		at := len(arena)
		arena = append(arena, relID(rel))
		ids(as)
		return arena[at:len(arena):len(arena)]
	}
	start, target := key(goal.LRel, goal.X), key(goal.RRel, goal.Y)
	f := compiled{
		appliers: make([]applier, len(sigma)),
		groups:   make([]int32, len(rels)+1),
		start:    start,
		target:   target,
	}
	// A stable counting sort by left-hand relation: groups[r] counts
	// relation r-1, then holds where relation r starts, then serves as
	// relation r's cursor, which leaves it where relation r+1 starts.
	for _, d := range sigma {
		f.groups[rels[d.LRel]+1]++
	}
	for r := 1; r < len(f.groups); r++ {
		f.groups[r] += f.groups[r-1]
	}
	for i, d := range sigma {
		r := rels[d.LRel]
		x := ids(d.X)
		f.appliers[f.groups[r]] = applier{d: d, si: i, rrel: rels[d.RRel], x: x, y: ids(d.Y), mask: idMask(x)}
		f.groups[r]++
	}
	copy(f.groups[1:], f.groups[:len(rels)])
	f.groups[0] = 0
	return f
}

// of returns the appliers whose left-hand relation has the given ID.
func (f *compiled) of(rel int32) []applier {
	return f.appliers[f.groups[rel]:f.groups[rel+1]]
}

// pos returns the position in d.X of the attribute with the given ID, or
// -1. When an attribute occurs twice in d.X the last occurrence counts,
// as in apply.
func (a *applier) pos(id int32) int {
	for j := len(a.x) - 1; j >= 0; j-- {
		if a.x[j] == id {
			return j
		}
	}
	return -1
}

// succ writes into dst the key of the successor of the expression with
// key cur, and reports whether the IND applies: false when some
// attribute does not occur on the IND's left-hand side (the apply
// precondition of IND2). dst and cur have the same length.
func (a *applier) succ(dst, cur []int32) bool {
	dst[0] = a.rrel
	for i, id := range cur[1:] {
		j := a.pos(id)
		if j < 0 {
			return false
		}
		dst[1+i] = a.y[j]
	}
	return true
}

// succAttrs materializes the attribute names of the successor of the
// expression with key cur; the chain reconstruction calls it once per
// step of the chain it returns.
func (a *applier) succAttrs(cur []int32) []schema.Attribute {
	out := make([]schema.Attribute, len(cur)-1)
	for i, id := range cur[1:] {
		out[i] = a.d.Y[a.pos(id)]
	}
	return out
}
