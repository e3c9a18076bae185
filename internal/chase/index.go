// Persistent incremental indexes of the semi-naive chase engine: the
// labeled union-find over value IDs, the flat tuple arena, per-relation
// interned-key state, and the refcounted witness indexes the INDs probe.
// The invariants maintained here are what lets the fixpoint in chase.go
// and delta.go skip work:
//
//   - watch[r] contains every live tuple whose canonical key involves
//     class r, so a union knows exactly which tuples to re-key (the
//     losing side's watchers) and which relations' versions to bump;
//   - tupKey[tid] is the interned canonical key of the tuple — the
//     int32 roots of its values — current whenever the dirty queue is
//     empty (processDirty drains it before every dedup and IND pass),
//     making duplicate detection one probe;
//   - each projIndex refcounts live tuples per interned projection key,
//     so "does a witness exist" is one probe too.

package chase

import (
	"fmt"
	"slices"

	"indfd/internal/intern"
)

// relState is the per-relation index: live tuples in insertion order, the
// intern table of canonical tuple keys with live refcounts, a version
// counter bumped on any membership or key change (the FD/RD skip gate),
// and the witness indexes of the INDs whose right-hand side this relation
// is.
type relState struct {
	name     string
	width    int
	order    []int32
	keys     *intern.Table
	count    []int32
	seen     []uint32
	sweep    uint32
	version  uint64
	dupDirty bool
	watchers []*projIndex
}

// projIndex is the incremental witness index of one IND (or of an IND
// goal): a refcount of live tuples per interned projection key of the
// indexed relation, plus each tuple's current contribution so re-keying
// and removal can decrement the right slot.
type projIndex struct {
	pos     []int
	keys    *intern.Table
	count   []int32
	contrib []int32 // per tuple ID: interned key, or -1
}

// ensure extends contrib to cover tuple ID tid in one step, marking the
// new slots -1; slices.Grow keeps append's amortized growth.
func (pi *projIndex) ensure(tid int32) {
	n := len(pi.contrib)
	if int(tid) < n {
		return
	}
	pi.contrib = slices.Grow(pi.contrib, int(tid)+1-n)[:tid+1]
	for i := n; i <= int(tid); i++ {
		pi.contrib[i] = -1
	}
}

// add records a newly inserted tuple of the indexed relation.
func (pi *projIndex) add(e *engine, tid int32, t []int32) {
	kid, fresh := pi.keys.Intern(e.projKey(t, pi.pos))
	if fresh {
		pi.count = append(pi.count, 0)
	}
	pi.count[kid]++
	pi.ensure(tid)
	pi.contrib[tid] = kid
}

// rekey moves a tuple's contribution after its classes merged.
func (pi *projIndex) rekey(e *engine, tid int32, t []int32) {
	kid, fresh := pi.keys.Intern(e.projKey(t, pi.pos))
	if fresh {
		pi.count = append(pi.count, 0)
	}
	old := pi.contrib[tid]
	if kid == old {
		return
	}
	pi.count[old]--
	pi.count[kid]++
	pi.contrib[tid] = kid
}

// remove drops a tuple deleted by dedup.
func (pi *projIndex) remove(tid int32) {
	pi.count[pi.contrib[tid]]--
	pi.contrib[tid] = -1
}

// reset rewinds the index to empty while keeping its backing
// allocations warm (pool reuse). The keys take the width of pos, which
// an IND goal's index sets anew for every run.
func (pi *projIndex) reset() {
	pi.keys.ResetWidth(len(pi.pos))
	pi.count = pi.count[:0]
	pi.contrib = pi.contrib[:0]
}

// witnessed reports whether some live indexed tuple's projection equals
// t's projection at pos. Sound whenever the dirty queue is drained: all
// keys then reflect current roots, so key equality is canonical equality.
func (pi *projIndex) witnessed(e *engine, t []int32, pos []int) bool {
	kid, ok := pi.keys.Lookup(e.projKey(t, pos))
	return ok && pi.count[kid] > 0
}

// rootsKey assembles the canonical key of a whole tuple, the roots of
// its values, in the engine's scratch key; it is valid until the next
// key is assembled.
func (e *engine) rootsKey(t []int32) []int32 {
	k := e.key[:0]
	for _, v := range t {
		k = append(k, e.find(v))
	}
	e.key = k
	return k
}

// projKey assembles the canonical key of a tuple's projection at pos.
func (e *engine) projKey(t []int32, pos []int) []int32 {
	k := e.key[:0]
	for _, p := range pos {
		k = append(k, e.find(t[p]))
	}
	e.key = k
	return k
}

// labelProjKey is projKey through class labels: the representatives the
// reference engine's projKey encodes. FD grouping uses it because
// grouping happens mid-pass, across root changes, and so observably
// depends on the representative choice.
func (e *engine) labelProjKey(t []int32, pos []int) []int32 {
	k := e.key[:0]
	for _, p := range pos {
		k = append(k, e.label[e.find(t[p])])
	}
	e.key = k
	return k
}

func (e *engine) newValue(name string) int32 {
	id := int32(len(e.parent))
	e.parent = append(e.parent, id)
	e.label = append(e.label, id)
	e.name = append(e.name, name)
	// Reuse a watch-list slot left behind by a pool reset when one
	// exists (the inner slice keeps its capacity), so a warm pooled
	// run's inserts allocate nothing.
	if n := len(e.watch); n < cap(e.watch) {
		e.watch = e.watch[:n+1]
		e.watch[n] = e.watch[n][:0]
	} else {
		e.watch = append(e.watch, nil)
	}
	return id
}

func (e *engine) newNull() int32 { return e.newValue("") }

func (e *engine) newConst(name string) int32 {
	if id, ok := e.consts[name]; ok {
		return id
	}
	id := e.newValue(name)
	e.consts[name] = id
	return id
}

func (e *engine) find(x int32) int32 {
	for e.parent[x] != x {
		e.parent[x] = e.parent[e.parent[x]]
		x = e.parent[x]
	}
	return x
}

// equal reports canonical equality.
func (e *engine) equal(a, b int32) bool { return e.find(a) == e.find(b) }

// union merges the classes of a and b. Merging two distinct constants is a
// hard contradiction (sigma plus the seed is unsatisfiable over distinct
// constants) and reported as an error.
//
// Structurally the side with fewer tuple references loses (so each tuple
// is re-keyed O(log n) times over a run), but the class label follows the
// reference engine's rule — the first argument's representative wins
// unless only the second is a constant — because labels are what trace
// lines and exports print. The losing side's watchers go on the dirty
// queue and their relations' versions are bumped.
func (e *engine) union(a, b int32) (changed bool, err error) {
	ra, rb := e.find(a), e.find(b)
	if ra == rb {
		return false, nil
	}
	la, lb := e.label[ra], e.label[rb]
	na, nb := e.name[la], e.name[lb]
	if na != "" && nb != "" && na != nb {
		return false, fmt.Errorf("chase: contradiction: constants %q and %q equated", na, nb)
	}
	winner := la
	if na == "" && nb != "" {
		winner = lb
	}
	if len(e.watch[ra]) < len(e.watch[rb]) {
		ra, rb = rb, ra
	}
	e.parent[rb] = ra
	e.label[ra] = winner
	for _, tid := range e.watch[rb] {
		e.markDirty(tid)
	}
	e.watch[ra] = append(e.watch[ra], e.watch[rb]...)
	// Truncate (not nil) the loser's list: rb is no longer a root so the
	// contents are dead, but the backing array stays warm for the slot's
	// next life after a pool reset.
	e.watch[rb] = e.watch[rb][:0]
	e.n.unions++
	return true, nil
}

// markDirty queues a live tuple for re-keying and bumps its relation's
// version (invalidating FD/RD clean-scan records).
func (e *engine) markDirty(tid int32) {
	if e.tupDead[tid] {
		return
	}
	e.rels[e.tupRel[tid]].version++
	if !e.inDirty[tid] {
		e.inDirty[tid] = true
		e.dirty = append(e.dirty, tid)
	}
}

// tupleVals returns the value IDs of a tuple (a view into the arena).
func (e *engine) tupleVals(tid int32) []int32 {
	off := e.tupOff[tid]
	return e.vals[off : off+int32(e.rels[e.tupRel[tid]].width)]
}

// insert adds a tuple of value IDs to the relation if no canonically-equal
// tuple is already present — one interned-key probe, not a linear rescan.
// It enforces the tuple budget (probing first, like the reference: a
// duplicate at the budget boundary is a no-op, not an exhaustion; at the
// budget the probe is a Lookup, so the failed insert mints no key). The
// new tuple is registered with the class watch lists and every witness
// index on the relation.
func (e *engine) insert(ri int32, t []int32) (added bool, err error) {
	rs := &e.rels[ri]
	key := e.rootsKey(t)
	if e.tuples >= e.max {
		if kid, ok := rs.keys.Lookup(key); ok && rs.count[kid] > 0 {
			return false, nil
		}
		return false, errBudget
	}
	kid, fresh := rs.keys.Intern(key)
	if fresh {
		rs.count = append(rs.count, 0)
		rs.seen = append(rs.seen, 0)
	} else if rs.count[kid] > 0 {
		return false, nil
	}
	tid := int32(len(e.tupOff))
	e.tupOff = append(e.tupOff, int32(len(e.vals)))
	e.vals = append(e.vals, t...)
	e.tupRel = append(e.tupRel, ri)
	e.tupKey = append(e.tupKey, kid)
	e.tupDead = append(e.tupDead, false)
	e.inDirty = append(e.inDirty, false)
	rs.count[kid]++
	rs.order = append(rs.order, tid)
	rs.version++
	e.tuples++
	e.n.tuples++
	e.n.peak = max(e.n.peak, e.tuples)
	tv := e.tupleVals(tid)
	for _, v := range tv {
		r := e.find(v)
		e.watch[r] = append(e.watch[r], tid)
	}
	for _, pi := range rs.watchers {
		pi.add(e, tid, tv)
	}
	if e.cap.on {
		e.cap.inserted(tid)
	}
	return true, nil
}
