// The delta machinery of the semi-naive chase: draining the dirty queue
// (re-keying exactly the tuples whose classes merged), deduplication
// folded into index maintenance (only relations a re-key flagged are
// swept), and the delta-driven IND pass (only tuples added since an IND's
// last completed scan are examined, justified by witness monotonicity).

package chase

import "sort"

// processDirty re-keys every tuple queued by unions since the last drain:
// its canonical tuple key moves to the interned key of its current roots
// (flagging the relation for dedup when two live tuples collide), and
// every witness index on its relation is updated. After a drain all
// persistent keys reflect current roots, which is what makes insert's
// duplicate probe and the witness probes canonical-equality tests.
func (e *engine) processDirty() {
	for _, tid := range e.dirty {
		e.inDirty[tid] = false
		if e.tupDead[tid] {
			continue
		}
		rs := &e.rels[e.tupRel[tid]]
		t := e.tupleVals(tid)
		kid, fresh := rs.keys.Intern(e.rootsKey(t))
		if fresh {
			rs.count = append(rs.count, 0)
			rs.seen = append(rs.seen, 0)
		}
		if old := e.tupKey[tid]; kid != old {
			rs.count[old]--
			rs.count[kid]++
			e.tupKey[tid] = kid
			if rs.count[kid] > 1 {
				rs.dupDirty = true
			}
		}
		for _, pi := range rs.watchers {
			pi.rekey(e, tid, t)
		}
		e.n.rekeyed++
	}
	e.dirty = e.dirty[:0]
}

// dedup removes canonically duplicate tuples created by unions, keeping
// the first occurrence — but only in relations where a re-key actually
// produced a key collision (insert itself can never create a duplicate:
// it probes first). Removed tuples are unregistered from the witness
// indexes and the live count.
func (e *engine) dedup() {
	e.processDirty()
	for ri := range e.rels {
		rs := &e.rels[ri]
		if !rs.dupDirty {
			continue
		}
		rs.dupDirty = false
		rs.sweep++
		out := rs.order[:0]
		for _, tid := range rs.order {
			kid := e.tupKey[tid]
			if rs.seen[kid] == rs.sweep {
				e.tupDead[tid] = true
				rs.count[kid]--
				e.tuples--
				rs.version++
				for _, pi := range rs.watchers {
					pi.remove(tid)
				}
				continue
			}
			rs.seen[kid] = rs.sweep
			out = append(out, tid)
		}
		rs.order = out
	}
}

// applyINDs fires every IND once: for each left tuple with no witness on
// the right, a new right tuple is created with fresh nulls outside the
// target columns.
//
// Only the delta is scanned. Witnesses are monotone — unions only merge
// classes, so canonically-equal projections stay equal, and dedup removes
// a tuple only when a canonically-equal one survives — so once a left
// tuple has a witness it has one forever. After a completed scan every
// left tuple up to the snapshot end is witnessed (either it had a witness
// or this IND created one), so the next scan starts past maxSeen. Tuple
// IDs increase along the insertion order, making the delta a suffix.
func (e *engine) applyINDs() (changed bool, err error) {
	for i := range e.inds {
		is := &e.inds[i]
		lrel := &e.rels[is.lri]
		// Snapshot the order slice header: tuples this pass appends (when
		// LRel == RRel) are handled in the next round, as in the reference.
		order := lrel.order
		start := 0
		if is.maxSeen >= 0 {
			start = sort.Search(len(order), func(k int) bool { return order[k] > is.maxSeen })
		}
		clock := e.cap.clock()
		for k := start; k < len(order); k++ {
			tid := order[k]
			t := e.tupleVals(tid)
			e.n.delta++
			if is.pi.witnessed(e, t, is.xs) {
				continue
			}
			added, err := e.fireIND(i, tid, t)
			if err != nil {
				return changed, err
			}
			if added {
				changed = true
			}
		}
		if e.cap.on {
			e.cap.region(is.at, len(order)-start, e.cap.since(clock))
		}
		if len(order) > start {
			is.maxSeen = order[len(order)-1]
		}
	}
	return changed, nil
}

// fireIND applies IND i to the unwitnessed left tuple tid (values t):
// it builds the new right tuple with fresh nulls outside the target
// columns and inserts it, capturing the firing and counting it exactly
// as the reference engine would. The caller has already established
// that tid has no witness.
func (e *engine) fireIND(i int, tid int32, t []int32) (added bool, err error) {
	is := &e.inds[i]
	width := e.rels[is.rri].width
	u := e.tmp
	if cap(u) < width {
		u = make([]int32, width)
	}
	u = u[:width]
	e.tmp = u
	for j := range u {
		u[j] = -1
	}
	for j := range is.ys {
		u[is.ys[j]] = t[is.xs[j]]
	}
	for j := range u {
		if u[j] == -1 {
			u[j] = e.newNull()
		}
	}
	added, err = e.insert(is.rri, u)
	if err != nil {
		return false, err
	}
	if added {
		e.n.indAdds++
		if e.cap.on {
			e.noteIND(i, tid, t, u)
		}
	}
	return added, nil
}
