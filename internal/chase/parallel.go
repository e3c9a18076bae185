// Sharded delta passes. The semi-naive engine's two scan families — the
// FD/RD fixpoint passes and the IND delta passes — are embarrassingly
// read-heavy: almost every scanned tuple fires nothing. This file
// splits each pass into a speculative probe phase that workers run
// concurrently against the frozen pass-start state, followed by a
// single-threaded merge that applies firings in exactly the sequential
// engine's order:
//
//   - FD/RD probes scan one dependency each (the compile-order region
//     partition) with a read-only union-find walk (findRO) and report
//     only "this scan would fire something". The merge then walks the
//     dependencies in compile order: a probe that saw nothing AND whose
//     relation version is unchanged is adopted — sound because an
//     unchanged version means unchanged membership, partition, and
//     labels, so the sequential scan would also have fired nothing and
//     left no observable state — while anything else is re-scanned
//     sequentially (a stale probe counts one merge conflict).
//   - IND probes split each IND's delta suffix into chunks and emit the
//     tuple IDs with no witness in the frozen index. The merge walks
//     INDs in compile order, re-probes each candidate against the live
//     index (a witness inserted earlier in the merge rejects it — one
//     merge conflict), fires accepted candidates in arena order, and
//     then scans the order extension — tuples earlier INDs appended
//     during this same merge — exactly as the sequential pass would.
//     Tuples witnessed in the frozen state need no re-probe: witnesses
//     are monotone.
//
// Fresh-null allocation, inserts, unions, traces, provenance and
// profile attribution all happen only in the merge, on one goroutine,
// in sequential order — which is the whole bit-determinism argument:
// the probe phase computes no observable state, only hints, and every
// hint is either provably equivalent to the sequential outcome or
// discarded and recomputed. Verdicts, traces, DAGs, counters and
// profiles are byte-identical at any GOMAXPROCS (differential-tested).
package chase

import (
	"sync"
	"sync/atomic"
)

const (
	taskRD uint8 = iota
	taskFD
	taskIND
)

// minINDChunk bounds how finely an IND's delta suffix is split: chunks
// below this are not worth a task handoff.
const minINDChunk = 256

// parTask is one unit of probe work. RD/FD tasks cover a whole
// dependency; IND tasks cover the chunk [lo,hi) of the dependency's
// frozen delta suffix.
type parTask struct {
	kind    uint8
	dep     int32
	version uint64  // relation version at freeze (RD/FD)
	order   []int32 // frozen order snapshot (IND)
	lo, hi  int32   // chunk bounds into order (IND)

	wouldFire bool    // RD/FD probe: a live scan would fire
	scanned   int     // RD/FD probe: tuples scanned (profile)
	cand      []int32 // IND probe: unwitnessed tuple IDs, in scan order
	ns        int64   // probe wall time (profile; nondeterministic)
}

// parJob is one probe batch handed to the workers: a task list drained
// via an atomic cursor. It is immutable after publication except for
// the cursor, the per-task result fields (each task is claimed by
// exactly one worker), and the wait group that publishes the results
// back to the merge goroutine.
type parJob struct {
	tasks []parTask
	next  atomic.Int64
	wg    sync.WaitGroup
}

// parRunner owns the engine's probe workers. Workers start lazily on
// the first sharded pass and live until release stops them, so a chase
// with hundreds of rounds pays the goroutine spawn once, not per round.
// The task slice and per-worker key buffers are reused across batches.
type parRunner struct {
	workers int
	work    chan *parJob
	exit    sync.WaitGroup
	tasks   []parTask
	bufs    [][]byte
	started bool
}

func newParRunner(workers int) *parRunner {
	return &parRunner{workers: workers, bufs: make([][]byte, workers)}
}

// addTask appends a zeroed task slot, reusing candidate-buffer capacity
// left in the backing array by earlier batches.
func (p *parRunner) addTask() *parTask {
	if n := len(p.tasks); n < cap(p.tasks) {
		p.tasks = p.tasks[:n+1]
		t := &p.tasks[n]
		cand := t.cand[:0]
		*t = parTask{cand: cand}
		return t
	}
	p.tasks = append(p.tasks, parTask{})
	return &p.tasks[len(p.tasks)-1]
}

func (p *parRunner) start(e *engine) {
	if p.started {
		return
	}
	p.work = make(chan *parJob, p.workers)
	p.exit.Add(p.workers)
	for w := 0; w < p.workers; w++ {
		go p.worker(e, w)
	}
	p.started = true
}

// stop shuts the workers down and waits for them to exit, so no probe
// goroutine can outlive the run and touch a recycled engine.
func (p *parRunner) stop() {
	if !p.started {
		return
	}
	close(p.work)
	p.exit.Wait()
	p.started = false
}

func (p *parRunner) worker(e *engine, w int) {
	defer p.exit.Done()
	for job := range p.work {
		for {
			i := job.next.Add(1) - 1
			if i >= int64(len(job.tasks)) {
				break
			}
			e.runProbeTask(&job.tasks[i], w)
			job.wg.Done()
		}
	}
}

// runBatch publishes the accumulated tasks to the workers and waits for
// every task to complete. The job allocation is per batch (one or two
// batches per round — noise next to the scans it parallelizes).
func (p *parRunner) runBatch(e *engine) {
	p.start(e)
	job := &parJob{tasks: p.tasks}
	job.wg.Add(len(job.tasks))
	// One wake token per worker. A worker that drains the batch early
	// may consume a sibling's token and no-op — the tokens bound the
	// channel, the wait group counts the tasks.
	for w := 0; w < p.workers; w++ {
		p.work <- job
	}
	job.wg.Wait()
}

func (e *engine) runProbeTask(t *parTask, w int) {
	start := e.cap.clock()
	switch t.kind {
	case taskRD:
		e.probeRD(t)
	case taskFD:
		e.probeFD(t, w)
	case taskIND:
		e.probeIND(t, w)
	}
	t.ns = e.cap.since(start)
}

// appendLabelProjKeyRO is appendLabelProjKey with the read-only find.
func (e *engine) appendLabelProjKeyRO(b []byte, t []int32, pos []int) []byte {
	for _, p := range pos {
		b = appendRoot(b, e.label[e.findRO(t[p])])
	}
	return b
}

// appendProjKeyRO is appendProjKey with the read-only find.
func (e *engine) appendProjKeyRO(b []byte, t []int32, pos []int) []byte {
	for _, p := range pos {
		b = appendRoot(b, e.findRO(t[p]))
	}
	return b
}

// probeRD reports whether a live scan of e.rds[t.dep] would fire.
func (e *engine) probeRD(t *parTask) {
	ds := &e.rds[t.dep]
	rel := &e.rels[ds.ri]
	t.scanned = len(rel.order)
	for _, tid := range rel.order {
		tv := e.tupleVals(tid)
		for j := range ds.xs {
			if e.findRO(tv[ds.xs[j]]) != e.findRO(tv[ds.ys[j]]) {
				t.wouldFire = true
				return
			}
		}
	}
}

// probeFD reports whether a live scan of e.fds[t.dep] would fire. It
// replays the exact grouping of scanFD (label keys, gen-guarded member
// lists) read-only against the frozen union-find; the per-dependency
// group state it touches belongs to this dependency alone and is
// rebuilt from scratch by the next real scan (gen bump), so a stale
// probe leaves nothing behind.
func (e *engine) probeFD(t *parTask, w int) {
	fs := &e.fds[t.dep]
	rel := &e.rels[fs.ri]
	t.scanned = len(rel.order)
	fs.gen++
	buf := e.par.bufs[w]
	for _, tid := range rel.order {
		tv := e.tupleVals(tid)
		buf = e.appendLabelProjKeyRO(buf[:0], tv, fs.xs)
		kid, fresh := fs.keys.Intern(buf)
		if fresh {
			fs.addGroup()
		}
		if fs.mgen[kid] != fs.gen {
			fs.mgen[kid] = fs.gen
			fs.members[kid] = fs.members[kid][:0]
		}
		for _, uid := range fs.members[kid] {
			uv := e.tupleVals(uid)
			for _, y := range fs.ys {
				if e.findRO(tv[y]) != e.findRO(uv[y]) {
					e.par.bufs[w] = buf
					t.wouldFire = true
					return
				}
			}
		}
		fs.members[kid] = append(fs.members[kid], tid)
	}
	e.par.bufs[w] = buf
}

// probeIND collects the chunk's tuples with no witness in the frozen
// index, in scan order. It only reads: the candidate list is a hint the
// merge re-validates against the live index.
func (e *engine) probeIND(t *parTask, w int) {
	is := &e.inds[t.dep]
	buf := e.par.bufs[w]
	for k := t.lo; k < t.hi; k++ {
		tid := t.order[k]
		tv := e.tupleVals(tid)
		buf = e.appendProjKeyRO(buf[:0], tv, is.xs)
		if kid, ok := is.pi.keys.Lookup(buf); !ok || is.pi.count[kid] <= 0 {
			t.cand = append(t.cand, tid)
		}
	}
	e.par.bufs[w] = buf
}

// fdPassPar is one sharded RD-then-FD pass. Probes run over every
// dependency whose version gate is open at pass start; the merge then
// walks all dependencies in compile order, adopting clean unchanged
// probes and sequentially re-scanning the rest. Falls back to the
// sequential pass when the open regions are too small to shard.
func (e *engine) fdPassPar() (fired bool, err error) {
	p := e.par
	p.tasks = p.tasks[:0]
	items := 0
	for i := range e.rds {
		ds := &e.rds[i]
		rel := &e.rels[ds.ri]
		if ds.cleanAt == rel.version+1 {
			continue
		}
		t := p.addTask()
		t.kind, t.dep, t.version = taskRD, int32(i), rel.version
		items += len(rel.order)
	}
	for i := range e.fds {
		fs := &e.fds[i]
		rel := &e.rels[fs.ri]
		if fs.cleanAt == rel.version+1 {
			continue
		}
		t := p.addTask()
		t.kind, t.dep, t.version = taskFD, int32(i), rel.version
		items += len(rel.order)
	}
	if items < e.parTh || len(p.tasks) < 2 {
		p.tasks = p.tasks[:0]
		return e.fdPassSeq()
	}
	e.parUsed = true
	p.runBatch(e)

	// Deterministic merge: dependencies in compile order (RDs before
	// FDs, as in fdPassSeq). Tasks were appended in the same order, so
	// a single cursor pairs them up.
	ti := 0
	for i := range e.rds {
		ds := &e.rds[i]
		rel := &e.rels[ds.ri]
		var t *parTask
		if ti < len(p.tasks) && p.tasks[ti].kind == taskRD && p.tasks[ti].dep == int32(i) {
			t = &p.tasks[ti]
			ti++
		}
		if ds.cleanAt == rel.version+1 {
			e.cSkips.Inc()
			continue
		}
		if t != nil && !t.wouldFire && t.version == rel.version {
			if e.cap.on {
				e.cap.region(ds.at, t.scanned, t.ns)
			}
			ds.cleanAt = rel.version + 1
			continue
		}
		if t != nil && t.version != rel.version {
			e.cConflict.Inc()
		}
		f, err := e.scanRD(i)
		fired = fired || f
		if err != nil {
			return fired, err
		}
	}
	for i := range e.fds {
		fs := &e.fds[i]
		rel := &e.rels[fs.ri]
		var t *parTask
		if ti < len(p.tasks) && p.tasks[ti].kind == taskFD && p.tasks[ti].dep == int32(i) {
			t = &p.tasks[ti]
			ti++
		}
		if fs.cleanAt == rel.version+1 {
			e.cSkips.Inc()
			continue
		}
		if t != nil && !t.wouldFire && t.version == rel.version {
			if e.cap.on {
				e.cap.region(fs.at, t.scanned, t.ns)
			}
			fs.cleanAt = rel.version + 1
			continue
		}
		if t != nil && t.version != rel.version {
			e.cConflict.Inc()
		}
		f, err := e.scanFD(i)
		fired = fired || f
		if err != nil {
			return fired, err
		}
	}
	return fired, nil
}

// indPassPar is the sharded IND delta pass. ran is false when the delta
// is too small to shard — the caller then runs the sequential pass.
func (e *engine) indPassPar() (ran bool, changed bool, err error) {
	p := e.par
	p.tasks = p.tasks[:0]
	items := 0
	starts := e.indStarts()
	for i := range e.inds {
		is := &e.inds[i]
		order := e.rels[is.lri].order
		start := indDeltaStart(order, is.maxSeen)
		starts[i] = int32(start)
		n := len(order) - start
		items += n
		if n <= 0 {
			continue
		}
		// Chunk the suffix; tasks stay in (IND, scan-position) order so
		// the merge's candidate concatenation is the scan order.
		chunk := n/(p.workers*2) + 1
		if chunk < minINDChunk {
			chunk = minINDChunk
		}
		for lo := start; lo < len(order); lo += chunk {
			hi := lo + chunk
			if hi > len(order) {
				hi = len(order)
			}
			t := p.addTask()
			t.kind, t.dep, t.order = taskIND, int32(i), order
			t.lo, t.hi = int32(lo), int32(hi)
		}
	}
	if items < e.parTh || len(p.tasks) == 0 {
		p.tasks = p.tasks[:0]
		return false, false, nil
	}
	e.parUsed = true
	p.runBatch(e)

	// Deterministic merge: INDs in compile order; per IND the frozen
	// candidates in scan order, then the order extension (tuples earlier
	// INDs appended during this merge).
	ti := 0
	for i := range e.inds {
		is := &e.inds[i]
		lrel := &e.rels[is.lri]
		// The merge-turn snapshot is what the sequential pass would scan:
		// the frozen prefix plus everything appended so far this pass.
		order := lrel.order
		start := int(starts[i])
		frozenLen := 0
		clock, probeNS := e.cap.clock(), int64(0)
		for ; ti < len(p.tasks) && p.tasks[ti].dep == int32(i); ti++ {
			t := &p.tasks[ti]
			frozenLen = int(t.hi)
			probeNS += t.ns
			for _, tid := range t.cand {
				tv := e.tupleVals(tid)
				if is.pi.witnessed(e, tv, is.xs) {
					// A witness appeared after the freeze (inserted by an
					// earlier IND this merge, or by this one).
					e.cConflict.Inc()
					continue
				}
				added, err := e.fireIND(i, tid, tv)
				if err != nil {
					// The sequential scan counts a delta tuple as it reaches
					// it and aborts mid-suffix on an error: count through the
					// failing tuple's scan position, inclusive.
					e.cDelta.Add(int64(indDeltaStart(order, tid) - start))
					return true, changed, err
				}
				if added {
					changed = true
				}
			}
		}
		if frozenLen < start {
			frozenLen = start
		}
		// Extension suffix: appended after the freeze, never probed.
		for k := frozenLen; k < len(order); k++ {
			tid := order[k]
			tv := e.tupleVals(tid)
			if is.pi.witnessed(e, tv, is.xs) {
				continue
			}
			added, err := e.fireIND(i, tid, tv)
			if err != nil {
				e.cDelta.Add(int64(k - start + 1))
				return true, changed, err
			}
			if added {
				changed = true
			}
		}
		e.cDelta.Add(int64(len(order) - start))
		if e.cap.on {
			e.cap.region(is.at, len(order)-start, probeNS+e.cap.since(clock))
		}
		if len(order) > start {
			is.maxSeen = order[len(order)-1]
		}
	}
	return true, changed, nil
}

// indStarts returns the reused per-IND delta-start scratch.
func (e *engine) indStarts() []int32 {
	if cap(e.tmpStarts) < len(e.inds) {
		e.tmpStarts = make([]int32, len(e.inds))
	}
	e.tmpStarts = e.tmpStarts[:len(e.inds)]
	return e.tmpStarts
}
