// Package chase implements the classical chase for sets of FDs and INDs
// with labeled nulls, the tool Section 4 and Section 7 of the paper reason
// with informally (the 14-step equality derivation of Lemma 7.2 is exactly
// a chase run). FDs equate values (union-find); INDs add tuples with fresh
// nulls.
//
// Because the implication problem for FDs and INDs together is undecidable
// (Mitchell; Chandra–Vardi, cited in the paper's introduction), the chase
// need not terminate. All entry points therefore take a step budget and
// return a three-valued Verdict: Implied (the chase derived the goal —
// sound for unrestricted implication, hence also for finite implication),
// NotImplied (the chase reached a fixpoint; the resulting finite database
// is a counterexample), or Unknown (budget exhausted).
//
// The engine is a semi-naive, delta-driven fixpoint. Instead of rescanning
// the whole tableau every round and rebuilding every FD group and IND
// witness map from scratch (the reference engine in reference.go still
// does, as the differential-testing oracle), it maintains persistent
// incremental indexes keyed by interned integers:
//
//   - every tuple carries its canonical key (the vector of union-find
//     roots of its values) as a dense integer from a per-relation
//     intern.Table keyed by those int32 roots, so duplicate detection on
//     insert is one table probe instead of a linear rescan;
//   - each IND keeps a refcounted witness index over its right-hand
//     projection, updated on insert, re-key, and dedup-removal, and scans
//     only the left-hand tuples added since its last pass (witnesses are
//     monotone: unions never un-equate projections);
//   - when a union merges two value classes, only the tuples referencing
//     the merged class — tracked via per-class back-references — are
//     re-keyed; per-relation version counters let FD and RD passes skip
//     relations no union or insert has touched since their last clean
//     scan;
//   - the union-find unions by reference-count with path halving, while a
//     per-class label records the representative the reference engine
//     would have chosen, keeping trace output byte-identical.
//
// Verdicts, traces, counterexamples, and the chase.* counters are exactly
// those of the reference engine; differential tests pin all four. The
// hot loops count into plain engine fields, and a run adds its counts to
// Options.Obs once, when it ends (flush), so concurrent runs sharing a
// registry never contend on its counters mid-run.
//
// What a run records beyond its verdict — trace lines, provenance,
// per-member aggregates, per-round spans — is opt-in and goes through
// one capture path (capture.go), which never changes the verdict.
package chase

import (
	"context"
	"fmt"
	"strings"

	"indfd/internal/data"
	"indfd/internal/deps"
	"indfd/internal/intern"
	"indfd/internal/obs"
	"indfd/internal/schema"
)

// Verdict is the outcome of a budgeted chase.
type Verdict int

const (
	// Unknown means the step budget was exhausted before the chase
	// either derived the goal or reached a fixpoint.
	Unknown Verdict = iota
	// Implied means the goal was derived: sigma ⊨ goal.
	Implied
	// NotImplied means the chase terminated in a model of sigma violating
	// the goal: sigma ⊭ goal (and, since the model is finite, also
	// sigma ⊭fin goal).
	NotImplied
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case Implied:
		return "implied"
	case NotImplied:
		return "not implied"
	default:
		return "unknown"
	}
}

// Options configures a chase run.
type Options struct {
	// MaxTuples bounds the total number of tuples the chase may create
	// (including seeds). Zero means DefaultMaxTuples.
	MaxTuples int
	// Ctx, when non-nil, is checked once per chase round: a cancelled or
	// expired context stops the run within one round, returning the
	// context's error together with a partial Result (rounds and tuples
	// so far). This is how a resident server bounds the divergent chases
	// the paper proves must exist — a deadline, not just a tuple budget.
	// A nil Ctx never cancels and costs one predictable branch per round.
	Ctx context.Context
	// Trace, Provenance, Profile and Footprint switch on the capture
	// channels (capture.go). All four are opt-in, are recorded through
	// one capture call per firing, insert and scan region, and never
	// change verdicts, traces or counters (differential-tested); with
	// all of them off a warm pooled run allocates nothing.
	//
	// Trace records every rule application into Result.Trace — the
	// machine-generated analogue of the step-by-step derivation in the
	// proof of Lemma 7.2.
	Trace bool
	// Provenance records, per tuple, the IND firing that created it and,
	// per union, the FD/RD firing that caused it; on an Implied verdict
	// the goal is walked backwards through this log into
	// Result.Derivation, a minimal proof DAG (see provenance.go), whose
	// members become Result.Used.
	Provenance bool
	// Profile attributes the chase's work — firings, tuples produced,
	// tuples scanned, scan wall time, rounds active — to each member of
	// sigma, into Result.Profile.
	Profile bool
	// Footprint records which members of sigma the run touched — fired
	// at least once or scanned at least one tuple — into Result.Used, as
	// positions in sigma. It keeps Profile's per-member counts without
	// the scan timers, so the serve layer can afford it on every
	// cacheable request over a registered schema; footprints become the
	// answer cache's per-member invalidation tags.
	Footprint bool
	// Pool, when non-nil, recycles compiled engines across runs keyed by
	// a (schema, sigma) fingerprint: a hit skips compilation and reuses
	// the tuple arena, interners, union-find backing and witness indexes
	// of a structurally reset engine, making the warm steady state of a
	// resident server allocation-free. Engines are returned to the pool
	// only after an error-free run; a chase killed mid-round (deadline,
	// cancellation, contradiction) is poisoned and discarded.
	Pool *EnginePool
	// PoolKey, when non-zero, is PoolKey(db, sigma), computed by a
	// caller that runs many chases over one compiled schema and sigma
	// (core computes it once per component), so a pooled run does not
	// hash the whole schema and sigma again. A wrong key costs a pool
	// miss, never a wrong answer: get matches every engine against the
	// request before handing it out.
	PoolKey uint64
	// Obs, when non-nil, receives the chase's work counters under the
	// "chase." namespace (rounds, tuples created, union-find merges,
	// fixpoint passes, ...) and the chase.tuples_peak gauge. The run
	// counts in engine fields and adds them to Obs once, when it ends —
	// on every exit, a killed run's partial counts included. A nil
	// registry costs nothing.
	Obs *obs.Registry
	// Span, when non-nil, is the parent under which the chase opens its
	// span (with per-round child spans, capped at spanRoundCap). With
	// Span nil the chase opens no span.
	Span *obs.Span
}

// DefaultMaxTuples is the default tuple budget.
const DefaultMaxTuples = 4096

func (o Options) maxTuples() int {
	if o.MaxTuples <= 0 {
		return DefaultMaxTuples
	}
	return o.MaxTuples
}

var errBudget = fmt.Errorf("chase: tuple budget exhausted")

// engine is the semi-naive chase tableau. Values (constants and labeled
// nulls) are int32 IDs under a union-find; tuples live in a flat arena
// and are indexed per relation by insertion order, interned canonical
// key, and the incremental witness indexes of the INDs targeting the
// relation.
type engine struct {
	db  *schema.Database
	max int
	ctx context.Context // nil = never cancelled

	// Union-find over value IDs. label[r] (valid at structural roots) is
	// the representative the reference engine would use — the ID that
	// trace lines and exports print. name[id] is non-empty exactly for
	// constants; watch[r] lists the tuples whose canonical key involves
	// class r (concatenated on union, so the losing side's tuples are the
	// ones re-keyed).
	parent []int32
	label  []int32
	name   []string
	watch  [][]int32
	consts map[string]int32

	// Tuple arena: vals is the flat value storage, tupOff/tupRel/tupKey/
	// tupDead are parallel per-tuple slices. Tuple IDs increase in
	// insertion order — the fact the INDs' delta scans binary-search on.
	vals    []int32
	tupOff  []int32
	tupRel  []int32
	tupKey  []int32
	tupDead []bool
	inDirty []bool
	tuples  int

	rels   []relState
	relIdx map[string]int32

	fds  []fdState
	rds  []rdState
	inds []indState

	// dirty lists tuples whose canonical key is stale after unions; they
	// are re-keyed in bulk by processDirty before dedup and the IND pass.
	dirty []int32

	key []int32 // scratch for key assembly (reused, never retained)
	tmp []int32

	// cap holds the opt-in capture channels (capture.go).
	cap capture

	// Goal state, set by the Implies entry points and read by
	// goalDerived once per round. Kept as plain engine fields (not a
	// closure) so a pooled engine's warm path allocates nothing: the
	// buffers are reused across runs.
	goalKind uint8 // goalNone/goalFD/goalIND/goalRD
	goalT1   []int32
	goalT2   []int32
	goalXs   []int
	goalYs   []int
	gpi      *projIndex // IND goal witness index, reused across runs
	gpiRel   int32      // relation gpi is registered on, -1 when none

	// pool bookkeeping: the pool this engine is released to (nil =
	// unpooled) and the sigma it was compiled from, retained so a pool
	// hit can verify the cached compilation matches the request without
	// allocating. Positions in sigma identify members to the capture.
	pool    *EnginePool
	poolKey uint64
	sigma   []deps.Dependency
	// Links of an idle pooled engine (pool.go): up/down within its
	// bucket's stack (down is older), newer/older along the pool's LRU.
	up, down, newer, older *engine

	// The run's work, counted by the hot loops and added to reg by
	// flush; reg is Options.Obs of the current run, nil when idle.
	n   counts
	reg *obs.Registry
}

// counts is one run's chase.* work, in plain fields.
type counts struct {
	rounds   int64 // chase.rounds: rounds (IND pass + FD fixpoint)
	tuples   int64 // chase.tuples_created: tableau tuples created (seeds included)
	unions   int64 // chase.unions: union-find merges performed
	fdFires  int64 // chase.fd_applications: FD applications that equated values
	rdFires  int64 // chase.rd_applications: RD applications that equated values
	indAdds  int64 // chase.ind_applications: IND applications that added a tuple
	fixpoint int64 // chase.fixpoint_passes: FD fixpoint passes
	delta    int64 // chase.delta_tuples: tuples scanned by delta-driven IND passes
	rekeyed  int64 // chase.rekeyed_tuples: tuples re-keyed after class merges
	skips    int64 // chase.scans_skipped: FD/RD scans skipped by the version gate
	peak     int   // chase.tuples_peak: high-water mark of live tableau tuples
}

// fdState is an FD of sigma compiled for repeated firing: its position
// at in sigma, resolved attribute positions, a persistent intern table
// for X-projection group keys (the class labels of the X values), and
// each group's first tuple in the current pass (first[g], valid while
// seen[g] == gen; steady-state passes allocate nothing). gen is never
// reset and wraps, so a group whose key is fresh gets its first tuple
// directly, not through the seen check. cleanAt is rels[ri].version+1
// as of the last scan that fired nothing, or 0; the scan is skipped
// while the version matches.
type fdState struct {
	d       deps.FD
	at      int32
	ri      int32
	xs, ys  []int
	keys    *intern.Table
	first   []int32
	seen    []uint32
	gen     uint32
	cleanAt uint64
}

// rdState is an RD of sigma compiled for repeated firing.
type rdState struct {
	d       deps.RD
	at      int32
	ri      int32
	xs, ys  []int
	cleanAt uint64
}

// indState is an IND of sigma compiled for repeated firing: resolved
// positions, the incremental witness index over its right-hand
// projection, and the high-water tuple ID up to which every left-hand
// tuple is known to have a witness.
type indState struct {
	d       deps.IND
	at      int32
	lri     int32
	rri     int32
	xs, ys  []int
	pi      *projIndex
	maxSeen int32
}

// Goal kinds for goalDerived.
const (
	goalNone uint8 = iota
	goalFD
	goalIND
	goalRD
)

// newEngine compiles sigma against db into a fresh engine; arm must be
// called before running (acquireEngine does both).
func newEngine(db *schema.Database, sigma []deps.Dependency) (*engine, error) {
	e := &engine{
		db:     db,
		consts: make(map[string]int32),
		sigma:  sigma,
		gpiRel: -1,
	}
	names := db.Names()
	e.rels = make([]relState, len(names))
	e.relIdx = make(map[string]int32, len(names))
	for i, n := range names {
		sch, _ := db.Scheme(n)
		e.rels[i] = relState{name: n, width: sch.Width(), keys: intern.New(sch.Width(), 16)}
		e.relIdx[n] = int32(i)
	}
	// INDs with the same right-hand relation and projection share one
	// witness index: its content is a function of those two things alone,
	// and a wide sigma (many INDs into one relation, as in the wide-FD
	// workload) would otherwise pay one index update per IND per insert.
	witnessIdx := make(map[string]*projIndex)
	for i, d := range sigma {
		at := int32(i)
		if err := d.Validate(db); err != nil {
			return nil, err
		}
		switch dd := d.(type) {
		case deps.FD:
			sch, _ := db.Scheme(dd.Rel)
			xs, err := positionsOf(sch, dd.X)
			if err != nil {
				return nil, err
			}
			ys, err := positionsOf(sch, dd.Y)
			if err != nil {
				return nil, err
			}
			e.fds = append(e.fds, fdState{
				d: dd, at: at, ri: e.relIdx[dd.Rel], xs: xs, ys: ys, keys: intern.New(len(xs), 16),
			})
		case deps.IND:
			ls, _ := db.Scheme(dd.LRel)
			rs, _ := db.Scheme(dd.RRel)
			xs, err := positionsOf(ls, dd.X)
			if err != nil {
				return nil, err
			}
			ys, err := positionsOf(rs, dd.Y)
			if err != nil {
				return nil, err
			}
			rri := e.relIdx[dd.RRel]
			wkey := fmt.Sprintf("%d:%v", rri, ys)
			pi := witnessIdx[wkey]
			if pi == nil {
				pi = &projIndex{pos: ys, keys: intern.New(len(ys), 16)}
				e.rels[rri].watchers = append(e.rels[rri].watchers, pi)
				witnessIdx[wkey] = pi
			}
			e.inds = append(e.inds, indState{
				d: dd, at: at, lri: e.relIdx[dd.LRel], rri: rri, xs: xs, ys: ys, pi: pi, maxSeen: -1,
			})
		case deps.RD:
			sch, _ := db.Scheme(dd.Rel)
			xs, err := positionsOf(sch, dd.X)
			if err != nil {
				return nil, err
			}
			ys, err := positionsOf(sch, dd.Y)
			if err != nil {
				return nil, err
			}
			e.rds = append(e.rds, rdState{d: dd, at: at, ri: e.relIdx[dd.Rel], xs: xs, ys: ys})
		default:
			return nil, fmt.Errorf("chase: only FDs, INDs and RDs may appear in sigma, got %v", d.Kind())
		}
	}
	return e, nil
}

// arm readies an engine (fresh or pooled) for one run: budget, context,
// zeroed counts, the registry they go to, and opt-in capture state.
// Everything arm touches is per-run; the compiled structure (positions,
// shared witness indexes) is untouched.
func (e *engine) arm(opt Options) {
	e.max = opt.maxTuples()
	e.ctx = opt.Ctx
	e.n = counts{}
	e.reg = opt.Obs
	e.cap.arm(opt, len(e.sigma))
}

// flush adds the run's counts to its registry, once, and forgets the
// registry, so an idle pooled engine keeps no request's registry alive.
// release calls it on every exit, so a killed run adds its partial
// counts too.
func (e *engine) flush() {
	r := e.reg
	if r == nil {
		return
	}
	e.reg = nil
	r.Counter("chase.rounds").Add(e.n.rounds)
	r.Counter("chase.tuples_created").Add(e.n.tuples)
	r.Counter("chase.unions").Add(e.n.unions)
	r.Counter("chase.fd_applications").Add(e.n.fdFires)
	r.Counter("chase.rd_applications").Add(e.n.rdFires)
	r.Counter("chase.ind_applications").Add(e.n.indAdds)
	r.Counter("chase.fixpoint_passes").Add(e.n.fixpoint)
	r.Counter("chase.delta_tuples").Add(e.n.delta)
	r.Counter("chase.rekeyed_tuples").Add(e.n.rekeyed)
	r.Counter("chase.scans_skipped").Add(e.n.skips)
	r.Gauge("chase.tuples_peak").SetMax(int64(e.n.peak))
}

// acquireEngine returns an armed engine for db and sigma: a pooled one
// when opt.Pool holds a structurally reset engine compiled from an
// identical schema and sigma, else a freshly compiled one. The caller
// must pair it with e.release(err).
func acquireEngine(db *schema.Database, sigma []deps.Dependency, opt Options) (*engine, error) {
	if opt.Pool != nil {
		key := opt.PoolKey
		if key == 0 {
			key = poolFingerprint(db, sigma)
		}
		if e := opt.Pool.get(key, db, sigma); e != nil {
			e.arm(opt)
			return e, nil
		}
		e, err := newEngine(db, sigma)
		if err != nil {
			return nil, err
		}
		e.pool, e.poolKey = opt.Pool, key
		e.arm(opt)
		return e, nil
	}
	e, err := newEngine(db, sigma)
	if err != nil {
		return nil, err
	}
	e.arm(opt)
	return e, nil
}

// release ends a run: the run's counts are flushed, its context is
// dropped (so an idle pooled engine keeps neither the run's deadline nor
// the values its caller hung on the context alive), and a pooled engine
// is structurally reset and returned to its pool — unless the run
// errored (deadline, cancellation, contradiction, or any other mid-round
// kill), in which case its state is partial and it is discarded so no
// later request can observe it. A budget-exhausted Unknown verdict is
// not an error: that chase stopped at a clean round boundary. An engine
// whose run created more than DefaultMaxTuples tuples is discarded too:
// a caller-raised budget must not leave its grown arrays resident in the
// pool.
func (e *engine) release(err error) {
	e.flush()
	e.ctx = nil
	if e.pool == nil {
		return
	}
	if err != nil || len(e.tupOff) > DefaultMaxTuples {
		e.pool.discard(e)
		return
	}
	e.reset()
	e.pool.put(e)
}

// reset returns the engine to its just-compiled state while keeping
// every backing allocation: slices are truncated in place, interners
// start a new epoch (their arenas and slots stay warm), and
// per-dependency scan state is rewound. A reset engine re-running the
// same query performs the same work with zero steady-state allocations.
func (e *engine) reset() {
	e.parent = e.parent[:0]
	e.label = e.label[:0]
	e.name = e.name[:0]
	e.watch = e.watch[:0]
	clear(e.consts)

	e.vals = e.vals[:0]
	e.tupOff = e.tupOff[:0]
	e.tupRel = e.tupRel[:0]
	e.tupKey = e.tupKey[:0]
	e.tupDead = e.tupDead[:0]
	e.inDirty = e.inDirty[:0]
	e.tuples = 0
	e.dirty = e.dirty[:0]

	e.cap.reset()
	e.goalKind = goalNone

	// The IND goal's witness index is appended to its relation's watcher
	// list last (after compilation); pop it before rewinding the
	// relations so a later request never probes a stale goal index.
	if e.gpiRel >= 0 {
		ws := e.rels[e.gpiRel].watchers
		e.rels[e.gpiRel].watchers = ws[:len(ws)-1]
		e.gpiRel = -1
	}
	for i := range e.rels {
		rs := &e.rels[i]
		rs.order = rs.order[:0]
		rs.keys.Reset()
		rs.count = rs.count[:0]
		rs.seen = rs.seen[:0]
		rs.sweep = 0
		rs.version = 0
		rs.dupDirty = false
		for _, pi := range rs.watchers {
			pi.reset()
		}
	}
	for i := range e.fds {
		fs := &e.fds[i]
		fs.keys.Reset()
		fs.first = fs.first[:0]
		fs.seen = fs.seen[:0]
		fs.cleanAt = 0
	}
	for i := range e.rds {
		e.rds[i].cleanAt = 0
	}
	for i := range e.inds {
		e.inds[i].maxSeen = -1
	}
}

// positionsOf resolves an attribute sequence to scheme positions,
// reporting an attribute the scheme does not have (instead of silently
// mapping it to position 0).
func positionsOf(s *schema.Scheme, attrs []schema.Attribute) ([]int, error) {
	out := make([]int, len(attrs))
	for i, a := range attrs {
		p, ok := s.Pos(a)
		if !ok {
			return nil, fmt.Errorf("chase: attribute %s not in scheme %s", a, s.Name())
		}
		out[i] = p
	}
	return out, nil
}

// applyFDs fires every FD and RD until no more values are equated. Scans
// keep the reference engine's full-scan-in-order structure (so fire order
// and trace bytes are identical) but are skipped wholesale while the
// relation's version is unchanged since the dependency's last clean scan
// — unchanged version means unchanged membership and unchanged roots,
// hence a scan that would fire nothing.
func (e *engine) applyFDs() (changed bool, err error) {
	for again := true; again; {
		again = false
		e.n.fixpoint++
		var fired bool
		for i := range e.rds {
			ds := &e.rds[i]
			if ds.cleanAt == e.rels[ds.ri].version+1 {
				e.n.skips++
				continue
			}
			f, err := e.scanRD(i)
			fired = fired || f
			if err != nil {
				return changed || fired, err
			}
		}
		for i := range e.fds {
			fs := &e.fds[i]
			if fs.cleanAt == e.rels[fs.ri].version+1 {
				e.n.skips++
				continue
			}
			f, err := e.scanFD(i)
			fired = fired || f
			if err != nil {
				return changed || fired, err
			}
		}
		if fired {
			again, changed = true, true
		}
	}
	return changed, nil
}

// scanRD fires e.rds[i] over its whole relation; the caller has already
// decided the version gate.
func (e *engine) scanRD(i int) (fired bool, err error) {
	ds := &e.rds[i]
	rel := &e.rels[ds.ri]
	start := e.cap.clock()
	for _, tid := range rel.order {
		t := e.tupleVals(tid)
		for j := range ds.xs {
			ch, err := e.union(t[ds.xs[j]], t[ds.ys[j]])
			if err != nil {
				return fired, err
			}
			if ch {
				fired = true
				e.n.rdFires++
				if e.cap.on {
					e.noteRD(i, tid, t[ds.xs[j]], t[ds.ys[j]])
				}
			}
		}
	}
	if e.cap.on {
		e.cap.region(ds.at, len(rel.order), e.cap.since(start))
	}
	if fired {
		ds.cleanAt = 0
	} else {
		ds.cleanAt = rel.version + 1
	}
	return fired, nil
}

// scanFD fires e.fds[i] over its whole relation; the caller has already
// decided the version gate. Each tuple is unioned with its X-group's
// first tuple only: every earlier member already shares each Y-class
// with it, so the reference's other pairings would fire nothing.
func (e *engine) scanFD(i int) (fired bool, err error) {
	fs := &e.fds[i]
	rel := &e.rels[fs.ri]
	start := e.cap.clock()
	fs.gen++
	for _, tid := range rel.order {
		t := e.tupleVals(tid)
		// Group keys must use class labels, not structural roots:
		// the reference engine groups by its own (label) roots, and
		// mid-pass root changes make grouping sensitive to the
		// representative choice.
		kid, fresh := fs.keys.Intern(e.labelProjKey(t, fs.xs))
		if fresh {
			fs.first = append(fs.first, tid)
			fs.seen = append(fs.seen, fs.gen)
			continue
		}
		if fs.seen[kid] != fs.gen {
			fs.seen[kid] = fs.gen
			fs.first[kid] = tid
			continue
		}
		uid := fs.first[kid]
		u := e.tupleVals(uid)
		for _, y := range fs.ys {
			ch, err := e.union(t[y], u[y])
			if err != nil {
				return fired, err
			}
			if ch {
				fired = true
				e.n.fdFires++
				if e.cap.on {
					e.noteFD(i, tid, uid, t[y], u[y])
				}
			}
		}
	}
	if e.cap.on {
		e.cap.region(fs.at, len(rel.order), e.cap.since(start))
	}
	if fired {
		fs.cleanAt = 0
	} else {
		fs.cleanAt = rel.version + 1
	}
	return fired, nil
}

// cancelled reports the context's error, if any: the per-round
// cancellation probe (a nil context is a predictable branch, keeping
// the uninstrumented, undeadlined path free).
func (e *engine) cancelled() error {
	if e.ctx == nil {
		return nil
	}
	return e.ctx.Err()
}

// run chases to fixpoint or budget. It returns done=true when a fixpoint
// was reached (the tableau is a model of sigma).
func (e *engine) run() (done bool, err error) {
	for {
		if err := e.cancelled(); err != nil {
			return false, err
		}
		e.n.rounds++
		e.cap.beginRound()
		fdChanged, err := e.applyFDs()
		if err != nil {
			return false, err
		}
		e.dedup()
		indChanged, err := e.applyINDs()
		if err == errBudget {
			return false, nil
		}
		if err != nil {
			return false, err
		}
		if !fdChanged && !indChanged {
			return true, nil
		}
	}
}

// export materializes the tableau as a concrete database: constants keep
// their names, null classes become fresh values "_0", "_1", ... in a
// deterministic order, skipping any name already taken by a constant (a
// seed value may itself look like "_0").
func (e *engine) export() *data.Database {
	out := data.NewDatabase(e.db)
	named := make(map[int32]data.Value)
	next := 0
	valueOf := func(id int32) data.Value {
		r := e.find(id)
		if n := e.name[e.label[r]]; n != "" {
			return data.Value(n)
		}
		if v, ok := named[r]; ok {
			return v
		}
		var v data.Value
		for {
			v = data.Value(fmt.Sprintf("_%d", next))
			next++
			if _, taken := e.consts[string(v)]; !taken {
				break
			}
		}
		named[r] = v
		return v
	}
	for _, rel := range e.db.Names() {
		rs := &e.rels[e.relIdx[rel]]
		for _, tid := range rs.order {
			t := e.tupleVals(tid)
			row := make(data.Tuple, len(t))
			for i, id := range t {
				row[i] = valueOf(id)
			}
			out.MustRelation(rel).MustInsert(row)
		}
	}
	return out
}

// describe renders a value id: its constant name, or _<label> for nulls
// (the label is the representative the reference engine would print).
func (e *engine) describe(id int32) string {
	l := e.label[e.find(id)]
	if e.name[l] != "" {
		return e.name[l]
	}
	return fmt.Sprintf("_%d", l)
}

// describeTuple renders a tableau tuple.
func (e *engine) describeTuple(t []int32) string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = e.describe(v)
	}
	return "(" + strings.Join(parts, ",") + ")"
}
