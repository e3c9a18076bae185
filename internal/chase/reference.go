// The reference chase engine: the textbook-naive implementation the
// semi-naive engine (chase.go, index.go, delta.go) replaced. It rescans
// the whole tableau every round, rebuilds every FD group map and IND
// witness map from scratch, and allocates a string key per projection
// per tuple per round. It is kept verbatim (modulo the positions error
// fix, applied to both engines) as the differential-testing oracle: the
// semi-naive engine must produce the same verdicts, the same trace
// bytes, and the same chase.* counters on every input. Production call
// sites use the semi-naive entry points in implies.go; only tests and
// benchmark ablations should call the Reference* functions.

package chase

import (
	"context"
	"fmt"
	"strings"

	"indfd/internal/data"
	"indfd/internal/deps"
	"indfd/internal/obs"
	"indfd/internal/schema"
)

// refEngine is the naive chase tableau: relations of tuples of value IDs,
// with a union-find over the IDs. Constants are IDs with names; labeled
// nulls are unnamed IDs.
type refEngine struct {
	db      *schema.Database
	fds     []deps.FD
	rds     []deps.RD
	inds    []deps.IND
	parent  []int
	name    []string // "" for nulls
	consts  map[string]int
	rels    map[string][][]int
	tuples  int
	max     int
	trace   []string
	doTrace bool
	ctx     context.Context // nil = never cancelled

	cRounds   *obs.Counter
	cTuples   *obs.Counter
	cUnions   *obs.Counter
	cFDFires  *obs.Counter
	cRDFires  *obs.Counter
	cINDAdds  *obs.Counter
	cFixpoint *obs.Counter
	gTuples   *obs.Gauge
}

func newRefEngine(db *schema.Database, sigma []deps.Dependency, opt Options) (*refEngine, error) {
	e := &refEngine{
		db:      db,
		consts:  make(map[string]int),
		rels:    make(map[string][][]int),
		max:     opt.maxTuples(),
		doTrace: opt.Trace,
		ctx:     opt.Ctx,

		cRounds:   opt.Obs.Counter("chase.rounds"),
		cTuples:   opt.Obs.Counter("chase.tuples_created"),
		cUnions:   opt.Obs.Counter("chase.unions"),
		cFDFires:  opt.Obs.Counter("chase.fd_applications"),
		cRDFires:  opt.Obs.Counter("chase.rd_applications"),
		cINDAdds:  opt.Obs.Counter("chase.ind_applications"),
		cFixpoint: opt.Obs.Counter("chase.fixpoint_passes"),
		gTuples:   opt.Obs.Gauge("chase.tuples_peak"),
	}
	for _, d := range sigma {
		if err := d.Validate(db); err != nil {
			return nil, err
		}
		switch dd := d.(type) {
		case deps.FD:
			e.fds = append(e.fds, dd)
		case deps.IND:
			e.inds = append(e.inds, dd)
		case deps.RD:
			e.rds = append(e.rds, dd)
		default:
			return nil, fmt.Errorf("chase: only FDs, INDs and RDs may appear in sigma, got %v", d.Kind())
		}
	}
	return e, nil
}

func (e *refEngine) newNull() int {
	id := len(e.parent)
	e.parent = append(e.parent, id)
	e.name = append(e.name, "")
	return id
}

func (e *refEngine) newConst(name string) int {
	if id, ok := e.consts[name]; ok {
		return id
	}
	id := len(e.parent)
	e.parent = append(e.parent, id)
	e.name = append(e.name, name)
	e.consts[name] = id
	return id
}

func (e *refEngine) find(x int) int {
	for e.parent[x] != x {
		e.parent[x] = e.parent[e.parent[x]]
		x = e.parent[x]
	}
	return x
}

// union merges the classes of a and b. Merging two distinct constants is a
// hard contradiction (sigma plus the seed is unsatisfiable over distinct
// constants) and reported as an error.
func (e *refEngine) union(a, b int) (changed bool, err error) {
	ra, rb := e.find(a), e.find(b)
	if ra == rb {
		return false, nil
	}
	na, nb := e.name[ra], e.name[rb]
	if na != "" && nb != "" && na != nb {
		return false, fmt.Errorf("chase: contradiction: constants %q and %q equated", na, nb)
	}
	// Keep the constant (if any) as the representative.
	if na == "" && nb != "" {
		ra, rb = rb, ra
	}
	e.parent[rb] = ra
	e.cUnions.Inc()
	return true, nil
}

func (e *refEngine) equal(a, b int) bool { return e.find(a) == e.find(b) }

// insert adds a tuple of value IDs to rel if no canonically-equal tuple is
// already present — by linearly rescanning the relation. It enforces the
// tuple budget.
func (e *refEngine) insert(rel string, t []int) (added bool, err error) {
	key := e.tupleKey(t)
	for _, u := range e.rels[rel] {
		if e.tupleKey(u) == key {
			return false, nil
		}
	}
	if e.tuples >= e.max {
		return false, errBudget
	}
	e.rels[rel] = append(e.rels[rel], t)
	e.tuples++
	e.cTuples.Inc()
	e.gTuples.SetMax(int64(e.tuples))
	return true, nil
}

func (e *refEngine) tupleKey(t []int) string {
	b := make([]byte, 0, len(t)*4)
	for _, v := range t {
		r := e.find(v)
		b = append(b, byte(r), byte(r>>8), byte(r>>16), byte(r>>24))
	}
	return string(b)
}

// applyFDs fires every FD and RD until no more values are equated.
func (e *refEngine) applyFDs() (changed bool, err error) {
	for again := true; again; {
		again = false
		e.cFixpoint.Inc()
		for _, r := range e.rds {
			sch, _ := e.db.Scheme(r.Rel)
			xs, err := positionsOf(sch, r.X)
			if err != nil {
				return changed, err
			}
			ys, err := positionsOf(sch, r.Y)
			if err != nil {
				return changed, err
			}
			for _, t := range e.rels[r.Rel] {
				for i := range xs {
					ch, err := e.union(t[xs[i]], t[ys[i]])
					if err != nil {
						return changed, err
					}
					if ch {
						again = true
						changed = true
						e.cRDFires.Inc()
						e.tracef("RD %v equates %v and %v within %v", r, e.describe(t[xs[i]]), e.describe(t[ys[i]]), e.describeTuple(t))
					}
				}
			}
		}
		for _, f := range e.fds {
			sch, _ := e.db.Scheme(f.Rel)
			xs, err := positionsOf(sch, f.X)
			if err != nil {
				return changed, err
			}
			ys, err := positionsOf(sch, f.Y)
			if err != nil {
				return changed, err
			}
			groups := make(map[string][]int) // X-projection key -> tuple indexes
			tuples := e.rels[f.Rel]
			for i, t := range tuples {
				key := e.projKey(t, xs)
				for _, j := range groups[key] {
					u := tuples[j]
					for _, y := range ys {
						ch, err := e.union(t[y], u[y])
						if err != nil {
							return changed, err
						}
						if ch {
							again = true
							changed = true
							e.cFDFires.Inc()
							e.tracef("FD %v equates %v and %v (tuples %v, %v agree on %s)",
								f, e.describe(t[y]), e.describe(u[y]), e.describeTuple(t), e.describeTuple(u), schema.JoinAttrs(f.X))
						}
					}
				}
				groups[key] = append(groups[key], i)
			}
		}
	}
	return changed, nil
}

func (e *refEngine) projKey(t []int, pos []int) string {
	b := make([]byte, 0, len(pos)*4)
	for _, p := range pos {
		r := e.find(t[p])
		b = append(b, byte(r), byte(r>>8), byte(r>>16), byte(r>>24))
	}
	return string(b)
}

// applyINDs fires every IND once: for each left tuple with no witness on
// the right, a new right tuple is created with fresh nulls outside the
// target columns. The witness map is rebuilt from scratch per IND per
// round.
func (e *refEngine) applyINDs() (changed bool, err error) {
	for _, d := range e.inds {
		ls, _ := e.db.Scheme(d.LRel)
		rs, _ := e.db.Scheme(d.RRel)
		xs, err := positionsOf(ls, d.X)
		if err != nil {
			return changed, err
		}
		ys, err := positionsOf(rs, d.Y)
		if err != nil {
			return changed, err
		}
		// Index right-hand projections.
		witnesses := make(map[string]bool)
		for _, u := range e.rels[d.RRel] {
			witnesses[e.projKey(u, ys)] = true
		}
		// Iterate over a snapshot: new tuples added to d.LRel (when LRel ==
		// RRel) are handled in the next round.
		snapshot := append([][]int(nil), e.rels[d.LRel]...)
		for _, t := range snapshot {
			key := e.projKey(t, xs)
			if witnesses[key] {
				continue
			}
			u := make([]int, rs.Width())
			for i := range u {
				u[i] = -1
			}
			for i := range ys {
				u[ys[i]] = t[xs[i]]
			}
			for i := range u {
				if u[i] == -1 {
					u[i] = e.newNull()
				}
			}
			added, err := e.insert(d.RRel, u)
			if err != nil {
				return changed, err
			}
			if added {
				changed = true
				witnesses[key] = true
				e.cINDAdds.Inc()
				e.tracef("IND %v adds %v to %s for %v", d, e.describeTuple(u), d.RRel, e.describeTuple(t))
			}
		}
	}
	return changed, nil
}

// dedup removes canonically duplicate tuples created by unions, rescanning
// every relation every round.
func (e *refEngine) dedup() {
	for rel, tuples := range e.rels {
		seen := make(map[string]bool, len(tuples))
		out := tuples[:0]
		for _, t := range tuples {
			k := e.tupleKey(t)
			if seen[k] {
				e.tuples--
				continue
			}
			seen[k] = true
			out = append(out, t)
		}
		e.rels[rel] = out
	}
}

func (e *refEngine) cancelled() error {
	if e.ctx == nil {
		return nil
	}
	return e.ctx.Err()
}

// run chases to fixpoint or budget. It returns done=true when a fixpoint
// was reached (the tableau is a model of sigma).
func (e *refEngine) run() (done bool, err error) {
	for {
		if err := e.cancelled(); err != nil {
			return false, err
		}
		e.cRounds.Inc()
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
func (e *refEngine) export() *data.Database {
	out := data.NewDatabase(e.db)
	names := make(map[int]data.Value)
	next := 0
	valueOf := func(id int) data.Value {
		r := e.find(id)
		if e.name[r] != "" {
			return data.Value(e.name[r])
		}
		if v, ok := names[r]; ok {
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
		names[r] = v
		return v
	}
	for _, rel := range e.db.Names() {
		for _, t := range e.rels[rel] {
			row := make(data.Tuple, len(t))
			for i, id := range t {
				row[i] = valueOf(id)
			}
			out.MustRelation(rel).MustInsert(row)
		}
	}
	return out
}

func (e *refEngine) tracef(format string, args ...any) {
	if e.doTrace {
		e.trace = append(e.trace, fmt.Sprintf(format, args...))
	}
}

// describe renders a value id: its constant name, or _<root> for nulls.
func (e *refEngine) describe(id int) string {
	r := e.find(id)
	if e.name[r] != "" {
		return e.name[r]
	}
	return fmt.Sprintf("_%d", r)
}

func (e *refEngine) describeTuple(t []int) string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = e.describe(v)
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// runToGoal mirrors engine.runToGoal for the reference engine, including
// the per-round span structure, so differential tests can compare spans
// and results like-for-like.
func (e *refEngine) runToGoal(derived func() bool, sp *obs.Span) (Result, error) {
	res := Result{}
	for {
		if err := e.cancelled(); err != nil {
			res.Tuples = e.tuples
			res.Trace = e.trace
			if sp != nil {
				sp.SetAttr("cancelled", err.Error())
				sp.SetInt("rounds", int64(res.Rounds))
				sp.SetInt("tuples", int64(res.Tuples))
				sp.End()
			}
			return res, err
		}
		res.Rounds++
		e.cRounds.Inc()
		var round *obs.Span
		if res.Rounds <= spanRoundCap {
			round = sp.StartSpan("round")
		}
		if _, err := e.applyFDs(); err != nil {
			sp.End()
			return res, err
		}
		e.dedup()
		if derived() {
			round.SetInt("tuples", int64(e.tuples))
			round.End()
			return e.finish(res, Implied, sp)
		}
		indChanged, err := e.applyINDs()
		round.SetInt("tuples", int64(e.tuples))
		round.End()
		if err == errBudget {
			return e.finish(res, Unknown, sp)
		}
		if err != nil {
			sp.End()
			return res, err
		}
		if !indChanged {
			res.Counterexample = e.export()
			return e.finish(res, NotImplied, sp)
		}
	}
}

func (e *refEngine) finish(res Result, v Verdict, sp *obs.Span) (Result, error) {
	res.Verdict = v
	res.Tuples = e.tuples
	res.Trace = e.trace
	if sp != nil {
		sp.SetAttr("verdict", v.String())
		sp.SetInt("rounds", int64(res.Rounds))
		sp.SetInt("tuples", int64(res.Tuples))
		sp.End()
	}
	return res, nil
}

// ReferenceImpliesFD is ImpliesFD on the naive reference engine.
func ReferenceImpliesFD(db *schema.Database, sigma []deps.Dependency, goal deps.FD, opt Options) (Result, error) {
	if err := goal.Validate(db); err != nil {
		return Result{}, err
	}
	e, err := newRefEngine(db, sigma, opt)
	if err != nil {
		return Result{}, err
	}
	sp := opt.Span.StartSpan("chase.fd")
	if sp != nil {
		sp.SetAttr("goal", goal.String())
	}
	sch, _ := db.Scheme(goal.Rel)
	t1 := make([]int, sch.Width())
	t2 := make([]int, sch.Width())
	for i := range t1 {
		t1[i] = e.newNull()
		t2[i] = e.newNull()
	}
	for _, a := range goal.X {
		p, ok := sch.Pos(a)
		if !ok {
			sp.End()
			return Result{}, fmt.Errorf("chase: attribute %s not in scheme %s", a, sch.Name())
		}
		t2[p] = t1[p]
	}
	if _, err := e.insert(goal.Rel, t1); err != nil {
		sp.End()
		return Result{}, err
	}
	if _, err := e.insert(goal.Rel, t2); err != nil {
		sp.End()
		return Result{}, err
	}
	ys, err := positionsOf(sch, goal.Y)
	if err != nil {
		sp.End()
		return Result{}, err
	}
	return e.runToGoal(func() bool {
		for _, y := range ys {
			if !e.equal(t1[y], t2[y]) {
				return false
			}
		}
		return true
	}, sp)
}

// ReferenceImpliesIND is ImpliesIND on the naive reference engine.
func ReferenceImpliesIND(db *schema.Database, sigma []deps.Dependency, goal deps.IND, opt Options) (Result, error) {
	if err := goal.Validate(db); err != nil {
		return Result{}, err
	}
	e, err := newRefEngine(db, sigma, opt)
	if err != nil {
		return Result{}, err
	}
	sp := opt.Span.StartSpan("chase.ind")
	if sp != nil {
		sp.SetAttr("goal", goal.String())
	}
	ls, _ := db.Scheme(goal.LRel)
	rs, _ := db.Scheme(goal.RRel)
	t := make([]int, ls.Width())
	for i := range t {
		t[i] = e.newNull()
	}
	if _, err := e.insert(goal.LRel, t); err != nil {
		sp.End()
		return Result{}, err
	}
	xs, err := positionsOf(ls, goal.X)
	if err != nil {
		sp.End()
		return Result{}, err
	}
	ys, err := positionsOf(rs, goal.Y)
	if err != nil {
		sp.End()
		return Result{}, err
	}
	return e.runToGoal(func() bool {
		want := e.projKey(t, xs)
		for _, u := range e.rels[goal.RRel] {
			if e.projKey(u, ys) == want {
				return true
			}
		}
		return false
	}, sp)
}

// ReferenceImpliesRD is ImpliesRD on the naive reference engine.
func ReferenceImpliesRD(db *schema.Database, sigma []deps.Dependency, goal deps.RD, opt Options) (Result, error) {
	if err := goal.Validate(db); err != nil {
		return Result{}, err
	}
	e, err := newRefEngine(db, sigma, opt)
	if err != nil {
		return Result{}, err
	}
	sp := opt.Span.StartSpan("chase.rd")
	if sp != nil {
		sp.SetAttr("goal", goal.String())
	}
	sch, _ := db.Scheme(goal.Rel)
	t := make([]int, sch.Width())
	for i := range t {
		t[i] = e.newNull()
	}
	if _, err := e.insert(goal.Rel, t); err != nil {
		sp.End()
		return Result{}, err
	}
	xs, err := positionsOf(sch, goal.X)
	if err != nil {
		sp.End()
		return Result{}, err
	}
	ys, err := positionsOf(sch, goal.Y)
	if err != nil {
		sp.End()
		return Result{}, err
	}
	return e.runToGoal(func() bool {
		for i := range xs {
			if !e.equal(t[xs[i]], t[ys[i]]) {
				return false
			}
		}
		return true
	}, sp)
}

// ReferenceImplies dispatches on the kind of the goal dependency.
func ReferenceImplies(db *schema.Database, sigma []deps.Dependency, goal deps.Dependency, opt Options) (Result, error) {
	switch g := goal.(type) {
	case deps.FD:
		return ReferenceImpliesFD(db, sigma, g, opt)
	case deps.IND:
		return ReferenceImpliesIND(db, sigma, g, opt)
	case deps.RD:
		return ReferenceImpliesRD(db, sigma, g, opt)
	default:
		return Result{}, fmt.Errorf("chase: cannot test implication of a %v goal", goal.Kind())
	}
}

// ReferenceComplete is Complete on the naive reference engine.
func ReferenceComplete(seed *data.Database, sigma []deps.Dependency, opt Options) (*data.Database, error) {
	e, err := newRefEngine(seed.Scheme(), sigma, opt)
	if err != nil {
		return nil, err
	}
	sp := opt.Span.StartSpan("chase.complete")
	defer sp.End()
	for _, rel := range seed.Scheme().Names() {
		r, _ := seed.Relation(rel)
		for _, t := range r.Tuples() {
			row := make([]int, len(t))
			for i, v := range t {
				row[i] = e.newConst(string(v))
			}
			if _, err := e.insert(rel, row); err != nil {
				return nil, err
			}
		}
	}
	done, err := e.run()
	sp.SetInt("tuples", int64(e.tuples))
	if err != nil {
		return nil, err
	}
	if !done {
		return nil, fmt.Errorf("chase: Complete did not reach a fixpoint within %d tuples", e.max)
	}
	return e.export(), nil
}
