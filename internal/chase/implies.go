package chase

import (
	"fmt"

	"indfd/internal/data"
	"indfd/internal/deps"
	"indfd/internal/intern"
	"indfd/internal/obs"
	"indfd/internal/schema"
)

// spanRoundCap bounds the number of per-round child spans recorded on a
// chase span; a diverging chase can run thousands of rounds and the span
// tree must stay small. Rounds past the cap are summarized by the
// "rounds" attribute on the parent span.
const spanRoundCap = 32

// Result reports the outcome of a budgeted implication test.
type Result struct {
	Verdict Verdict
	// Counterexample is a finite database satisfying sigma and violating
	// the goal; it is set exactly when Verdict == NotImplied.
	Counterexample *data.Database
	// Rounds is the number of chase rounds executed.
	Rounds int
	// Tuples is the number of tableau tuples at the end.
	Tuples int
	// Trace lists the rule applications performed, when Options.Trace was
	// set.
	Trace []string
	// Derivation is the minimal proof DAG extracted from provenance; it
	// is set exactly when Options.Provenance was set and Verdict ==
	// Implied (Complete runs goal-less and never sets it).
	Derivation *Derivation
	// Profile is the per-dependency cost attribution, set exactly when
	// Options.Profile was set (including on cancellation, so partial
	// work is still attributable). Entries are hottest-first.
	Profile *obs.DepProfile
	// Used is the run's footprint, as ascending positions in the sigma
	// the chase was given: the members of Derivation when one was
	// extracted, else the members that fired at least once or scanned
	// at least one tuple (set when Options.Footprint or Options.Profile
	// was). Nil means nothing was captured; empty means the answer
	// depends on no member. Members the run never touched are absent —
	// the answer cache uses that to invalidate per member, not per Σ.
	Used []int
}

// goalDerived reports whether the entry point's goal now holds — the
// per-round check runToGoal runs after every FD pass. It reads the
// engine's goal fields directly (no closure) so a pooled warm run
// allocates nothing.
func (e *engine) goalDerived() bool {
	switch e.goalKind {
	case goalFD:
		for _, y := range e.goalYs {
			if !e.equal(e.goalT1[y], e.goalT2[y]) {
				return false
			}
		}
		return true
	case goalIND:
		return e.gpi.witnessed(e, e.goalT1, e.goalXs)
	case goalRD:
		for i := range e.goalXs {
			if !e.equal(e.goalT1[e.goalXs[i]], e.goalT1[e.goalYs[i]]) {
				return false
			}
		}
		return true
	}
	return false
}

// runToGoal chases the seeded tableau until the goal holds, a fixpoint
// is reached, or the budget runs out, checking the goal after every FD
// pass.
func (e *engine) runToGoal() (Result, error) {
	res := Result{}
	for {
		// The cancellation probe runs once per round, so a cancelled
		// context stops even a divergent chase within one round — with the
		// partial rounds/tuples counts preserved in the Result.
		if err := e.cancelled(); err != nil {
			return e.seal(res, err)
		}
		res.Rounds++
		e.n.rounds++
		e.cap.beginRound()
		if _, err := e.applyFDs(); err != nil {
			e.cap.span.End()
			return res, err
		}
		e.dedup()
		if e.goalDerived() {
			e.cap.endRound(e.tuples)
			return e.finish(res, Implied)
		}
		indChanged, err := e.applyINDs()
		e.cap.endRound(e.tuples)
		if err == errBudget {
			return e.finish(res, Unknown)
		}
		if err != nil {
			e.cap.span.End()
			return res, err
		}
		if !indChanged {
			// One more FD pass cannot change anything either (applyFDs ran
			// to its own fixpoint above), so this is a model of sigma.
			res.Counterexample = e.export()
			return e.finish(res, NotImplied)
		}
	}
}

// finish seals the result with the verdict.
func (e *engine) finish(res Result, v Verdict) (Result, error) {
	res.Verdict = v
	return e.seal(res, nil)
}

// resizeI32 returns s with length n, reusing its backing array when the
// capacity allows (pooled scratch never shrinks).
func resizeI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// positionsInto is positionsOf into a reused buffer.
func positionsInto(dst []int, s *schema.Scheme, attrs []schema.Attribute) ([]int, error) {
	dst = dst[:0]
	for _, a := range attrs {
		p, ok := s.Pos(a)
		if !ok {
			return dst, fmt.Errorf("chase: attribute %s not in scheme %s", a, s.Name())
		}
		dst = append(dst, p)
	}
	return dst, nil
}

// implies is the one run of an implication goal: validate it, arm an
// engine, open the span named span, seed the goal's tableau, chase it,
// and release the engine.
func implies[G interface {
	Validate(*schema.Database) error
	String() string
}](db *schema.Database, sigma []deps.Dependency, goal G, opt Options, span string, seed func(*engine, G) error) (Result, error) {
	if err := goal.Validate(db); err != nil {
		return Result{}, err
	}
	e, err := acquireEngine(db, sigma, opt)
	if err != nil {
		return Result{}, err
	}
	// The goal is rendered only for the span or a derivation's header.
	if e.cap.span = opt.Span.StartSpan(span); e.cap.span != nil || e.cap.prov {
		e.cap.goalDesc = goal.String()
		e.cap.span.SetAttr("goal", e.cap.goalDesc)
	}
	var res Result
	if err = seed(e, goal); err == nil {
		res, err = e.runToGoal()
	} else {
		e.cap.span.End()
	}
	e.release(err)
	return res, err
}

// ImpliesFD tests sigma ⊨ goal for an FD goal R: X -> Y by chasing the
// two-tuple tableau that agrees exactly on X.
func ImpliesFD(db *schema.Database, sigma []deps.Dependency, goal deps.FD, opt Options) (Result, error) {
	return implies(db, sigma, goal, opt, "chase.fd", (*engine).seedFD)
}

func (e *engine) seedFD(goal deps.FD) (err error) {
	sch, _ := e.db.Scheme(goal.Rel)
	e.goalKind = goalFD
	if e.goalXs, err = positionsInto(e.goalXs, sch, goal.X); err != nil {
		return err
	}
	if e.goalYs, err = positionsInto(e.goalYs, sch, goal.Y); err != nil {
		return err
	}
	e.goalT1 = resizeI32(e.goalT1, sch.Width())
	e.goalT2 = resizeI32(e.goalT2, sch.Width())
	t1, t2 := e.goalT1, e.goalT2
	for i := range t1 {
		t1[i], t2[i] = e.newNull(), e.newNull()
	}
	for _, p := range e.goalXs {
		t2[p] = t1[p]
	}
	ri := e.relIdx[goal.Rel]
	if _, err = e.insert(ri, t1); err == nil {
		_, err = e.insert(ri, t2)
	}
	return err
}

// ImpliesIND tests sigma ⊨ goal for an IND goal R[X] ⊆ S[Y] by chasing the
// one-tuple tableau over R. The goal test is a probe of a witness index
// registered on S before the seed is inserted.
func ImpliesIND(db *schema.Database, sigma []deps.Dependency, goal deps.IND, opt Options) (Result, error) {
	return implies(db, sigma, goal, opt, "chase.ind", (*engine).seedIND)
}

func (e *engine) seedIND(goal deps.IND) (err error) {
	ls, _ := e.db.Scheme(goal.LRel)
	rs, _ := e.db.Scheme(goal.RRel)
	e.goalKind = goalIND
	if e.goalXs, err = positionsInto(e.goalXs, ls, goal.X); err != nil {
		return err
	}
	if e.goalYs, err = positionsInto(e.goalYs, rs, goal.Y); err != nil {
		return err
	}
	// The goal's own witness index, registered before any tuple exists so
	// it sees every insert (including the seed itself when LRel == RRel).
	// The index object is part of the engine's pooled scratch; reset
	// unregisters it (see engine.reset), so re-registration here reuses
	// both the object and the popped watcher slot.
	rri := e.relIdx[goal.RRel]
	if e.gpi == nil {
		e.gpi = &projIndex{keys: intern.New(len(e.goalYs), 16)}
	}
	e.gpi.pos = e.goalYs
	e.gpi.reset()
	e.rels[rri].watchers = append(e.rels[rri].watchers, e.gpi)
	e.gpiRel = rri
	e.goalT1 = resizeI32(e.goalT1, ls.Width())
	for i := range e.goalT1 {
		e.goalT1[i] = e.newNull()
	}
	_, err = e.insert(e.relIdx[goal.LRel], e.goalT1)
	return err
}

// ImpliesRD tests sigma ⊨ goal for an RD goal R[X = Y] by chasing the
// one-tuple tableau over R (Proposition 4.3 is an instance).
func ImpliesRD(db *schema.Database, sigma []deps.Dependency, goal deps.RD, opt Options) (Result, error) {
	return implies(db, sigma, goal, opt, "chase.rd", (*engine).seedRD)
}

func (e *engine) seedRD(goal deps.RD) (err error) {
	sch, _ := e.db.Scheme(goal.Rel)
	e.goalKind = goalRD
	if e.goalXs, err = positionsInto(e.goalXs, sch, goal.X); err != nil {
		return err
	}
	if e.goalYs, err = positionsInto(e.goalYs, sch, goal.Y); err != nil {
		return err
	}
	e.goalT1 = resizeI32(e.goalT1, sch.Width())
	for i := range e.goalT1 {
		e.goalT1[i] = e.newNull()
	}
	_, err = e.insert(e.relIdx[goal.Rel], e.goalT1)
	return err
}

// Implies dispatches on the kind of the goal dependency.
func Implies(db *schema.Database, sigma []deps.Dependency, goal deps.Dependency, opt Options) (Result, error) {
	switch g := goal.(type) {
	case deps.FD:
		return ImpliesFD(db, sigma, g, opt)
	case deps.IND:
		return ImpliesIND(db, sigma, g, opt)
	case deps.RD:
		return ImpliesRD(db, sigma, g, opt)
	default:
		return Result{}, fmt.Errorf("chase: cannot test implication of a %v goal", goal.Kind())
	}
}

// Complete chases a concrete seed database to a fixpoint under sigma and
// returns the completed database: the least (up to null naming) extension
// of the seed satisfying sigma's INDs in which sigma's FDs have been used
// to equate values. Values of the seed act as distinct constants; if
// sigma's FDs force two distinct seed values to be equal, Complete returns
// an error (the seed contradicts sigma). It also errors if the chase does
// not terminate within the budget.
//
// Section 7's counterexample databases (Figs 7.1, 7.4, 7.5) are built this
// way: a small seed in relation F, completed under (a subset of) Σ.
func Complete(seed *data.Database, sigma []deps.Dependency, opt Options) (*data.Database, error) {
	e, err := acquireEngine(seed.Scheme(), sigma, opt)
	if err != nil {
		return nil, err
	}
	out, err := e.complete(seed, opt)
	e.release(err)
	return out, err
}

func (e *engine) complete(seed *data.Database, opt Options) (*data.Database, error) {
	sp := opt.Span.StartSpan("chase.complete")
	defer sp.End()
	for _, rel := range seed.Scheme().Names() {
		r, _ := seed.Relation(rel)
		ri := e.relIdx[rel]
		for _, t := range r.Tuples() {
			row := make([]int32, len(t))
			for i, v := range t {
				row[i] = e.newConst(string(v))
			}
			if _, err := e.insert(ri, row); err != nil {
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
