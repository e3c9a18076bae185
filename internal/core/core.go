// Package core is the public facade of the library: a System holds a
// database scheme and a set Σ of dependencies and answers implication
// queries, dispatching to the strongest engine that is exact for the
// fragment at hand:
//
//   - Σ and goal all INDs: the Section 3 decision procedure — exact for
//     both finite and unrestricted implication (Theorem 3.1), with formal
//     IND1–IND3 proofs and finite counterexamples;
//   - Σ and goal all FDs: attribute-set closure — exact, with Armstrong
//     derivations;
//   - Σ and goal made of FDs (any shape) and UNARY INDs: the KCV-style
//     engine — exact for both semantics, exhibiting the Theorem 4.4 gap;
//   - anything else: the chase — sound but, the general problem being
//     undecidable (Mitchell; Chandra–Vardi), necessarily incomplete; the
//     verdict is three-valued and budgeted.
package core

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"indfd/internal/chase"
	"indfd/internal/data"
	"indfd/internal/deps"
	"indfd/internal/fd"
	"indfd/internal/ind"
	"indfd/internal/obs"
	"indfd/internal/schema"
	"indfd/internal/search"
	"indfd/internal/unary"
)

// Verdict is a three-valued implication answer.
type Verdict int

const (
	// Unknown means the engine could not decide within its budget (only
	// possible for the general FD+IND fragment, which is undecidable).
	Unknown Verdict = iota
	// Yes means Σ implies the goal.
	Yes
	// No means Σ does not imply the goal.
	No
)

// String renders the verdict.
func (v Verdict) String() string {
	switch v {
	case Yes:
		return "yes"
	case No:
		return "no"
	default:
		return "unknown"
	}
}

// Answer is the result of an implication query.
type Answer struct {
	Verdict Verdict
	// Engine names the engine that produced the verdict: "ind", "fd",
	// "unary", or "chase".
	Engine string
	// Proof is a human-readable derivation when the verdict is Yes and
	// the engine produces proofs (ind, fd).
	Proof string
	// Counterexample is a finite database satisfying Σ and violating the
	// goal, when the engine produces one (Verdict == No, engines ind and
	// chase; for unary No verdicts under finite semantics no finite
	// counterexample generator is provided).
	Counterexample *data.Database
	// INDStats is the Corollary 3.2 search's work (expanded / generated /
	// visited expressions, frontier peak, chain length) whenever the ind
	// engine ran — including the general engine's IND fast path.
	INDStats *ind.Stats
	// ChaseRounds and ChaseTuples report the chase engine's work when it
	// ran: rounds executed and final tableau size.
	ChaseRounds int
	ChaseTuples int
	// Derivation is the chase's minimal proof DAG, set when the chase
	// answered Yes and Options.Provenance was on: leaves are the tableau's
	// seed tuples, internal nodes are the FD/IND/RD firings that reach the
	// goal. Render it with String or DOT, check it with Verify.
	Derivation *chase.Derivation
	// Trace is this query's span tree (engine dispatch down to chase
	// rounds), nil when no registry was supplied. Its root has ended and
	// nothing writes to the tree once the query returns.
	Trace *obs.Span
	// DepProfile is the per-dependency cost attribution, set when
	// Options.Profile was on and the engine that ran supports profiling
	// (chase and the Corollary 3.2 IND search; the polynomial fd/unary
	// closures do not iterate per member and report none). It is set on
	// deadline errors too, attributing the partial work.
	DepProfile *obs.DepProfile
	// Footprint lists the Σ members the chase's answer depends on, as
	// ascending positions in Relevant(goal): the derivation's members
	// when provenance extracted one, else the members the chase fired or
	// scanned (Options.Footprint or Options.Profile). Nil means the chase
	// captured nothing (or did not run); empty means the answer depends
	// on no member. AnswerTags maps it to the cache's per-member
	// invalidation tags; it is deterministic for a given query, unlike
	// Trace/DepProfile.
	Footprint []int
}

// Options configures a query.
type Options struct {
	// ChaseMaxTuples bounds the chase when the general engine is used.
	ChaseMaxTuples int
	// SearchFallback enables a bounded finite-counterexample search when
	// the chase is inconclusive; a hit turns Unknown into No.
	SearchFallback bool
	// Provenance makes the chase record per-tuple and per-union origins
	// and extract a Derivation on Yes verdicts. It never changes
	// verdicts, traces, or counters (differential tests pin this), and
	// costs nothing when off; the ind/fd engines produce proofs
	// unconditionally and ignore it.
	Provenance bool
	// Profile makes the chase and IND engines attribute their work —
	// firings, tuples produced, tuples scanned, scan time, rounds active
	// — to individual members of Σ, reported as Answer.DepProfile. Like
	// Provenance it never changes verdicts, traces, or counters, and
	// costs nothing when off.
	Profile bool
	// Footprint makes the chase record which members of Σ it touched
	// (Answer.Footprint) without the profiler's scan timers — cheap
	// enough for every cacheable request. Like Profile it never changes
	// verdicts, traces, or counters.
	Footprint bool
	// Obs, when non-nil, collects every engine's counters, gauges and
	// histograms for this query and gives the Answer a span tree. A nil
	// registry makes instrumentation free (see internal/obs).
	Obs *obs.Registry
	// NoTrace builds no span tree even when Obs is set: Answer.Trace
	// stays nil, and the engines' counters still reach Obs. A caller
	// that keeps no tree for the query (depserve's batch goals, or any
	// request the flight recorder will not retain) sets it.
	NoTrace bool
	// Ctx, when non-nil, imposes a cooperative deadline on the engines
	// whose cost the paper proves can blow up: the chase (checked once
	// per round), the Corollary 3.2 IND search (checked every few
	// expansions) and the counterexample search (checked per candidate).
	// On cancellation the query returns the context's error together
	// with an Answer carrying the partial work counters (ChaseRounds,
	// ChaseTuples, INDStats) — a resident server turns this into a 503
	// with partial stats instead of a wedged worker. The polynomial fd
	// and unary engines always run to completion. A nil Ctx never
	// cancels.
	Ctx context.Context
	// ChasePool, when non-nil, recycles chase engine state across queries
	// keyed by a (schema, sigma) fingerprint, making warm repeat queries
	// nearly allocation-free (see chase.EnginePool). Safe to share across
	// concurrent queries.
	ChasePool *chase.EnginePool
}

// Goal is an implication goal together with its text, Dep.String(),
// rendered once by a caller that shows the goal anyway (a response, a
// log line). GoalKey, ImpliesGoal and ExplainGoal reuse the text for
// the cache key, the span attribute and an fd proof's header instead
// of rendering the goal again. An empty Text is rendered on demand.
type Goal struct {
	Dep  deps.Dependency
	Text string
}

// text returns the goal's text, rendering it when the caller did not.
func (g Goal) text() string {
	if g.Text != "" {
		return g.Text
	}
	return g.Dep.String()
}

// compIndex is one IND-connected component of Σ with everything a query
// over it needs precomputed: the members (Σ insertion order), their
// kind projections, and their canonical keys sorted — the fingerprint
// body and the cache's tag order — with each member's rank among them.
// Built once per Add, read by every query.
type compIndex struct {
	members []deps.Dependency
	fds     []deps.FD
	inds    []deps.IND
	keys    []string // member Key()s, sorted
	rank    []int    // rank[i] is the index in keys of members[i]'s key
	// provers holds the compiled FD closure per relation (see
	// fd.Prover), present on the indexes Add precomputes; the throwaway
	// indexes built per bridging-IND query skip the compile because an
	// IND goal never consults an FD prover.
	provers map[string]*fd.Prover
	// canon is the database's canonical render when reindex compiled
	// the index; "" on the per-query merged indexes and on emptyComp.
	// prefix and poolKey hold only while the database still renders so
	// (current): a scheme added after Add changes it.
	canon string
	// prefix is the SHA-256 state after the fingerprint's component part
	// (see QueryKey), marshaled; nil when the hash cannot marshal it.
	prefix []byte
	// poolKey is chase.PoolKey(db, members), the chase engine pool's
	// bucket for this component, handed to every chase over it.
	poolKey uint64
	// Fragment flags over the members alone (the goal folds in at
	// dispatch): vacuously true when the component is empty.
	allINDs, allFDs, allUnary bool
}

func buildCompIndex(members []deps.Dependency) *compIndex {
	ci := &compIndex{
		members: slices.Clip(members),
		allINDs: true, allFDs: true, allUnary: true,
	}
	memberKey := make([]string, len(members))
	byKey := make([]int, len(members))
	for i, d := range members {
		memberKey[i] = d.Key()
		byKey[i] = i
		switch dd := d.(type) {
		case deps.FD:
			ci.fds = append(ci.fds, dd)
			ci.allINDs = false
		case deps.IND:
			ci.inds = append(ci.inds, dd)
			ci.allFDs = false
			if dd.Width() != 1 {
				ci.allUnary = false
			}
		default:
			ci.allINDs, ci.allFDs, ci.allUnary = false, false, false
		}
	}
	slices.SortStableFunc(byKey, func(i, j int) int {
		return strings.Compare(memberKey[i], memberKey[j])
	})
	ci.keys = make([]string, len(members))
	ci.rank = make([]int, len(members))
	for j, at := range byKey {
		ci.keys[j] = memberKey[at]
		ci.rank[at] = j
	}
	return ci
}

// compile builds the per-relation FD provers; called on the indexes
// that outlive a single query (everything reindex stores).
func (ci *compIndex) compile() *compIndex {
	ci.provers = make(map[string]*fd.Prover)
	for _, f := range ci.fds {
		if _, ok := ci.provers[f.Rel]; !ok {
			ci.provers[f.Rel] = fd.NewProver(f.Rel, ci.fds)
		}
	}
	return ci
}

// prover returns the compiled FD closure for rel; nil (a valid empty
// prover) when rel has no FDs. An index that skipped compiling — the
// per-query bridging case — compiles on the spot rather than answer
// from an empty FD set.
func (ci *compIndex) prover(rel string) *fd.Prover {
	if p, ok := ci.provers[rel]; ok {
		return p
	}
	if ci.provers == nil && len(ci.fds) > 0 {
		return fd.NewProver(rel, ci.fds)
	}
	return nil
}

// current reports whether the index's precomputed keys still describe
// db: it was stored by reindex, and no scheme was added since.
func (ci *compIndex) current(db *schema.Database) bool {
	return ci.canon != "" && ci.canon == db.Canonical()
}

// emptyComp is the index of a goal component Σ says nothing about.
var emptyComp = buildCompIndex(nil).compile()

// System is a database scheme plus a dependency set Σ.
type System struct {
	db    *schema.Database
	sigma *deps.Set
	// comp maps every relation Σ names to its IND-connected component
	// root, and comps holds each component's precompiled index. Both
	// are rebuilt eagerly by Add — queries only read them, so a
	// compiled System is safe to share across goroutines (registry
	// entries and batch workers do).
	comp  map[string]string
	comps map[string]*compIndex
}

// NewSystem creates a System over the scheme.
func NewSystem(db *schema.Database) *System {
	return &System{db: db, sigma: deps.NewSet()}
}

// DB returns the database scheme.
func (s *System) DB() *schema.Database { return s.db }

// Sigma returns the current dependency set in insertion order.
func (s *System) Sigma() []deps.Dependency { return s.sigma.All() }

// Add validates and inserts dependencies into Σ. EMVDs are not accepted
// (they have their own engine in the emvd package).
func (s *System) Add(ds ...deps.Dependency) error {
	for _, d := range ds {
		if d.Kind() == deps.KindEMVD {
			return fmt.Errorf("core: EMVDs are not supported in a System; use the emvd package")
		}
		if err := d.Validate(s.db); err != nil {
			return err
		}
	}
	s.sigma.Add(ds...)
	s.reindex()
	return nil
}

// reindex rebuilds the IND-connectivity component index after Σ changed.
func (s *System) reindex() {
	parent := map[string]string{}
	var find func(string) string
	find = func(x string) string {
		p, ok := parent[x]
		if !ok || p == x {
			if !ok {
				parent[x] = x
			}
			return x
		}
		root := find(p)
		parent[x] = root
		return root
	}
	for _, d := range s.sigma.All() {
		if ind, ok := d.(deps.IND); ok {
			ra, rb := find(ind.LRel), find(ind.RRel)
			if ra != rb {
				parent[rb] = ra
			}
		}
	}
	s.comp = make(map[string]string)
	byRoot := make(map[string][]deps.Dependency)
	rootOf := func(rel string) string {
		root := find(rel)
		s.comp[rel] = root
		return root
	}
	for _, d := range s.sigma.All() {
		var root string
		switch dd := d.(type) {
		case deps.FD:
			root = rootOf(dd.Rel)
		case deps.RD:
			root = rootOf(dd.Rel)
		case deps.IND:
			root = rootOf(dd.LRel)
			rootOf(dd.RRel)
		default:
			continue
		}
		byRoot[root] = append(byRoot[root], d)
	}
	s.comps = make(map[string]*compIndex, len(byRoot))
	canon := s.db.Canonical()
	for root, members := range byRoot {
		ci := buildCompIndex(members).compile()
		ci.canon = canon
		ci.prefix = prefixState(canon, ci.keys)
		ci.poolKey = chase.PoolKey(s.db, ci.members)
		s.comps[root] = ci
	}
}

// relevantIndex returns the precompiled component index for the goal's
// IND-connected component. Goals bridging two components (an IND whose
// sides no Σ member connects) get a merged index built on the fly.
func (s *System) relevantIndex(goal deps.Dependency) *compIndex {
	rootOf := func(rel string) string {
		if root, ok := s.comp[rel]; ok {
			return root
		}
		return rel
	}
	lookup := func(root string) *compIndex {
		if ci, ok := s.comps[root]; ok {
			return ci
		}
		return emptyComp
	}
	switch g := goal.(type) {
	case deps.FD:
		return lookup(rootOf(g.Rel))
	case deps.RD:
		return lookup(rootOf(g.Rel))
	case deps.IND:
		ra, rb := rootOf(g.LRel), rootOf(g.RRel)
		if ra == rb {
			return lookup(ra)
		}
		a, b := lookup(ra), lookup(rb)
		if len(a.members) == 0 {
			return b
		}
		if len(b.members) == 0 {
			return a
		}
		// Merge in Σ insertion order so engine behavior matches a Σ
		// restricted to the two components.
		merged := make([]deps.Dependency, 0, len(a.members)+len(b.members))
		want := map[string]bool{ra: true, rb: true}
		for _, d := range s.sigma.All() {
			var root string
			switch dd := d.(type) {
			case deps.FD:
				root = rootOf(dd.Rel)
			case deps.RD:
				root = rootOf(dd.Rel)
			case deps.IND:
				root = rootOf(dd.LRel)
			}
			if want[root] {
				merged = append(merged, d)
			}
		}
		return buildCompIndex(merged)
	default:
		return buildCompIndex(s.sigma.All())
	}
}

// relevant returns the members of Σ over relations in the same connected
// component as the goal's relations, where two relations are connected
// when an IND of Σ spans them. Dependencies outside the component cannot
// affect the implication: a counterexample over the component extends to
// the full scheme with empty relations elsewhere, and any model of Σ
// restricts to a model of the component. Restricting keeps queries about
// one part of a large scheme in the strongest exact engine.
func (s *System) relevant(goal deps.Dependency) []deps.Dependency {
	// The component index is precomputed by Add; a relation no IND
	// touches roots its own singleton component. The returned slice is
	// shared and must be treated as read-only by every engine.
	return s.relevantIndex(goal).members
}

// Relevant is the exported view of relevant: the members of Σ that can
// affect an implication query for goal (the IND-connected component of
// the goal's relations). The answer cache keys on exactly this set —
// the Answer is a function of (scheme, Relevant(goal), goal, mode,
// options) — so edits outside the component leave cached keys valid.
func (s *System) Relevant(goal deps.Dependency) []deps.Dependency {
	return s.relevant(goal)
}

// AnswerTags maps an answer to the canonical Key()s of the members of
// Relevant(goal) it depended on, for the cache's per-member
// invalidation: the members its Footprint names (a chase derivation's
// rules, or the members the chase touched), else — the closed-form
// engines report none — the whole component. Coarser is always sound:
// tagging an answer with extra members only means an edit to them
// invalidates an entry it didn't need to. The tags come sorted, the
// order AnswerCache.PutTagged keeps without copying; the returned slice
// may alias the index and must not be mutated.
func (s *System) AnswerTags(a *Answer, goal deps.Dependency) []string {
	ci := s.relevantIndex(goal)
	if a.Footprint == nil || len(a.Footprint) == len(ci.keys) {
		// No footprint, or one naming every member (its positions are
		// distinct): the whole component.
		return ci.keys
	}
	// Mark the rank of each member the footprint names, then read the
	// marks in rank order: sorted tags without a sort.
	var small [4]uint64
	marks := small[:]
	if n := (len(ci.keys) + 63) / 64; n > len(small) {
		marks = make([]uint64, n)
	}
	for _, at := range a.Footprint {
		r := ci.rank[at]
		marks[r/64] |= 1 << (r % 64)
	}
	tags := make([]string, 0, len(a.Footprint))
	for w, m := range marks {
		for ; m != 0; m &= m - 1 {
			tags = append(tags, ci.keys[w*64+bits.TrailingZeros64(m)])
		}
	}
	return tags
}

// classify folds the goal's kind into the component's precomputed
// fragment flags and picks an engine.
func classify(ci *compIndex, goal deps.Dependency) string {
	allINDs, allFDs, allUnary := ci.allINDs, ci.allFDs, ci.allUnary
	switch g := goal.(type) {
	case deps.IND:
		allFDs = false
		if g.Width() != 1 {
			allUnary = false
		}
	case deps.FD:
		// FDs of any shape stay in the unary (KCV) fragment.
		allINDs = false
	default:
		allINDs, allFDs, allUnary = false, false, false
	}
	switch {
	case allINDs:
		return "ind"
	case allFDs:
		return "fd"
	case allUnary:
		return "unary"
	default:
		return "chase"
	}
}

// chasePoolKey is the engine pool key of a chase over ci's members:
// the one reindex computed while it is current, else computed now.
func (s *System) chasePoolKey(ci *compIndex) uint64 {
	if ci.current(s.db) {
		return ci.poolKey
	}
	return chase.PoolKey(s.db, ci.members)
}

// Implies answers whether Σ implies the goal over all (possibly infinite)
// databases.
func (s *System) Implies(goal deps.Dependency, opt Options) (Answer, error) {
	return s.query(Goal{Dep: goal}, opt, false)
}

// ImpliesFinite answers whether Σ implies the goal over finite databases.
// For pure INDs and pure FDs this coincides with Implies (Theorem 3.1 and
// the classical FD theory); for unary FDs+INDs the KCV cycle rule is
// applied; for the general fragment the chase gives Yes answers (sound
// for finite implication too) and finite counterexamples give No answers,
// with Unknown otherwise.
func (s *System) ImpliesFinite(goal deps.Dependency, opt Options) (Answer, error) {
	return s.query(Goal{Dep: goal}, opt, true)
}

// ImpliesGoal is Implies (finite false) or ImpliesFinite (finite true)
// for a goal whose text its caller already rendered.
func (s *System) ImpliesGoal(g Goal, opt Options, finite bool) (Answer, error) {
	return s.query(g, opt, finite)
}

func (s *System) query(g Goal, opt Options, finite bool) (Answer, error) {
	goal := g.Dep
	if err := goal.Validate(s.db); err != nil {
		return Answer{}, err
	}
	ci := s.relevantIndex(goal)
	relevant := ci.members
	engine := classify(ci, goal)
	var sp *obs.Span
	if !opt.NoTrace {
		sp = opt.Obs.StartSpan("core.query")
	}
	if sp != nil {
		// Rendered at most once per query: an fd proof's header reuses it.
		g.Text = g.text()
		sp.SetAttr("goal", g.Text)
	}
	if finite {
		sp.SetAttr("mode", "finite")
	} else {
		sp.SetAttr("mode", "unrestricted")
	}
	sp.SetAttr("dispatch", engine)
	sp.SetInt("sigma_relevant", int64(len(relevant)))

	var a Answer
	var err error
	switch engine {
	case "ind":
		a, err = s.queryIND(ci, goal.(deps.IND), opt, sp)
	case "fd":
		a, err = s.queryFD(ci, g, opt, sp)
	case "unary":
		a, err = s.queryUnary(relevant, goal, opt, finite, sp)
	default:
		a, err = s.queryChase(ci, g, opt, sp)
	}
	if err != nil {
		// a may carry partial work counters (a cancelled chase or IND
		// search); thread the span tree through so callers can report
		// what was spent before the deadline hit.
		sp.SetAttr("error", err.Error())
		sp.End()
		a.Trace = sp
		return a, err
	}
	// a.Engine can differ from the dispatch class: the general engine's
	// fast paths answer as "ind" or "fd".
	sp.SetAttr("engine", a.Engine)
	sp.SetAttr("verdict", a.Verdict.String())
	sp.End()
	a.Trace = sp
	return a, nil
}

// decideIND dispatches to the plain or the profiled Corollary 3.2
// search; the profiled run is verdict- and stats-identical.
func decideIND(opt Options, db *schema.Database, sigma []deps.IND, goal deps.IND) (ind.Result, error) {
	if opt.Profile {
		return ind.DecideProfile(opt.Ctx, db, sigma, goal)
	}
	return ind.DecideCtx(opt.Ctx, db, sigma, goal)
}

func (s *System) queryIND(ci *compIndex, goal deps.IND, opt Options, sp *obs.Span) (Answer, error) {
	sigma := ci.inds
	dsp := sp.StartSpan("ind.decide")
	res, err := decideIND(opt, s.db, sigma, goal)
	dsp.SetInt("expanded", int64(res.Stats.Expanded))
	dsp.SetInt("visited", int64(res.Stats.Visited))
	dsp.End()
	res.Stats.Record(opt.Obs)
	if err != nil {
		// A cancelled search carries its partial stats out with the error.
		return Answer{Verdict: Unknown, Engine: "ind", INDStats: &res.Stats, DepProfile: res.Profile}, err
	}
	if res.Implied {
		p, err := ind.FromChain(res.Chain, res.Via)
		if err != nil {
			return Answer{}, err
		}
		return Answer{Verdict: Yes, Engine: "ind", Proof: p.String(), INDStats: &res.Stats, DepProfile: res.Profile}, nil
	}
	csp := sp.StartSpan("ind.counterexample")
	ce, _, err := ind.Counterexample(s.db, sigma, goal)
	csp.End()
	if err != nil {
		return Answer{}, err
	}
	return Answer{Verdict: No, Engine: "ind", Counterexample: ce, INDStats: &res.Stats, DepProfile: res.Profile}, nil
}

func (s *System) queryFD(ci *compIndex, g Goal, opt Options, sp *obs.Span) (Answer, error) {
	goal := g.Dep.(deps.FD)
	psp := sp.StartSpan("fd.prove")
	p, ok := ci.prover(goal.Rel).Prove(goal, opt.Obs)
	psp.End()
	if ok {
		return Answer{Verdict: Yes, Engine: "fd", Proof: p.Render(g.text())}, nil
	}
	return Answer{Verdict: No, Engine: "fd"}, nil
}

func (s *System) queryUnary(relevant []deps.Dependency, goal deps.Dependency, opt Options, finite bool, sp *obs.Span) (Answer, error) {
	usp := sp.StartSpan("unary.closure")
	sys, err := unary.NewObs(s.db, relevant, opt.Obs)
	usp.End()
	if err != nil {
		return Answer{}, err
	}
	var ok bool
	if finite {
		ok, err = sys.ImpliesFinite(goal)
	} else {
		ok, err = sys.ImpliesUnrestricted(goal)
	}
	if err != nil {
		return Answer{}, err
	}
	if ok {
		return Answer{Verdict: Yes, Engine: "unary"}, nil
	}
	return Answer{Verdict: No, Engine: "unary"}, nil
}

func (s *System) queryChase(ci *compIndex, g Goal, opt Options, sp *obs.Span) (Answer, error) {
	goal := g.Dep
	relevant := ci.members
	// Fast path: a goal already provable from the same-class fragment of
	// Σ is implied a fortiori, and those engines produce formal proofs.
	switch dg := goal.(type) {
	case deps.IND:
		dsp := sp.StartSpan("ind.decide")
		res, err := decideIND(opt, s.db, ci.inds, dg)
		dsp.End()
		res.Stats.Record(opt.Obs)
		if err != nil {
			return Answer{Verdict: Unknown, Engine: "ind", INDStats: &res.Stats, DepProfile: res.Profile}, err
		}
		if res.Implied {
			p, err := ind.FromChain(res.Chain, res.Via)
			if err != nil {
				return Answer{}, err
			}
			return Answer{Verdict: Yes, Engine: "ind", Proof: p.String(), INDStats: &res.Stats, DepProfile: res.Profile}, nil
		}
	case deps.FD:
		psp := sp.StartSpan("fd.prove")
		p, ok := ci.prover(dg.Rel).Prove(dg, opt.Obs)
		psp.End()
		if ok {
			return Answer{Verdict: Yes, Engine: "fd", Proof: p.Render(g.text())}, nil
		}
	}
	res, err := chase.Implies(s.db, relevant, goal, chase.Options{
		MaxTuples: opt.ChaseMaxTuples, Obs: opt.Obs, Span: sp, Ctx: opt.Ctx,
		Provenance: opt.Provenance, Profile: opt.Profile, Footprint: opt.Footprint,
		Pool: opt.ChasePool, PoolKey: s.chasePoolKey(ci),
	})
	if err != nil {
		// A cancelled chase returns the rounds and tuples it managed —
		// the partial stats a server reports alongside the 503.
		return Answer{Verdict: Unknown, Engine: "chase",
			ChaseRounds: res.Rounds, ChaseTuples: res.Tuples, DepProfile: res.Profile,
			Footprint: res.Used}, err
	}
	cost := Answer{ChaseRounds: res.Rounds, ChaseTuples: res.Tuples, DepProfile: res.Profile,
		Footprint: res.Used}
	switch res.Verdict {
	case chase.Implied:
		// Chase derivations are sound for unrestricted implication, hence
		// for finite implication as well.
		cost.Verdict, cost.Engine = Yes, "chase"
		cost.Derivation = res.Derivation
		return cost, nil
	case chase.NotImplied:
		// The counterexample is finite, so it refutes both semantics.
		cost.Verdict, cost.Engine, cost.Counterexample = No, "chase", res.Counterexample
		return cost, nil
	default:
		if opt.SearchFallback {
			ce, found, err := search.Counterexample(s.db, relevant, goal, search.Options{
				Domain: 3, MaxTuples: 3, RandomTrials: 300,
				Obs: opt.Obs, Span: sp, Ctx: opt.Ctx,
			})
			if err != nil {
				cost.Verdict, cost.Engine = Unknown, "chase+search"
				return cost, err
			}
			if found {
				cost.Verdict, cost.Engine, cost.Counterexample = No, "chase+search", ce
				return cost, nil
			}
		}
		cost.Verdict, cost.Engine = Unknown, "chase"
		return cost, nil
	}
}

// Satisfies reports whether a concrete database obeys every dependency of
// Σ, returning the first violated one otherwise.
func (s *System) Satisfies(db *data.Database) (bool, deps.Dependency, error) {
	return db.SatisfiesAll(s.sigma.All())
}

// Explain answers an implication query with a human-readable account of
// why: a formal derivation for the ind/fd engines, the chase's
// provenance derivation for chase Yes verdicts when Options.Provenance
// is set, the cardinality-cycle explanation for the unary engine (the
// Theorem 4.4 counting argument), or the counterexample for negative
// answers. The string is empty when the engine has nothing beyond the
// verdict (chase Yes without provenance, or Unknown).
func (s *System) Explain(goal deps.Dependency, opt Options, finite bool) (Answer, string, error) {
	return s.ExplainGoal(Goal{Dep: goal}, opt, finite)
}

// ExplainGoal is Explain for a goal whose text its caller already
// rendered.
func (s *System) ExplainGoal(g Goal, opt Options, finite bool) (Answer, string, error) {
	goal := g.Dep
	a, err := s.query(g, opt, finite)
	if err != nil {
		return a, "", err
	}
	switch {
	case a.Proof != "":
		return a, a.Proof, nil
	case a.Derivation != nil:
		return a, a.Derivation.String(), nil
	case a.Engine == "unary":
		sys, err := unary.New(s.db, s.relevant(goal))
		if err != nil {
			return a, "", err
		}
		ex, err := sys.Explain(goal)
		if err != nil {
			return a, "", err
		}
		return a, ex.String(), nil
	case a.Counterexample != nil:
		return a, "counterexample:\n" + a.Counterexample.String(), nil
	default:
		return a, "", nil
	}
}
