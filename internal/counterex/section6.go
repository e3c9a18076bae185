package counterex

import (
	"fmt"

	"indfd/internal/data"
	"indfd/internal/deps"
	"indfd/internal/enum"
	"indfd/internal/schema"
	"indfd/internal/unary"
)

// Section6 is the Theorem 6.1 construction for a given k: relation
// schemes R_0[AB], ..., R_k[AB], the dependency set
//
//	Σ = {R_i: A -> B, R_i[A] ⊆ R_{i+1}[B] : 0 ≤ i ≤ k}   (indices mod k+1)
//
// and σ = R_0[B] ⊆ R_k[A]. Σ finitely implies σ by a counting argument,
// but Γ = Σ ∪ {trivial FDs, INDs, RDs} is closed under k-ary finite
// implication, so no k-ary complete axiomatization exists for finite
// implication of FDs and INDs (with or without RDs).
type Section6 struct {
	K     int
	DB    *schema.Database
	Sigma []deps.Dependency
	// Deltas are the k+1 INDs of Σ; any ≤ k-subset of Γ misses one.
	Deltas []deps.IND
	Goal   deps.IND
}

// RelName returns the name of R_i.
func (s Section6) RelName(i int) string { return fmt.Sprintf("R%d", i) }

// NewSection6 builds the construction for k ≥ 1.
func NewSection6(k int) (*Section6, error) {
	if k < 1 {
		return nil, fmt.Errorf("counterex: Section 6 needs k ≥ 1, got %d", k)
	}
	s := &Section6{K: k}
	var schemes []*schema.Scheme
	for i := 0; i <= k; i++ {
		schemes = append(schemes, schema.MustScheme(s.RelName(i), "A", "B"))
	}
	s.DB = schema.MustDatabase(schemes...)
	for i := 0; i <= k; i++ {
		fd := deps.NewFD(s.RelName(i), deps.Attrs("A"), deps.Attrs("B"))
		ind := deps.NewIND(s.RelName(i), deps.Attrs("A"), s.RelName((i+1)%(k+1)), deps.Attrs("B"))
		s.Sigma = append(s.Sigma, fd, ind)
		s.Deltas = append(s.Deltas, ind)
	}
	s.Goal = deps.NewIND(s.RelName(0), deps.Attrs("B"), s.RelName(k), deps.Attrs("A"))
	return s, nil
}

// Universe returns the dependency universe of the Section 6 argument: FDs
// with at most one attribute on the left and exactly one on the right
// (including the R: ∅ -> A constants of Case 1), INDs of width at most 2,
// and unary RDs, over the construction's scheme.
func (s *Section6) Universe() []deps.Dependency {
	var out []deps.Dependency
	for _, name := range s.DB.Names() {
		sch, _ := s.DB.Scheme(name)
		attrs := sch.Attrs()
		for _, y := range attrs {
			out = append(out, deps.NewFD(name, nil, []schema.Attribute{y}))
			for _, x := range attrs {
				out = append(out, deps.NewFD(name, []schema.Attribute{x}, []schema.Attribute{y}))
			}
		}
	}
	for _, d := range enum.INDs(s.DB, enum.Options{MaxWidth: 2}) {
		out = append(out, d)
	}
	for _, r := range enum.RDs(s.DB) {
		out = append(out, r)
	}
	return out
}

// Gamma returns Γ = Σ ∪ {trivial members of the universe}.
func (s *Section6) Gamma() []deps.Dependency {
	gamma := deps.NewSet(s.Sigma...)
	for _, d := range s.Universe() {
		if d.Trivial() {
			gamma.Add(d)
		}
	}
	return gamma.All()
}

// UnarySystem returns the unary-implication engine loaded with Σ (all of
// Σ is unary, so the engine decides finite implication exactly).
func (s *Section6) UnarySystem() (*unary.System, error) {
	return unary.New(s.DB, s.Sigma)
}

// ArmstrongDatabase builds the Fig 6.1 database d_j for the omitted IND
// δ_j = R_j[A] ⊆ R_{j+1}[B]: a finite database that obeys exactly
// (Γ − δ_j) ∩ Universe(). The paper exhibits d for j = k (δ = R_k[A] ⊆
// R_0[B]) and appeals to symmetry; here the construction is rotated so
// relation R_{(j+1+t) mod (k+1)} plays the role of the paper's r_t.
//
// In the paper's coordinates (j = k):
//
//	r_0 = {((0,0),(0,k+1)), ((1,0),(1,k+1)), ((2,0),(1,k+1))}
//	r_i = {((m,i),(m,i-1)) : 0 ≤ m ≤ 2i+1} ∪ {((2i+2,i),(2i+1,i-1))}
//
// Every A column is injective (so R_i: A -> B holds), each B column
// repeats one value (so R_i: B -> A and the ∅ -> X constants fail), the
// pair namespaces make R_t[A] ⊆ R_{t+1}[B] the only candidate nontrivial
// INDs, and the broken link fails because r_{t+1}[B] has one extra value.
func (s *Section6) ArmstrongDatabase(j int) (*data.Database, error) {
	k := s.K
	if j < 0 || j > k {
		return nil, fmt.Errorf("counterex: no delta index %d", j)
	}
	db := data.NewDatabase(s.DB)
	// paper index t (0..k) -> actual relation (j+1+t) mod (k+1).
	rel := func(t int) string { return s.RelName((j + 1 + t) % (k + 1)) }
	// r_0: three tuples; B entries live in the otherwise-unused namespace
	// k+1.
	db.MustInsert(rel(0),
		data.Tuple{data.Pair(0, 0), data.Pair(0, k+1)},
		data.Tuple{data.Pair(1, 0), data.Pair(1, k+1)},
		data.Tuple{data.Pair(2, 0), data.Pair(1, k+1)},
	)
	for t := 1; t <= k; t++ {
		for m := 0; m <= 2*t+1; m++ {
			db.MustInsert(rel(t), data.Tuple{data.Pair(m, t), data.Pair(m, t-1)})
		}
		db.MustInsert(rel(t), data.Tuple{data.Pair(2*t+2, t), data.Pair(2*t+1, t-1)})
	}
	return db, nil
}

// Section6Report summarizes the mechanized verification of Theorem 6.1.
type Section6Report struct {
	// SigmaImpliesGoalFinitely confirms Σ ⊨fin σ (unary engine).
	SigmaImpliesGoalFinitely bool
	// GoalNotImpliedUnrestrictedly confirms Σ ⊭ σ.
	GoalNotImpliedUnrestrictedly bool
	// GoalNotInGamma confirms σ ∉ Γ.
	GoalNotInGamma bool
	// ArmstrongExact[j] reports that d_j obeys exactly (Γ − δ_j) within
	// the universe.
	ArmstrongExact []bool
	// UniverseSize is the number of candidate dependencies checked.
	UniverseSize int
}

// Ok reports whether every check passed.
func (r Section6Report) Ok() bool {
	if !r.SigmaImpliesGoalFinitely || !r.GoalNotImpliedUnrestrictedly || !r.GoalNotInGamma {
		return false
	}
	for _, e := range r.ArmstrongExact {
		if !e {
			return false
		}
	}
	return true
}

// Verify runs the full mechanized Theorem 6.1 argument:
//
//  1. Σ ⊨fin σ but Σ ⊭ σ (unary engine);
//  2. σ ∉ Γ;
//  3. for every j, the Armstrong database d_j obeys exactly (Γ − δ_j)
//     restricted to the universe.
//
// Together with the pigeonhole fact that any T ⊆ Γ with |T| ≤ k misses
// some δ_j, (3) yields that Γ is closed under k-ary finite implication
// (if T ⊨fin τ, then d_j ⊨ τ since d_j ⊨ T, so τ ∈ Γ − δ_j ⊆ Γ), while
// (1) and (2) show it is not closed under finite implication — the
// Theorem 5.1 witness.
func (s *Section6) Verify() (Section6Report, error) {
	var rep Section6Report
	sys, err := s.UnarySystem()
	if err != nil {
		return rep, err
	}
	fin, err := sys.ImpliesFinite(s.Goal)
	if err != nil {
		return rep, err
	}
	rep.SigmaImpliesGoalFinitely = fin
	unr, err := sys.ImpliesUnrestricted(s.Goal)
	if err != nil {
		return rep, err
	}
	rep.GoalNotImpliedUnrestrictedly = !unr

	gamma := deps.NewSet(s.Gamma()...)
	rep.GoalNotInGamma = !gamma.Contains(s.Goal)

	universe := s.Universe()
	rep.UniverseSize = len(universe)
	for j := 0; j <= s.K; j++ {
		d, err := s.ArmstrongDatabase(j)
		if err != nil {
			return rep, err
		}
		fails, err := exactnessFailures(universe, d, gamma.Minus(s.Deltas[j]))
		if err != nil {
			return rep, err
		}
		rep.ArmstrongExact = append(rep.ArmstrongExact, len(fails) == 0)
	}
	return rep, nil
}

// ExactnessFailures lists, for diagnostic use, the universe members whose
// satisfaction in d_j disagrees with membership in Γ − δ_j.
func (s *Section6) ExactnessFailures(j int) ([]string, error) {
	d, err := s.ArmstrongDatabase(j)
	if err != nil {
		return nil, err
	}
	return exactnessFailures(s.Universe(), d, deps.NewSet(s.Gamma()...).Minus(s.Deltas[j]))
}

// exactnessFailures lists the universe members whose satisfaction in d
// disagrees with membership in want, checking them one after another.
func exactnessFailures(universe []deps.Dependency, d *data.Database, want *deps.Set) ([]string, error) {
	var out []string
	for _, tau := range universe {
		sat, err := d.Satisfies(tau)
		if err != nil {
			return nil, err
		}
		if in := want.Contains(tau); sat != in {
			out = append(out, fmt.Sprintf("%v: satisfied=%v inGamma=%v", tau, sat, in))
		}
	}
	return out, nil
}

// ViolatesAllNontrivialMVDs checks the remark after Theorem 6.1: the
// Armstrong database d_j obeys no nontrivial multivalued dependency, so
// the same proof shows there is no k-ary complete axiomatization for
// finite implication of FDs, INDs and MVDs taken together.
func (s *Section6) ViolatesAllNontrivialMVDs(j int) (bool, error) {
	d, err := s.ArmstrongDatabase(j)
	if err != nil {
		return false, err
	}
	for _, m := range enum.MVDs(s.DB) {
		if m.Trivial() {
			continue
		}
		sat, err := d.Satisfies(m)
		if err != nil {
			return false, err
		}
		if sat {
			return false, nil
		}
	}
	return true, nil
}
