// Package lint turns the paper's theory into a practical design and
// integrity toolkit: it checks concrete databases against FDs, INDs and
// RDs with precise violation reports, repairs referential-integrity
// violations by chasing the missing tuples in, and advises on a schema
// design — derived keys and foreign keys, repeating dependencies the
// designer never wrote (Proposition 4.3), redundant dependencies, and
// consequences that hold only because databases are finite (the
// Theorem 4.4 phenomenon, flagged as warnings since they silently break
// under logical reasoning that ignores finiteness).
package lint

import (
	"fmt"
	"sort"
	"strings"

	"indfd/internal/chase"
	"indfd/internal/data"
	"indfd/internal/deps"
	"indfd/internal/fd"
	"indfd/internal/ind"
	"indfd/internal/obs"
	"indfd/internal/schema"
	"indfd/internal/unary"
)

// Violation pinpoints one way a database breaks a dependency.
type Violation struct {
	// Dep is the violated dependency.
	Dep deps.Dependency
	// Detail is a human-readable description with the offending tuples.
	Detail string
}

// String renders the violation.
func (v Violation) String() string { return fmt.Sprintf("%v: %s", v.Dep, v.Detail) }

// Check returns all violations of sigma in the database, with tuple-level
// detail: for an FD the first conflicting tuple pair per left-hand value,
// for an IND every dangling tuple, for an RD every offending tuple.
func Check(db *data.Database, sigma []deps.Dependency) ([]Violation, error) {
	return CheckObs(db, sigma, nil, nil)
}

// CheckObs is Check publishing its work into reg under the "lint."
// namespace (dependencies checked, violations found, per dependency
// kind), inside a "lint.check" span opened under parent. A nil
// registry and a nil parent cost nothing.
func CheckObs(db *data.Database, sigma []deps.Dependency, reg *obs.Registry, parent *obs.Span) ([]Violation, error) {
	sp := parent.StartSpan("lint.check")
	defer sp.End()
	cDeps := reg.Counter("lint.deps_checked")
	cViol := reg.Counter("lint.violations")
	var out []Violation
	for _, d := range sigma {
		cDeps.Inc()
		if err := d.Validate(db.Scheme()); err != nil {
			return nil, err
		}
		switch dd := d.(type) {
		case deps.FD:
			vs, err := checkFD(db, dd)
			if err != nil {
				return nil, err
			}
			out = append(out, vs...)
		case deps.IND:
			vs, err := checkIND(db, dd)
			if err != nil {
				return nil, err
			}
			out = append(out, vs...)
		case deps.RD:
			vs, err := checkRD(db, dd)
			if err != nil {
				return nil, err
			}
			out = append(out, vs...)
		default:
			return nil, fmt.Errorf("lint: cannot check dependency kind %v", d.Kind())
		}
	}
	cViol.Add(int64(len(out)))
	sp.SetInt("violations", int64(len(out)))
	return out, nil
}

func checkFD(db *data.Database, f deps.FD) ([]Violation, error) {
	rel, _ := db.Relation(f.Rel)
	groups := map[string]data.Tuple{}
	var out []Violation
	reported := map[string]bool{}
	for _, t := range rel.Tuples() {
		xk, err := projectKey(rel, t, f.X)
		if err != nil {
			return nil, err
		}
		prev, ok := groups[xk]
		if !ok {
			groups[xk] = t
			continue
		}
		same, err := agree(rel, prev, t, f.Y)
		if err != nil {
			return nil, err
		}
		if !same && !reported[xk] {
			reported[xk] = true
			out = append(out, Violation{
				Dep:    f,
				Detail: fmt.Sprintf("tuples %v and %v agree on %s but differ on %s", prev, t, schema.JoinAttrs(f.X), schema.JoinAttrs(f.Y)),
			})
		}
	}
	return out, nil
}

func checkIND(db *data.Database, d deps.IND) ([]Violation, error) {
	left, _ := db.Relation(d.LRel)
	right, _ := db.Relation(d.RRel)
	witnesses := map[string]bool{}
	for _, u := range right.Tuples() {
		k, err := projectKey(right, u, d.Y)
		if err != nil {
			return nil, err
		}
		witnesses[k] = true
	}
	var out []Violation
	for _, t := range left.Tuples() {
		k, err := projectKey(left, t, d.X)
		if err != nil {
			return nil, err
		}
		if !witnesses[k] {
			out = append(out, Violation{
				Dep:    d,
				Detail: fmt.Sprintf("tuple %v of %s has no witness in %s", t, d.LRel, d.RRel),
			})
		}
	}
	return out, nil
}

func checkRD(db *data.Database, r deps.RD) ([]Violation, error) {
	rel, _ := db.Relation(r.Rel)
	var out []Violation
	for _, t := range rel.Tuples() {
		same, err := agreeWithin(rel, t, r.X, r.Y)
		if err != nil {
			return nil, err
		}
		if !same {
			out = append(out, Violation{
				Dep:    r,
				Detail: fmt.Sprintf("tuple %v has %s ≠ %s", t, schema.JoinAttrs(r.X), schema.JoinAttrs(r.Y)),
			})
		}
	}
	return out, nil
}

func projectKey(rel *data.Relation, t data.Tuple, attrs []schema.Attribute) (string, error) {
	parts := make([]string, len(attrs))
	for i, a := range attrs {
		p, ok := rel.Scheme().Pos(a)
		if !ok {
			return "", fmt.Errorf("lint: relation %s has no attribute %s", rel.Scheme().Name(), a)
		}
		parts[i] = string(t[p])
	}
	return strings.Join(parts, "\x00"), nil
}

func agree(rel *data.Relation, t, u data.Tuple, attrs []schema.Attribute) (bool, error) {
	kt, err := projectKey(rel, t, attrs)
	if err != nil {
		return false, err
	}
	ku, err := projectKey(rel, u, attrs)
	if err != nil {
		return false, err
	}
	return kt == ku, nil
}

func agreeWithin(rel *data.Relation, t data.Tuple, xs, ys []schema.Attribute) (bool, error) {
	kx, err := projectKey(rel, t, xs)
	if err != nil {
		return false, err
	}
	ky, err := projectKey(rel, t, ys)
	if err != nil {
		return false, err
	}
	return kx == ky, nil
}

// Repair completes the database so every IND of sigma holds, by chasing
// in the missing right-hand tuples (fresh "_k" values fill attributes the
// IND does not determine); FDs and RDs in sigma are enforced as equality
// constraints during the chase and cause an error if the data contradicts
// them on constants. The result contains the original tuples plus the
// repairs; the number of added tuples is returned.
func Repair(db *data.Database, sigma []deps.Dependency, opt chase.Options) (*data.Database, int, error) {
	repaired, err := chase.Complete(db, sigma, opt)
	if err != nil {
		return nil, 0, err
	}
	return repaired, repaired.Size() - db.Size(), nil
}

// Advice is the output of Advise: consequences of the declared
// dependencies that a designer likely wants to know about.
type Advice struct {
	// Keys lists the minimal keys of each relation under the declared FDs.
	Keys map[string][][]schema.Attribute
	// DerivedINDs are nontrivial unary INDs implied by Σ but not already
	// implied by Σ's INDs alone — foreign keys that exist only because of
	// the FD/IND interaction (Proposition 4.2 style).
	DerivedINDs []deps.IND
	// TransitiveINDs are unary INDs implied by Σ's INDs alone but not
	// declared (transitive foreign keys).
	TransitiveINDs []deps.IND
	// DerivedFDs are nontrivial unary FDs implied by Σ but not already
	// implied by Σ's FDs alone (Proposition 4.1 style).
	DerivedFDs []deps.FD
	// DerivedRDs are nontrivial unary RDs implied by Σ (columns forced
	// equal — the Proposition 4.3 phenomenon).
	DerivedRDs []deps.RD
	// FiniteOnly are consequences that hold over finite databases only
	// (Theorem 4.4); they are reported when Σ is unary, where finite
	// implication is decidable.
	FiniteOnly []deps.Dependency
	// Redundant are members of Σ implied by the others.
	Redundant []deps.Dependency
}

// Advise analyzes the dependency set over the scheme. Derived FDs and
// INDs are found with the budgeted chase (sound; a small budget may miss
// some), the finite-only gap with the unary engine when Σ is unary, and
// redundancy with the class engines and the chase.
func Advise(db *schema.Database, sigma []deps.Dependency, opt chase.Options) (Advice, error) {
	adv := Advice{Keys: map[string][][]schema.Attribute{}}
	declared := deps.NewSet(sigma...)

	var fds []deps.FD
	var inds []deps.IND
	allUnary := true
	for _, d := range sigma {
		if err := d.Validate(db); err != nil {
			return adv, err
		}
		switch dd := d.(type) {
		case deps.FD:
			fds = append(fds, dd)
			if len(dd.X) != 1 || len(dd.Y) != 1 {
				allUnary = false
			}
		case deps.IND:
			inds = append(inds, dd)
			if dd.Width() != 1 {
				allUnary = false
			}
		default:
			allUnary = false
		}
	}

	// Candidate unary consequences, tested with the chase.
	for _, name := range db.Names() {
		s, _ := db.Scheme(name)
		for _, a := range s.Attrs() {
			for _, b := range s.Attrs() {
				if a == b {
					continue
				}
				cand := deps.NewFD(name, []schema.Attribute{a}, []schema.Attribute{b})
				if !declared.Contains(cand) && !fd.Implies(fds, cand) {
					res, err := chase.ImpliesFD(db, sigma, cand, opt)
					if err != nil {
						return adv, err
					}
					if res.Verdict == chase.Implied {
						adv.DerivedFDs = append(adv.DerivedFDs, cand)
					}
				}
				if a < b {
					rd := deps.NewRD(name, []schema.Attribute{a}, []schema.Attribute{b})
					res, err := chase.ImpliesRD(db, sigma, rd, opt)
					if err != nil {
						return adv, err
					}
					if res.Verdict == chase.Implied {
						adv.DerivedRDs = append(adv.DerivedRDs, rd)
					}
				}
			}
		}
	}
	for _, ln := range db.Names() {
		ls, _ := db.Scheme(ln)
		for _, rn := range db.Names() {
			rs, _ := db.Scheme(rn)
			for _, a := range ls.Attrs() {
				for _, b := range rs.Attrs() {
					cand := deps.NewIND(ln, []schema.Attribute{a}, rn, []schema.Attribute{b})
					if cand.Trivial() || declared.Contains(cand) {
						continue
					}
					byINDs, err := ind.Implies(db, inds, cand)
					if err != nil {
						return adv, err
					}
					if byINDs {
						adv.TransitiveINDs = append(adv.TransitiveINDs, cand)
						continue
					}
					res, err := chase.ImpliesIND(db, sigma, cand, opt)
					if err != nil {
						return adv, err
					}
					if res.Verdict == chase.Implied {
						adv.DerivedINDs = append(adv.DerivedINDs, cand)
					}
				}
			}
		}
	}

	// Keys per relation, under the declared FDs plus the derived ones (so
	// INV above gets the key {OID} its derived FDs imply).
	allFDs := append(append([]deps.FD(nil), fds...), adv.DerivedFDs...)
	for _, name := range db.Names() {
		s, _ := db.Scheme(name)
		adv.Keys[name] = fd.Keys(s, allFDs)
	}

	// Finite-only consequences (unary fragment).
	if allUnary {
		sys, err := unary.NewObs(db, sigma, opt.Obs)
		if err != nil {
			return adv, err
		}
		adv.FiniteOnly = sys.FiniteGap()
	}

	// Redundancy within Σ.
	for i, d := range sigma {
		rest := make([]deps.Dependency, 0, len(sigma)-1)
		rest = append(rest, sigma[:i]...)
		rest = append(rest, sigma[i+1:]...)
		redundant := false
		switch dd := d.(type) {
		case deps.FD:
			var restFDs []deps.FD
			for _, r := range rest {
				if f, ok := r.(deps.FD); ok {
					restFDs = append(restFDs, f)
				}
			}
			// Try the FD fragment first, then the full chase.
			if fd.Implies(restFDs, dd) {
				redundant = true
			} else if res, err := chase.ImpliesFD(db, rest, dd, opt); err == nil && res.Verdict == chase.Implied {
				redundant = true
			}
		case deps.IND:
			var restINDs []deps.IND
			for _, r := range rest {
				if i2, ok := r.(deps.IND); ok {
					restINDs = append(restINDs, i2)
				}
			}
			if ok, err := ind.Implies(db, restINDs, dd); err == nil && ok {
				redundant = true
			} else if res, err := chase.ImpliesIND(db, rest, dd, opt); err == nil && res.Verdict == chase.Implied {
				redundant = true
			}
		case deps.RD:
			if res, err := chase.ImpliesRD(db, rest, dd, opt); err == nil && res.Verdict == chase.Implied {
				redundant = true
			}
		}
		if redundant {
			adv.Redundant = append(adv.Redundant, d)
		}
	}
	sortAdvice(&adv)
	return adv, nil
}

func sortAdvice(a *Advice) {
	sort.Slice(a.DerivedINDs, func(i, j int) bool { return a.DerivedINDs[i].String() < a.DerivedINDs[j].String() })
	sort.Slice(a.TransitiveINDs, func(i, j int) bool { return a.TransitiveINDs[i].String() < a.TransitiveINDs[j].String() })
	sort.Slice(a.DerivedFDs, func(i, j int) bool { return a.DerivedFDs[i].String() < a.DerivedFDs[j].String() })
	sort.Slice(a.DerivedRDs, func(i, j int) bool { return a.DerivedRDs[i].String() < a.DerivedRDs[j].String() })
}

// String renders the advice as a report.
func (a Advice) String() string {
	var b strings.Builder
	var names []string
	for n := range a.Keys {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		var keys []string
		for _, k := range a.Keys[n] {
			keys = append(keys, "{"+schema.JoinAttrs(k)+"}")
		}
		fmt.Fprintf(&b, "keys of %s: %s\n", n, strings.Join(keys, " "))
	}
	section := func(title string, items []string) {
		if len(items) == 0 {
			return
		}
		fmt.Fprintf(&b, "%s:\n", title)
		for _, it := range items {
			fmt.Fprintf(&b, "  %s\n", it)
		}
	}
	section("transitive foreign keys (INDs)", renderAll(a.TransitiveINDs))
	section("interaction-derived INDs", renderAll(a.DerivedINDs))
	section("derived FDs", renderAll(a.DerivedFDs))
	section("derived column equalities (RDs)", renderAll(a.DerivedRDs))
	section("hold over FINITE databases only (Theorem 4.4 warning)", renderAll(a.FiniteOnly))
	section("redundant declarations", renderAll(a.Redundant))
	return strings.TrimRight(b.String(), "\n")
}

func renderAll[T fmt.Stringer](xs []T) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = x.String()
	}
	return out
}
