package fd

import (
	"fmt"
	"strconv"
	"strings"

	"indfd/internal/deps"
	"indfd/internal/obs"
	"indfd/internal/schema"
)

// Step is one line of an FD derivation: attribute Derived becomes a member
// of the closure because the FD Via fired, all of whose left-hand-side
// attributes were already derived.
type Step struct {
	Derived schema.Attribute
	Via     deps.FD
	// line is Via's rendered tail (stepLine) when a Prover derived the
	// step, compiled once per Prover; "" makes String render Via.
	line string
}

// Proof is a derivation that sigma implies Goal: starting from the
// attributes of Goal.X, the Steps add attributes one at a time until every
// attribute of Goal.Y is derived. A Proof witnesses derivability in
// Armstrong's system (each step is an application of transitivity after
// augmentation; attributes of Goal.X are available by reflexivity).
type Proof struct {
	Goal  deps.FD
	Steps []Step
}

// Prove returns a derivation of f from sigma, or ok=false if sigma does
// not imply f. The derivation records only the steps needed to reach the
// goal attributes.
func Prove(sigma []deps.FD, f deps.FD) (Proof, bool) {
	return ProveObs(sigma, f, nil)
}

// ProveObs is Prove publishing its work into reg under the "fd."
// namespace: prove calls, fixpoint passes over the FD set, and attribute
// derivations. A nil registry costs nothing.
func ProveObs(sigma []deps.FD, f deps.FD, reg *obs.Registry) (Proof, bool) {
	reg.Counter("fd.prove_calls").Inc()
	cPasses := reg.Counter("fd.closure_passes")
	cDerived := reg.Counter("fd.attrs_derived")
	// Re-run the closure, recording which FD derived each new attribute.
	var fds []deps.FD
	for _, g := range sigma {
		if g.Rel == f.Rel {
			fds = append(fds, g)
		}
	}
	derivedBy := make(map[schema.Attribute]*deps.FD)
	closure := newAttrSet(f.X)
	for changed := true; changed; {
		changed = false
		cPasses.Inc()
		for i, g := range fds {
			if closure.containsAll(g.X) {
				for _, b := range g.Y {
					if !closure[b] {
						closure[b] = true
						derivedBy[b] = &fds[i]
						cDerived.Inc()
						changed = true
					}
				}
			}
		}
	}
	if !closure.containsAll(f.Y) {
		return Proof{}, false
	}
	// Walk back from the goal attributes, collecting needed steps, then
	// emit them in dependency order.
	needed := make(map[schema.Attribute]bool)
	var visit func(a schema.Attribute)
	var ordered []Step
	inX := newAttrSet(f.X)
	visit = func(a schema.Attribute) {
		if inX[a] || needed[a] {
			return
		}
		needed[a] = true
		g := derivedBy[a]
		if g == nil {
			return // unreachable when closure.containsAll(f.Y)
		}
		for _, p := range g.X {
			visit(p)
		}
		ordered = append(ordered, Step{Derived: a, Via: *g})
	}
	for _, b := range f.Y {
		visit(b)
	}
	return Proof{Goal: f, Steps: ordered}, true
}

// Verify checks that the proof is a valid derivation of its goal from
// sigma: every step's FD is in sigma, its left-hand side is available when
// it fires, and the goal's right-hand side is covered at the end.
func (p Proof) Verify(sigma []deps.FD) error {
	inSigma := make(map[string]bool, len(sigma))
	for _, f := range sigma {
		inSigma[f.Key()] = true
	}
	have := newAttrSet(p.Goal.X)
	for i, s := range p.Steps {
		if !inSigma[s.Via.Key()] {
			return fmt.Errorf("fd: step %d uses %v, which is not in sigma", i, s.Via)
		}
		if s.Via.Rel != p.Goal.Rel {
			return fmt.Errorf("fd: step %d uses FD over %s, goal is over %s", i, s.Via.Rel, p.Goal.Rel)
		}
		if !have.containsAll(s.Via.X) {
			return fmt.Errorf("fd: step %d fires %v before its left-hand side is derived", i, s.Via)
		}
		found := false
		for _, b := range s.Via.Y {
			have[b] = true
			if b == s.Derived {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("fd: step %d claims to derive %s, which %v does not yield", i, s.Derived, s.Via)
		}
	}
	if !have.containsAll(p.Goal.Y) {
		return fmt.Errorf("fd: proof does not derive the goal %v", p.Goal)
	}
	return nil
}

// stepLine renders the tail of a proof line that fires g.
func stepLine(g deps.FD) string {
	return " via " + g.String() + " (augmentation + transitivity)\n"
}

// String renders the proof as a numbered derivation.
func (p Proof) String() string { return p.Render(p.Goal.String()) }

// Render is String under the goal text goal, which must be
// p.Goal.String(): a server that renders each goal once for its
// response hands the same text in here. It runs on the serving hot path
// (every fd Yes answer carries one), so it writes into one builder
// sized up front, and a Prover's steps bring their FD already rendered.
func (p Proof) Render(goal string) string {
	const stepFixed = len("  . derive ") + 5 // plus up to five digits
	n := len("goal: \n  start with  (reflexivity)\n  qed") + len(goal) + schema.JoinedLen(p.Goal.X)
	for _, s := range p.Steps {
		n += stepFixed + len(s.Derived) + len(s.line)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString("goal: ")
	b.WriteString(goal)
	b.WriteString("\n  start with ")
	schema.WriteAttrs(&b, p.Goal.X)
	b.WriteString(" (reflexivity)\n")
	var num [20]byte
	for i, s := range p.Steps {
		b.WriteString("  ")
		b.Write(strconv.AppendInt(num[:0], int64(i+1), 10))
		b.WriteString(". derive ")
		b.WriteString(string(s.Derived))
		if s.line != "" {
			b.WriteString(s.line)
		} else {
			b.WriteString(stepLine(s.Via))
		}
	}
	b.WriteString("  qed")
	return b.String()
}
