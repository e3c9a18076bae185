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

// stepLine renders the tail of a proof line that fires g, without its
// newline.
func stepLine(g deps.FD) string {
	return " via " + g.String() + stepRule
}

const stepRule = " (augmentation + transitivity)"

// derivedAt returns where attribute a, a member of y, starts in line,
// the step line of an FD whose right-hand side is y: its first place in
// y, counted back from the end of the line.
func derivedAt(line string, y []schema.Attribute, a schema.Attribute) int {
	at := len(line) - len(stepRule) - schema.JoinedLen(y)
	for _, b := range y {
		if b == a {
			break
		}
		at += len(b) + len(",")
	}
	return at
}

// String renders the proof as a numbered derivation. It is the
// reference text: a Prover's Derivation renders the same bytes from the
// lines its prover rendered once.
func (p Proof) String() string {
	var b strings.Builder
	writeHead(&b, p.Goal.String(), p.Goal.X)
	for k, s := range p.Steps {
		writeStep(&b, k, s.Derived, stepLine(s.Via))
	}
	b.WriteString(proofEnd)
	return b.String()
}

// A proof's text is a header naming the goal and the attributes it
// starts with, one numbered line per step, and an end line:
//
//	goal: R: A -> C
//	  start with A (reflexivity)
//	  1. derive B via R: A -> B (augmentation + transitivity)
//	  2. derive C via R: B -> C (augmentation + transitivity)
//	  qed
const proofEnd = "  qed"

// headLen is the length of the header writeHead writes plus the end
// line.
func headLen(goal string, x []schema.Attribute) int {
	return len("goal: \n  start with  (reflexivity)\n") + len(goal) + schema.JoinedLen(x) + len(proofEnd)
}

func writeHead(b *strings.Builder, goal string, x []schema.Attribute) {
	b.WriteString("goal: ")
	b.WriteString(goal)
	b.WriteString("\n  start with ")
	schema.WriteAttrs(b, x)
	b.WriteString(" (reflexivity)\n")
}

// stepLen bounds the length of a step line, for up to five-digit step
// numbers.
func stepLen(derived schema.Attribute, line string) int {
	return len("  . derive \n") + 5 + len(derived) + len(line)
}

// writeStep writes the k-th step (numbered from 1): derived, then its
// line tail.
func writeStep(b *strings.Builder, k int, derived schema.Attribute, line string) {
	var num [20]byte
	b.WriteString("  ")
	b.Write(strconv.AppendInt(num[:0], int64(k+1), 10))
	b.WriteString(". derive ")
	b.WriteString(string(derived))
	b.WriteString(line)
	b.WriteByte('\n')
}

// Render is the String of d's expansion without the expansion, under
// the goal text its caller rendered: text must be goal.String(), and
// each step's line is the one its prover rendered. It writes into one
// builder sized up front.
func (d Derivation) Render(goal deps.FD, text string) string {
	n := headLen(text, goal.X)
	for _, s := range d.steps {
		n += stepLen(s.derived(), s.line)
	}
	var b strings.Builder
	b.Grow(n)
	writeHead(&b, text, goal.X)
	for k, s := range d.steps {
		writeStep(&b, k, s.derived(), s.line)
	}
	b.WriteString(proofEnd)
	return b.String()
}

// AppendJSON appends Render's text as a JSON string, where x is the
// goal's left-hand side and text its rendering. escape appends a string
// as the inside of a JSON string: it takes the goal text, the
// attributes and each step line its prover did not find plain. A plain
// line is copied as it is, and the newlines are written as \n.
func (d Derivation) AppendJSON(b []byte, text string, x []schema.Attribute, escape func([]byte, string) []byte) []byte {
	b = append(b, `"goal: `...)
	b = escape(b, text)
	b = append(b, `\n  start with `...)
	for i, a := range x {
		if i > 0 {
			b = append(b, ',')
		}
		b = escape(b, string(a))
	}
	b = append(b, ` (reflexivity)\n`...)
	for k, s := range d.steps {
		b = append(b, "  "...)
		b = strconv.AppendInt(b, int64(k+1), 10)
		b = append(b, ". derive "...)
		b = escape(b, string(s.derived()))
		if s.plain {
			b = append(b, s.line...)
		} else {
			b = escape(b, s.line)
		}
		b = append(b, `\n`...)
	}
	return append(b, proofEnd+`"`...)
}
