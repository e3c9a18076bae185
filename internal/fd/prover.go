package fd

import (
	"fmt"
	"slices"

	"indfd/internal/deps"
	"indfd/internal/obs"
	"indfd/internal/schema"
)

// Prover is a compiled FD set over one relation: every attribute the
// FDs mention is assigned a bit position, and each FD's sides become
// bitmasks, so the closure fixpoint runs on word operations instead of
// per-attribute map probes. Compiling costs what one ProveObs call's
// setup used to; a server compiles once per Σ edit (see core's
// component index) and answers every goal against the compiled form.
//
// A Prover is immutable after NewProver and safe for concurrent use.
// Prove is step-for-step identical to ProveObs over the same FDs: the
// fixpoint visits FDs in the same order and derives attributes in the
// same order, so proofs, pass counts, and derivation counters match.
type Prover struct {
	rel string
	fds []deps.FD
	// lines holds each FD's rendered proof-step tail (stepLine), so a
	// proof renders no FD per goal and its steps share one copy of each
	// line, and plain marks the lines that are printable ASCII without a
	// quote or a backslash, which AppendJSON copies as they are.
	lines []string
	plain []bool
	idx   map[schema.Attribute]int
	attrs []schema.Attribute
	words int        // bitset length: ceil(len(attrs)/64)
	x, y  [][]uint64 // per-FD side masks
}

// NewProver compiles the FDs of sigma over relation rel. FDs over other
// relations are ignored, mirroring ProveObs's own filter.
func NewProver(rel string, sigma []deps.FD) *Prover {
	p := &Prover{rel: rel, idx: make(map[schema.Attribute]int)}
	for _, g := range sigma {
		if g.Rel == rel {
			p.fds = append(p.fds, g)
		}
	}
	intern := func(a schema.Attribute) int {
		i, ok := p.idx[a]
		if !ok {
			i = len(p.attrs)
			p.idx[a] = i
			p.attrs = append(p.attrs, a)
		}
		return i
	}
	for _, g := range p.fds {
		for _, a := range g.X {
			intern(a)
		}
		for _, a := range g.Y {
			intern(a)
		}
	}
	p.words = (len(p.attrs) + 63) / 64
	if p.words == 0 {
		p.words = 1
	}
	mask := func(seq []schema.Attribute) []uint64 {
		m := make([]uint64, p.words)
		for _, a := range seq {
			i := p.idx[a]
			m[i/64] |= 1 << (i % 64)
		}
		return m
	}
	p.x = make([][]uint64, len(p.fds))
	p.y = make([][]uint64, len(p.fds))
	p.lines = make([]string, len(p.fds))
	p.plain = make([]bool, len(p.fds))
	for i, g := range p.fds {
		p.x[i] = mask(g.X)
		p.y[i] = mask(g.Y)
		p.lines[i] = stepLine(g)
		p.plain[i] = plainText(p.lines[i])
	}
	return p
}

// plainText reports whether s is printable ASCII without '"' or '\\'.
func plainText(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}

// noFDs is the prover a nil *Prover stands for.
var noFDs = NewProver("", nil)

// stackAttrs is the attribute count up to which Prove keeps its
// closure scratch on the stack.
const stackAttrs = 128

// coversMask reports whether every bit of need is set in have.
func coversMask(have, need []uint64) bool {
	for w := range need {
		if need[w]&^have[w] != 0 {
			return false
		}
	}
	return true
}

// Derivation is a Prover's proof of one goal in compact form. Each step
// keeps the rendered line of the FD that fired, which its prover
// rendered once, and the derived attribute as a substring of that
// line: a step holds no FD, no position and no prover, so a cached
// Derivation keeps the lines its proof uses alive and nothing else of
// the prover or its Σ, and it renders the same text under any other
// order of that Σ. It holds no goal, which its caller already has. The
// zero Derivation is no proof.
type Derivation struct {
	steps []derivStep // non-nil for a proof, even one of no steps
}

// derivStep is one step: the line of the FD that fired, the derived
// attribute at line[at:at+n] on that FD's right-hand side, and whether
// the line is plain (see Prover.plain).
type derivStep struct {
	line  string
	at, n int32
	plain bool
}

func (s derivStep) derived() schema.Attribute { return schema.Attribute(s.line[s.at : s.at+s.n]) }

// IsZero reports whether d is no proof at all, as opposed to a proof
// of no steps (a goal by reflexivity).
func (d Derivation) IsZero() bool { return d.steps == nil }

// Len is the number of steps.
func (d Derivation) Len() int { return len(d.steps) }

// Proof expands the derivation of goal into a Proof for Verify, finding
// each step's FD among sigma's by the line it renders. It fails when a
// step's line is no FD of sigma over the goal's relation.
func (d Derivation) Proof(goal deps.FD, sigma []deps.FD) (Proof, error) {
	byLine := make(map[string]deps.FD, len(sigma))
	for _, g := range sigma {
		if g.Rel == goal.Rel {
			byLine[stepLine(g)] = g
		}
	}
	steps := make([]Step, len(d.steps))
	for k, s := range d.steps {
		g, ok := byLine[s.line]
		if !ok {
			return Proof{}, fmt.Errorf("fd: step %d derives %s%s, which is not in sigma", k+1, s.derived(), s.line)
		}
		steps[k] = Step{Derived: s.derived(), Via: g}
	}
	return Proof{Goal: goal, Steps: steps}, nil
}

// Prove is ProveObs against the compiled FD set: the same derivation
// (d.Proof(f, sigma) equals ProveObs's Proof), the same fd.* counter totals, no
// per-call index building. It counts in locals and adds each counter
// once. A nil Prover behaves like a compile of zero FDs.
func (p *Prover) Prove(f deps.FD, reg *obs.Registry) (Derivation, bool) {
	if p == nil {
		p = noFDs
	}
	// The closure's scratch lives on the stack for up to stackAttrs
	// attributes: only the derivation's steps reach the heap.
	var closureBuf [stackAttrs / 64]uint64
	var derivedBuf [stackAttrs]int32
	var neededBuf [stackAttrs]bool
	closure, derivedBy, needed := closureBuf[:], derivedBuf[:], neededBuf[:]
	if len(p.attrs) > stackAttrs {
		closure = make([]uint64, p.words)
		derivedBy = make([]int32, len(p.attrs))
		needed = make([]bool, len(p.attrs))
	}
	closure, derivedBy, needed = closure[:p.words], derivedBy[:len(p.attrs)], needed[:len(p.attrs)]
	for _, a := range f.X {
		if i, ok := p.idx[a]; ok {
			closure[i/64] |= 1 << (i % 64)
		}
	}
	for i := range derivedBy {
		derivedBy[i] = -1
	}
	var passes, derived int64
	for changed := true; changed; {
		changed = false
		passes++
		for gi := range p.fds {
			if !coversMask(closure, p.x[gi]) {
				continue
			}
			if coversMask(closure, p.y[gi]) {
				continue // nothing new from this FD
			}
			for _, b := range p.fds[gi].Y {
				i := p.idx[b]
				if closure[i/64]&(1<<(i%64)) == 0 {
					closure[i/64] |= 1 << (i % 64)
					derivedBy[i] = int32(gi)
					derived++
					changed = true
				}
			}
		}
	}
	if reg != nil {
		reg.Counter("fd.prove_calls").Inc()
		reg.Counter("fd.closure_passes").Add(passes)
		reg.Counter("fd.attrs_derived").Add(derived)
	}
	for _, b := range f.Y {
		if i, ok := p.idx[b]; ok {
			if closure[i/64]&(1<<(i%64)) != 0 {
				continue
			}
			return Derivation{}, false
		}
		// An attribute no FD mentions is derivable only by reflexivity.
		if !slices.Contains(f.X, b) {
			return Derivation{}, false
		}
	}
	// Walk back from the goal attributes, collecting the needed steps'
	// attributes in the same post-order as ProveObs, then build the
	// steps in one allocation.
	var small [32]int32
	order := small[:0]
	for _, b := range f.Y {
		order = p.walk(b, f.X, derivedBy, needed, order)
	}
	steps := make([]derivStep, len(order))
	for k, i := range order {
		gi := derivedBy[i]
		a := p.attrs[i]
		steps[k] = derivStep{line: p.lines[gi], at: int32(derivedAt(p.lines[gi], p.fds[gi].Y, a)), n: int32(len(a)), plain: p.plain[gi]}
	}
	return Derivation{steps: steps}, true
}

// walk appends the index of every attribute a's derivation needs, each
// after its premises, skipping goal-side attributes and ones already
// collected.
func (p *Prover) walk(a schema.Attribute, x []schema.Attribute, derivedBy []int32, needed []bool, order []int32) []int32 {
	if slices.Contains(x, a) {
		return order
	}
	i, ok := p.idx[a]
	if !ok || needed[i] {
		return order
	}
	needed[i] = true
	gi := derivedBy[i]
	if gi < 0 {
		return order // unreachable when the closure covers the goal
	}
	for _, q := range p.fds[gi].X {
		order = p.walk(q, x, derivedBy, needed, order)
	}
	return append(order, int32(i))
}
