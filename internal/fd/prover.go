package fd

import (
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
	// proof renders no FD per goal.
	lines []string
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
	for i, g := range p.fds {
		p.x[i] = mask(g.X)
		p.y[i] = mask(g.Y)
		p.lines[i] = stepLine(g)
	}
	return p
}

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

// Prove is ProveObs against the compiled FD set: the same derivation
// (byte-identical Proof), the same fd.* counter increments, no per-call
// index building. A nil Prover behaves like a compile of zero FDs.
func (p *Prover) Prove(f deps.FD, reg *obs.Registry) (Proof, bool) {
	if p == nil {
		return ProveObs(nil, f, reg)
	}
	reg.Counter("fd.prove_calls").Inc()
	cPasses := reg.Counter("fd.closure_passes")
	cDerived := reg.Counter("fd.attrs_derived")
	// The closure's scratch lives on the stack for up to stackAttrs
	// attributes: only the proof's steps reach the heap.
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
	for changed := true; changed; {
		changed = false
		cPasses.Inc()
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
					cDerived.Inc()
					changed = true
				}
			}
		}
	}
	for _, b := range f.Y {
		if i, ok := p.idx[b]; ok {
			if closure[i/64]&(1<<(i%64)) != 0 {
				continue
			}
			return Proof{}, false
		}
		// An attribute no FD mentions is derivable only by reflexivity.
		if !slices.Contains(f.X, b) {
			return Proof{}, false
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
	steps := make([]Step, len(order))
	for k, i := range order {
		gi := derivedBy[i]
		steps[k] = Step{Derived: p.attrs[i], Via: p.fds[gi], line: p.lines[gi]}
	}
	return Proof{Goal: f, Steps: steps}, true
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
