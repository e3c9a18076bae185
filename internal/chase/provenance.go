// Provenance capture and proof extraction for the chase: the opt-in
// layer that turns an Implied verdict from a bit into a checkable
// derivation. The paper's positive results are exactly such objects —
// the proof of Lemma 7.2 is a fourteen-step equality derivation, i.e. a
// chase run read backwards — and this file mechanizes that reading.
//
// With Options.Provenance set, the engine records, as it runs:
//
//   - per tuple: which IND firing on which witness tuple created it
//     (seed tuples carry no rule — they are the leaves);
//   - per union: which FD or RD firing on which tuple(s) equated which
//     two value IDs.
//
// The log is one channel of the engine's capture (capture.go): its
// sites are the capture calls every firing and insert makes, so the
// disabled path stays allocation-identical to the uninstrumented engine
// (TestZeroAlloc and BenchmarkChaseObs pin this), and capture never
// changes verdicts, traces, or counters (differential tests pin that).
//
// Extraction walks backwards from the goal: the goal equalities are
// explained by paths in the union-event graph (a BFS over events
// restricted to those that happened earlier, so justification is
// well-founded), each event needs its firing tuples, each FD event
// additionally needs the earlier events that made its tuples agree on
// X, and each IND-created tuple needs its witness. What remains is a
// minimal derivation DAG: leaves are input tuples, internal nodes are
// FD/IND/RD firings, and replaying the nodes in order reproduces the
// goal (the counterex tests do exactly that).

package chase

import (
	"fmt"
	"math"
	"strings"

	"indfd/internal/deps"
	"indfd/internal/schema"
)

// event kinds of a provenance union event.
const (
	evFD = iota
	evRD
)

// provEvent is one recorded union: rule fired on tuple(s) t (and u for
// FDs), equating value IDs a and b. stamp orders events and tuple
// creations on one global clock.
type provEvent struct {
	stamp int64
	kind  uint8
	rule  int32 // index into e.fds (evFD) or e.rds (evRD)
	t, u  int32 // tuple IDs; u == -1 for RDs
	a, b  int32 // the equated value IDs (arena values, never rewritten)
}

// prov is the provenance log, recorded while Options.Provenance is set
// and truncated in place between pooled runs.
type prov struct {
	clock    int64
	tupStamp []int64 // per tuple ID: creation time
	tupRule  []int32 // per tuple ID: index into e.inds, or -1 for a seed
	tupSrc   []int32 // per tuple ID: the IND's witness tuple, or -1
	events   []provEvent
}

func (p *prov) reset() {
	p.clock = 0
	p.tupStamp = p.tupStamp[:0]
	p.tupRule = p.tupRule[:0]
	p.tupSrc = p.tupSrc[:0]
	p.events = p.events[:0]
}

// noteTuple stamps a tuple at insert time, as a seed until origin names
// the IND firing that created it.
func (p *prov) noteTuple(tid int32) {
	for int32(len(p.tupStamp)) <= tid {
		p.tupStamp = append(p.tupStamp, 0)
		p.tupRule = append(p.tupRule, -1)
		p.tupSrc = append(p.tupSrc, -1)
	}
	p.clock++
	p.tupStamp[tid] = p.clock
	p.tupRule[tid] = -1
	p.tupSrc[tid] = -1
}

// origin records that IND rule created tuple tid for witness tuple src.
func (p *prov) origin(tid, rule, src int32) {
	p.tupRule[tid] = rule
	p.tupSrc[tid] = src
}

// noteUnion records one FD/RD union event.
func (p *prov) noteUnion(kind uint8, rule, t, u, a, b int32) {
	p.clock++
	p.events = append(p.events, provEvent{
		stamp: p.clock, kind: kind, rule: rule, t: t, u: u, a: a, b: b,
	})
}

// Derivation is a minimal proof DAG extracted from chase provenance:
// nodes in dependency order (every node's inputs precede it), leaves
// the seed tuples, internal nodes FD/IND/RD firings. Checks lists the
// value-ID pairs the goal needs equal; replaying the nodes in order —
// registering seed tuples, adding IND tuples, and uniting each fd/rd
// node's Eq pair after checking its premises — makes every Checks pair
// equal (the counterex replay test verifies this mechanically).
type Derivation struct {
	// Goal is the dependency the derivation proves implied.
	Goal string `json:"goal"`
	// Checks are the value-ID pairs that must end up equal.
	Checks [][2]int `json:"checks,omitempty"`
	// Nodes is the DAG in topological (chase time) order.
	Nodes []DerivNode `json:"nodes"`
}

// DerivNode is one node of a Derivation.
type DerivNode struct {
	ID int `json:"id"`
	// Kind is "seed" (an input tuple), "ind" (an IND firing and the
	// tuple it created), "fd" or "rd" (a firing that equated values).
	Kind string `json:"kind"`
	// Rule is the dependency that fired ("" for seeds).
	Rule string `json:"rule,omitempty"`
	// Rel and Vals describe tuple-bearing nodes (seed, ind): the
	// relation and the tuple's structural value IDs. Value identity is
	// positional sharing: an IND-created tuple reuses the IDs it copied
	// from its witness, and equalities derived later live in Eq edges,
	// not in Vals.
	Rel  string `json:"rel,omitempty"`
	Vals []int  `json:"vals,omitempty"`
	// Tuple renders Vals with the final canonical names, for display.
	Tuple []string `json:"tuple,omitempty"`
	// Inputs are the IDs of the nodes this node depends on: the witness
	// tuple for "ind"; the firing tuple(s) then any premise fd/rd nodes
	// (the earlier equalities that made the tuples agree on X) for "fd";
	// the firing tuple for "rd".
	Inputs []int `json:"inputs,omitempty"`
	// Eq is the value-ID pair an fd/rd node equates.
	Eq []int `json:"eq,omitempty"`
}

// Stats counts a derivation's node kinds.
func (d *Derivation) Stats() (seeds, inds, fds, rds int) {
	for _, n := range d.Nodes {
		switch n.Kind {
		case "seed":
			seeds++
		case "ind":
			inds++
		case "fd":
			fds++
		case "rd":
			rds++
		}
	}
	return
}

// String renders the derivation as indented text, one node per line.
func (d *Derivation) String() string {
	var b strings.Builder
	seeds, inds, fds, rds := d.Stats()
	fmt.Fprintf(&b, "derivation of %s (%d seed tuples, %d IND firings, %d FD firings, %d RD firings)\n",
		d.Goal, seeds, inds, fds, rds)
	for _, n := range d.Nodes {
		switch n.Kind {
		case "seed":
			fmt.Fprintf(&b, "  n%-3d seed %s(%s)\n", n.ID, n.Rel, strings.Join(n.Tuple, ","))
		case "ind":
			fmt.Fprintf(&b, "  n%-3d IND %s on n%d: %s(%s)\n",
				n.ID, n.Rule, n.Inputs[0], n.Rel, strings.Join(n.Tuple, ","))
		case "fd":
			fmt.Fprintf(&b, "  n%-3d FD %s on %s: v%d = v%d\n",
				n.ID, n.Rule, joinNodeRefs(n.Inputs), n.Eq[0], n.Eq[1])
		case "rd":
			fmt.Fprintf(&b, "  n%-3d RD %s on %s: v%d = v%d\n",
				n.ID, n.Rule, joinNodeRefs(n.Inputs), n.Eq[0], n.Eq[1])
		}
	}
	if len(d.Checks) > 0 {
		pairs := make([]string, len(d.Checks))
		for i, c := range d.Checks {
			pairs[i] = fmt.Sprintf("v%d = v%d", c[0], c[1])
		}
		fmt.Fprintf(&b, "goal holds: %s\n", strings.Join(pairs, ", "))
	}
	return b.String()
}

// DOT renders the derivation in Graphviz dot syntax: tuple nodes are
// boxes (seeds filled), firing nodes are ellipses, and edges point from
// each node to its inputs. The output is deterministic and golden-
// testable.
func (d *Derivation) DOT() string {
	var b strings.Builder
	b.WriteString("digraph derivation {\n")
	b.WriteString("  rankdir=BT;\n")
	fmt.Fprintf(&b, "  label=%q;\n", "derivation of "+d.Goal)
	for _, n := range d.Nodes {
		switch n.Kind {
		case "seed":
			fmt.Fprintf(&b, "  n%d [shape=box,style=filled,fillcolor=lightgrey,label=%q];\n",
				n.ID, fmt.Sprintf("%s(%s)", n.Rel, strings.Join(n.Tuple, ",")))
		case "ind":
			fmt.Fprintf(&b, "  n%d [shape=box,label=%q];\n",
				n.ID, fmt.Sprintf("IND %s\n%s(%s)", n.Rule, n.Rel, strings.Join(n.Tuple, ",")))
		case "fd":
			fmt.Fprintf(&b, "  n%d [shape=ellipse,label=%q];\n",
				n.ID, fmt.Sprintf("FD %s\nv%d = v%d", n.Rule, n.Eq[0], n.Eq[1]))
		case "rd":
			fmt.Fprintf(&b, "  n%d [shape=ellipse,label=%q];\n",
				n.ID, fmt.Sprintf("RD %s\nv%d = v%d", n.Rule, n.Eq[0], n.Eq[1]))
		}
	}
	for _, n := range d.Nodes {
		for _, in := range n.Inputs {
			fmt.Fprintf(&b, "  n%d -> n%d;\n", n.ID, in)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

func joinNodeRefs(ids []int) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprintf("n%d", id)
	}
	return strings.Join(parts, ",")
}

// explainEq returns the indices of the events along one path connecting
// value IDs a and b in the union-event graph, using only events that
// happened strictly before the given stamp (well-foundedness: an
// event's premises may only be justified by earlier events). It returns
// nil when a == b, and an error when no path exists — which would mean
// the provenance log is incomplete, a bug.
func (e *engine) explainEq(a, b int32, before int64) ([]int, error) {
	if a == b {
		return nil, nil
	}
	p := &e.cap.log
	// Adjacency over the (small, bounded-by-budget) event log. Built per
	// call: extraction runs once per Implied verdict, never on hot paths.
	type edge struct {
		to  int32
		idx int
	}
	adj := make(map[int32][]edge)
	for i := range p.events {
		ev := &p.events[i]
		if ev.stamp >= before {
			continue
		}
		adj[ev.a] = append(adj[ev.a], edge{ev.b, i})
		adj[ev.b] = append(adj[ev.b], edge{ev.a, i})
	}
	from := map[int32]edge{a: {a, -1}}
	queue := []int32{a}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		if x == b {
			var path []int
			for x != a {
				f := from[x]
				path = append(path, f.idx)
				x = f.to
			}
			return path, nil
		}
		for _, ed := range adj[x] {
			if _, seen := from[ed.to]; !seen {
				from[ed.to] = edge{x, ed.idx}
				queue = append(queue, ed.to)
			}
		}
	}
	return nil, fmt.Errorf("chase: provenance cannot explain v%d = v%d (incomplete event log)", a, b)
}

// goalEvidence names what the goal needs, for extraction: the value-ID
// pairs that must be equal and the seed (and witness) tuples involved.
// The goal holds, so an IND goal has a witness; it is found here because
// the goal's index answers "exists", not "which".
func (e *engine) goalEvidence() (pairs [][2]int32, goalTids []int32, err error) {
	t1, xs, ys := e.goalT1, e.goalXs, e.goalYs
	switch e.goalKind {
	case goalFD:
		for _, y := range ys {
			pairs = append(pairs, [2]int32{t1[y], e.goalT2[y]})
		}
		return pairs, []int32{0, 1}, nil
	case goalRD:
		for i := range xs {
			pairs = append(pairs, [2]int32{t1[xs[i]], t1[ys[i]]})
		}
		return pairs, []int32{0}, nil
	case goalIND:
	witness:
		for _, uid := range e.rels[e.gpiRel].order {
			u := e.tupleVals(uid)
			for j := range ys {
				if !e.equal(t1[xs[j]], u[ys[j]]) {
					continue witness
				}
			}
			for j := range ys {
				pairs = append(pairs, [2]int32{t1[xs[j]], u[ys[j]]})
			}
			return pairs, []int32{0, uid}, nil
		}
	}
	return nil, nil, fmt.Errorf("chase: provenance found no witness tuple for %s", e.cap.goalDesc)
}

// extractDerivation walks provenance backwards from the goal and builds
// the minimal derivation DAG, together with its members: the ascending
// positions in sigma of the rules its nodes fire. Called only on an
// Implied verdict with provenance enabled.
func (e *engine) extractDerivation() (*Derivation, []int, error) {
	pairs, goalTids, err := e.goalEvidence()
	if err != nil {
		return nil, nil, err
	}
	p := &e.cap.log

	needT := make(map[int32]bool)
	needE := make(map[int]bool)
	var tq []int32
	var eq []int
	addT := func(tid int32) {
		if !needT[tid] {
			needT[tid] = true
			tq = append(tq, tid)
		}
	}
	addE := func(idx int) {
		if !needE[idx] {
			needE[idx] = true
			eq = append(eq, idx)
		}
	}
	for _, pr := range pairs {
		path, err := e.explainEq(pr[0], pr[1], math.MaxInt64)
		if err != nil {
			return nil, nil, err
		}
		for _, idx := range path {
			addE(idx)
		}
	}
	for _, tid := range goalTids {
		addT(tid)
	}
	// premises[idx] records, per needed FD event, the premise events
	// that justified its X-agreement (for the node's Inputs edges).
	premises := make(map[int][]int)
	for len(tq) > 0 || len(eq) > 0 {
		if len(eq) > 0 {
			idx := eq[len(eq)-1]
			eq = eq[:len(eq)-1]
			ev := &p.events[idx]
			addT(ev.t)
			if ev.kind == evFD {
				addT(ev.u)
				fs := &e.fds[ev.rule]
				t, u := e.tupleVals(ev.t), e.tupleVals(ev.u)
				for _, x := range fs.xs {
					path, err := e.explainEq(t[x], u[x], ev.stamp)
					if err != nil {
						return nil, nil, err
					}
					for _, pidx := range path {
						premises[idx] = append(premises[idx], pidx)
						addE(pidx)
					}
				}
			}
			continue
		}
		tid := tq[len(tq)-1]
		tq = tq[:len(tq)-1]
		if p.tupSrc[tid] >= 0 {
			addT(p.tupSrc[tid])
		}
	}

	// Order all needed nodes on the shared clock; both stamps are
	// strictly increasing, so the order is a topological sort.
	type item struct {
		stamp int64
		tid   int32 // valid when evIdx < 0
		evIdx int
	}
	var items []item
	for tid := range needT {
		items = append(items, item{stamp: p.tupStamp[tid], tid: tid, evIdx: -1})
	}
	for idx := range needE {
		items = append(items, item{stamp: p.events[idx].stamp, evIdx: idx})
	}
	for i := 1; i < len(items); i++ {
		for j := i; j > 0 && items[j].stamp < items[j-1].stamp; j-- {
			items[j], items[j-1] = items[j-1], items[j]
		}
	}

	d := &Derivation{Goal: e.cap.goalDesc}
	member := make([]bool, len(e.sigma))
	for _, pr := range pairs {
		d.Checks = append(d.Checks, [2]int{int(pr[0]), int(pr[1])})
	}
	tupNode := make(map[int32]int)
	evNode := make(map[int]int)
	for _, it := range items {
		n := DerivNode{ID: len(d.Nodes)}
		if it.evIdx < 0 {
			tid := it.tid
			t := e.tupleVals(tid)
			n.Rel = e.rels[e.tupRel[tid]].name
			n.Vals = make([]int, len(t))
			n.Tuple = make([]string, len(t))
			for i, v := range t {
				n.Vals[i] = int(v)
				n.Tuple[i] = e.describe(v)
			}
			if rule := p.tupRule[tid]; rule >= 0 {
				n.Kind = "ind"
				n.Rule = e.inds[rule].d.String()
				member[e.inds[rule].at] = true
				n.Inputs = []int{tupNode[p.tupSrc[tid]]}
			} else {
				n.Kind = "seed"
			}
			tupNode[tid] = n.ID
		} else {
			ev := &p.events[it.evIdx]
			n.Eq = []int{int(ev.a), int(ev.b)}
			if ev.kind == evFD {
				n.Kind = "fd"
				n.Rule = e.fds[ev.rule].d.String()
				member[e.fds[ev.rule].at] = true
				n.Inputs = []int{tupNode[ev.t], tupNode[ev.u]}
				for _, pidx := range dedupInts(premises[it.evIdx]) {
					n.Inputs = append(n.Inputs, evNode[pidx])
				}
			} else {
				n.Kind = "rd"
				n.Rule = e.rds[ev.rule].d.String()
				member[e.rds[ev.rule].at] = true
				n.Inputs = []int{tupNode[ev.t]}
			}
			evNode[it.evIdx] = n.ID
		}
		d.Nodes = append(d.Nodes, n)
	}
	used := []int{}
	for at, ok := range member {
		if ok {
			used = append(used, at)
		}
	}
	return d, used, nil
}

// Verify replays the derivation against the scheme and Σ it claims to
// derive from and reports the first unsound step, making Derivation a
// checkable proof object rather than a log: seeds register tuples, an
// "ind" node must copy its witness's X projection into its Y positions,
// an "fd"/"rd" node must have its premise equalities already
// established (by the earlier nodes alone) before its Eq pair is
// united, and at the end every goal check must hold. A nil error means
// the DAG really derives the goal from the seeds using only firings of
// Σ — the test-side replay of the acceptance criterion.
func (d *Derivation) Verify(db *schema.Database, sigma []deps.Dependency) error {
	rules := make(map[string]deps.Dependency, len(sigma))
	for _, dep := range sigma {
		rules[dep.String()] = dep
	}
	parent := map[int]int{}
	var find func(int) int
	find = func(x int) int {
		p, ok := parent[x]
		if !ok || p == x {
			return x
		}
		r := find(p)
		parent[x] = r
		return r
	}
	type tup struct {
		rel  string
		vals []int
	}
	tuples := map[int]tup{}
	tupleIn := func(n DerivNode, i int) (tup, error) {
		if i >= len(n.Inputs) {
			return tup{}, fmt.Errorf("chase: derivation node n%d: missing input %d", n.ID, i)
		}
		t, ok := tuples[n.Inputs[i]]
		if !ok {
			return tup{}, fmt.Errorf("chase: derivation node n%d: input n%d is not an earlier tuple node", n.ID, n.Inputs[i])
		}
		return t, nil
	}
	for _, n := range d.Nodes {
		switch n.Kind {
		case "seed":
			tuples[n.ID] = tup{n.Rel, n.Vals}
		case "ind":
			r, ok := rules[n.Rule].(deps.IND)
			if !ok {
				return fmt.Errorf("chase: derivation node n%d: rule %q is not an IND of sigma", n.ID, n.Rule)
			}
			w, err := tupleIn(n, 0)
			if err != nil {
				return err
			}
			if w.rel != r.LRel || n.Rel != r.RRel {
				return fmt.Errorf("chase: derivation node n%d: IND %v fired on %s producing %s", n.ID, r, w.rel, n.Rel)
			}
			ls, _ := db.Scheme(r.LRel)
			rs, _ := db.Scheme(r.RRel)
			xs, err := positionsOf(ls, r.X)
			if err != nil {
				return err
			}
			ys, err := positionsOf(rs, r.Y)
			if err != nil {
				return err
			}
			for j := range ys {
				if n.Vals[ys[j]] != w.vals[xs[j]] {
					return fmt.Errorf("chase: derivation node n%d: IND %v did not copy its witness's projection", n.ID, r)
				}
			}
			tuples[n.ID] = tup{n.Rel, n.Vals}
		case "fd":
			r, ok := rules[n.Rule].(deps.FD)
			if !ok {
				return fmt.Errorf("chase: derivation node n%d: rule %q is not an FD of sigma", n.ID, n.Rule)
			}
			t, err := tupleIn(n, 0)
			if err != nil {
				return err
			}
			u, err := tupleIn(n, 1)
			if err != nil {
				return err
			}
			if t.rel != r.Rel || u.rel != r.Rel {
				return fmt.Errorf("chase: derivation node n%d: FD %v fired on tuples of %s, %s", n.ID, r, t.rel, u.rel)
			}
			sch, _ := db.Scheme(r.Rel)
			xs, err := positionsOf(sch, r.X)
			if err != nil {
				return err
			}
			ys, err := positionsOf(sch, r.Y)
			if err != nil {
				return err
			}
			for _, x := range xs {
				if find(t.vals[x]) != find(u.vals[x]) {
					return fmt.Errorf("chase: derivation node n%d: premise violated: tuples do not agree on %v yet", n.ID, sch.Attrs()[x])
				}
			}
			if !eqMatches(n.Eq, t.vals, u.vals, ys) {
				return fmt.Errorf("chase: derivation node n%d: FD %v cannot equate v%d and v%d", n.ID, r, n.Eq[0], n.Eq[1])
			}
			parent[find(n.Eq[1])] = find(n.Eq[0])
		case "rd":
			r, ok := rules[n.Rule].(deps.RD)
			if !ok {
				return fmt.Errorf("chase: derivation node n%d: rule %q is not an RD of sigma", n.ID, n.Rule)
			}
			t, err := tupleIn(n, 0)
			if err != nil {
				return err
			}
			if t.rel != r.Rel {
				return fmt.Errorf("chase: derivation node n%d: RD %v fired on a tuple of %s", n.ID, r, t.rel)
			}
			sch, _ := db.Scheme(r.Rel)
			xs, err := positionsOf(sch, r.X)
			if err != nil {
				return err
			}
			ys, err := positionsOf(sch, r.Y)
			if err != nil {
				return err
			}
			okEq := false
			for i := range xs {
				if pairIs(n.Eq, t.vals[xs[i]], t.vals[ys[i]]) {
					okEq = true
					break
				}
			}
			if !okEq {
				return fmt.Errorf("chase: derivation node n%d: RD %v cannot equate v%d and v%d", n.ID, r, n.Eq[0], n.Eq[1])
			}
			parent[find(n.Eq[1])] = find(n.Eq[0])
		default:
			return fmt.Errorf("chase: derivation node n%d: unknown kind %q", n.ID, n.Kind)
		}
	}
	for _, c := range d.Checks {
		if find(c[0]) != find(c[1]) {
			return fmt.Errorf("chase: replay does not establish goal equality v%d = v%d", c[0], c[1])
		}
	}
	return nil
}

// eqMatches reports whether eq is (t[y], u[y]) for some y (in either
// order).
func eqMatches(eq []int, t, u []int, ys []int) bool {
	for _, y := range ys {
		if pairIs(eq, t[y], u[y]) {
			return true
		}
	}
	return false
}

// pairIs reports whether eq is exactly {a, b} (in either order).
func pairIs(eq []int, a, b int) bool {
	if len(eq) != 2 {
		return false
	}
	return (eq[0] == a && eq[1] == b) || (eq[0] == b && eq[1] == a)
}

// dedupInts removes duplicates preserving first-occurrence order.
func dedupInts(xs []int) []int {
	seen := make(map[int]bool, len(xs))
	out := xs[:0:0]
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}
