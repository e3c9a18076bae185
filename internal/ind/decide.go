// Package ind implements the paper's central contribution (Section 3):
// the theory of inclusion dependencies. It provides
//
//   - the complete axiomatization IND1 (reflexivity), IND2 (projection and
//     permutation), IND3 (transitivity), with explicit proof objects and a
//     proof verifier;
//   - the decision procedure of Corollary 3.2, realized as a search over
//     "expressions" S[X]; the problem is PSPACE-complete in general
//     (Theorem 3.3) and this procedure is worst-case exponential, but it is
//     polynomial for width-bounded and typed INDs;
//   - the chase-with-zeros construction of Theorem 3.1 (Rule (*)), which
//     yields a finite database satisfying Σ that decides any given IND and
//     doubles as a counterexample generator, witnessing that finite and
//     unrestricted implication coincide for INDs.
package ind

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"indfd/internal/deps"
	"indfd/internal/intern"
	"indfd/internal/obs"
	"indfd/internal/schema"
)

// Expression is the object the Corollary 3.2 procedure manipulates: a
// relation name together with a sequence of m distinct attributes, written
// S[X]. The procedure starts at the left-hand side of the goal IND and
// searches for its right-hand side.
type Expression struct {
	Rel   string
	Attrs []schema.Attribute
}

// String renders the expression as S[A,B].
func (e Expression) String() string {
	return e.Rel + "[" + schema.JoinAttrs(e.Attrs) + "]"
}

// key is the canonical map key of the expression.
func (e Expression) key() string {
	return e.Rel + "[" + schema.JoinAttrs(e.Attrs) + "]"
}

// Stats reports the work done by a decision-procedure run. The Section 3
// lower-bound experiment (Landau permutations) reads these counters.
type Stats struct {
	// Expanded is the number of expressions popped from the frontier.
	Expanded int
	// Generated is the number of successor expressions generated,
	// including duplicates of already-visited expressions.
	Generated int
	// Visited is the number of distinct expressions reached.
	Visited int
	// FrontierPeak is the high-water mark of the search frontier (visited
	// expressions not yet expanded) — the procedure's working-set size,
	// which Theorem 3.3's PSPACE-hardness says can grow exponentially.
	FrontierPeak int
	// ChainLength is the length w of the Corollary 3.2 sequence found
	// (0 when the goal is not implied).
	ChainLength int
}

// Record publishes the stats into reg under the "ind." namespace. A nil
// registry is free. Counters accumulate across calls; the frontier peak
// is a high-water gauge and the chain length feeds a histogram (the
// Section 3 lower bound is exactly about this distribution's tail).
func (st Stats) Record(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("ind.expanded").Add(int64(st.Expanded))
	reg.Counter("ind.generated").Add(int64(st.Generated))
	reg.Counter("ind.visited").Add(int64(st.Visited))
	reg.Gauge("ind.frontier_peak").SetMax(int64(st.FrontierPeak))
	if st.ChainLength > 0 {
		reg.Histogram("ind.chain_length").Observe(int64(st.ChainLength))
	}
}

// Result is the outcome of a Decide call.
type Result struct {
	// Implied reports whether Σ ⊨ σ (equivalently Σ ⊨fin σ and Σ ⊢ σ, by
	// Theorem 3.1).
	Implied bool
	// Chain is the Corollary 3.2 sequence S1[X1], ..., Sw[Xw] when
	// Implied; Chain[0] is σ's left-hand side and Chain[w-1] its
	// right-hand side.
	Chain []Expression
	// Via[i] is the member of Σ from which the step Chain[i] ⊆ Chain[i+1]
	// is obtained by IND2; len(Via) == len(Chain)-1.
	Via []deps.IND
	// Stats describes the search.
	Stats Stats
	// Profile is the per-dependency cost attribution over sigma, set
	// exactly when the run came through DecideProfile: one entry per
	// member (cold members included), hottest-first. Scanned counts the
	// frontier nodes the member was tried on, Firings the successor
	// expressions it generated, Produced the fresh expressions among
	// them. The search does no per-member timing, so ScanNS stays 0.
	Profile *obs.DepProfile
}

// Decide reports whether sigma logically implies the IND goal, using the
// decision procedure of Corollary 3.2 as a breadth-first search over
// expressions. By Theorem 3.1 the answer is simultaneously the answer for
// finite implication and for derivability in IND1–IND3.
//
// The db scheme is used only to validate the inputs; pass nil to skip
// validation (the paper's generated instances are valid by construction).
func Decide(db *schema.Database, sigma []deps.IND, goal deps.IND) (Result, error) {
	return DecideCtx(nil, db, sigma, goal)
}

// ctxCheckMask makes the cancellation probe run every 64 expansions:
// frequent enough to stop a PSPACE-hard search promptly, cheap enough
// to vanish against successor generation.
const ctxCheckMask = 63

// DecideCtx is Decide with cooperative cancellation: the search checks
// ctx every few expansions and, when the context is cancelled or its
// deadline passes, stops and returns the context's error together with
// the partial Stats accumulated so far. Theorem 3.3 makes this the
// engine's only defence on adversarial inputs — the LBA reduction
// instances are exactly the ones whose frontier grows exponentially. A
// nil ctx never cancels.
func DecideCtx(ctx context.Context, db *schema.Database, sigma []deps.IND, goal deps.IND) (Result, error) {
	return decide(ctx, db, sigma, goal, false)
}

// DecideProfile is DecideCtx with per-dependency cost attribution: the
// Result carries a Profile with one entry per member of sigma. The
// profiled run visits the same expressions in the same order and
// returns the same verdict, chain and stats; profiling only observes.
func DecideProfile(ctx context.Context, db *schema.Database, sigma []deps.IND, goal deps.IND) (Result, error) {
	return decide(ctx, db, sigma, goal, true)
}

// indAgg accumulates one sigma member's search work (see Result.Profile
// for the field semantics). prof stays nil unless profiling was
// requested, so the plain DecideCtx path is allocation-identical.
type indAgg struct {
	scanned  int64
	firings  int64
	produced int64
}

func decide(ctx context.Context, db *schema.Database, sigma []deps.IND, goal deps.IND, profile bool) (Result, error) {
	if db != nil {
		if err := goal.Validate(db); err != nil {
			return Result{}, err
		}
		for _, d := range sigma {
			if err := d.Validate(db); err != nil {
				return Result{}, err
			}
		}
	}
	// Compile sigma once: relations and attributes numbered, per-IND
	// attribute IDs and left-hand masks, grouped by left-hand relation,
	// so successor generation only touches applicable INDs.
	f := compileSigma(sigma, goal)

	var prof []indAgg
	if profile {
		prof = make([]indAgg, len(sigma))
	}
	buildProf := func() *obs.DepProfile {
		if prof == nil {
			return nil
		}
		p := &obs.DepProfile{Deps: make([]obs.DepCost, len(sigma))}
		for i := range sigma {
			p.Deps[i] = obs.DepCost{
				Dep: sigma[i].String(), Kind: "ind",
				Firings: prof[i].firings, Produced: prof[i].produced, Scanned: prof[i].scanned,
			}
		}
		p.Sort()
		return p
	}

	// node i is the expression the table assigned ID i, whose key is the
	// table's key i, so the visited set, the arena, and the BFS frontier
	// share one dense index space.
	type node struct {
		parent int32 // node index; -1 for the root
		via    int32 // index into f.appliers of the IND used to reach this node
	}
	nodes := []node{{parent: -1, via: -1}}
	in := intern.New(len(f.start), 64)
	in.Intern(f.start) // ID 0 == node 0
	succ := make([]int32, len(f.start))
	var st Stats
	st.Visited = 1
	st.FrontierPeak = 1

	finish := func(i int32) Result {
		// Reconstruct the chain from the node trail, last step first.
		n := 1
		for j := i; nodes[j].parent != -1; j = nodes[j].parent {
			n++
		}
		chain := make([]Expression, n)
		via := make([]deps.IND, n-1)
		chain[0] = Expression{Rel: goal.LRel, Attrs: goal.X}
		for j, k := i, n-1; k > 0; j, k = nodes[j].parent, k-1 {
			a := &f.appliers[nodes[j].via]
			chain[k] = Expression{Rel: a.d.RRel, Attrs: a.succAttrs(in.Key(nodes[j].parent))}
			via[k-1] = a.d
		}
		st.ChainLength = n
		return Result{Implied: true, Chain: chain, Via: via, Stats: st, Profile: buildProf()}
	}

	if slices.Equal(f.start, f.target) {
		return finish(0), nil
	}
	for head := int32(0); int(head) < len(nodes); head++ {
		if ctx != nil && head&ctxCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return Result{Stats: st, Profile: buildProf()}, err
			}
		}
		// cur stays valid while Intern grows the arena: growth copies,
		// and the old array is never written again.
		cur := in.Key(head)
		curMask := idMask(cur[1:])
		st.Expanded++
		first, group := f.groups[cur[0]], f.of(cur[0])
		for ai := range group {
			a := &group[ai]
			if prof != nil {
				prof[a.si].scanned++
			}
			if curMask&^a.mask != 0 {
				// Some attribute of the expression is not on the IND's
				// left-hand side: IND2 cannot apply. The mask is a
				// necessary test only; survivors still check each
				// attribute.
				continue
			}
			if !a.succ(succ, cur) {
				continue
			}
			st.Generated++
			if prof != nil {
				prof[a.si].firings++
			}
			if _, fresh := in.Intern(succ); !fresh {
				continue
			}
			st.Visited++
			if prof != nil {
				prof[a.si].produced++
			}
			nodes = append(nodes, node{parent: head, via: first + int32(ai)})
			// The frontier is every visited-but-unexpanded node; head has
			// been expanded, nodes beyond it have not.
			if frontier := len(nodes) - int(head) - 1; frontier > st.FrontierPeak {
				st.FrontierPeak = frontier
			}
			if slices.Equal(succ, f.target) {
				return finish(int32(len(nodes) - 1)), nil
			}
		}
	}
	return Result{Implied: false, Stats: st, Profile: buildProf()}, nil
}

// apply computes the successor of expr under the IND d, if any: when every
// attribute of expr occurs on d's left-hand side, IND2 projects and
// permutes d to an IND expr ⊆ succ, and apply returns succ.
func apply(expr Expression, d deps.IND) (Expression, bool) {
	if expr.Rel != d.LRel {
		return Expression{}, false
	}
	pos := make(map[schema.Attribute]int, len(d.X))
	for i, a := range d.X {
		pos[a] = i
	}
	out := make([]schema.Attribute, len(expr.Attrs))
	for i, a := range expr.Attrs {
		j, ok := pos[a]
		if !ok {
			return Expression{}, false
		}
		out[i] = d.Y[j]
	}
	return Expression{Rel: d.RRel, Attrs: out}, true
}

// Implies is Decide returning only the verdict.
func Implies(db *schema.Database, sigma []deps.IND, goal deps.IND) (bool, error) {
	r, err := Decide(db, sigma, goal)
	return r.Implied, err
}

// DecideNaive runs the paper's step-(2) loop literally: it maintains the
// set Z of reached expressions and repeatedly scans every (member of Z,
// member of Σ) pair until Z stops growing or the target appears. It is the
// ablation baseline for the indexed search in Decide; both return the same
// verdict.
func DecideNaive(sigma []deps.IND, goal deps.IND) (bool, Stats) {
	start := Expression{Rel: goal.LRel, Attrs: goal.X}
	target := Expression{Rel: goal.RRel, Attrs: goal.Y}
	z := []Expression{start}
	inZ := map[string]bool{start.key(): true}
	var st Stats
	st.Visited = 1
	st.FrontierPeak = 1 // the naive loop keeps all of Z live
	if start.key() == target.key() {
		return true, st
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(z); i++ {
			st.Expanded++
			for _, d := range sigma {
				succ, ok := apply(z[i], d)
				if !ok {
					continue
				}
				st.Generated++
				k := succ.key()
				if inZ[k] {
					continue
				}
				inZ[k] = true
				st.Visited++
				z = append(z, succ)
				st.FrontierPeak = len(z)
				changed = true
				if k == target.key() {
					return true, st
				}
			}
		}
	}
	return false, st
}

// CheckChain verifies that chain, via is a valid Corollary 3.2 sequence
// for goal over sigma: the chain starts at goal's left-hand side, ends at
// its right-hand side, and each step is obtained from the corresponding
// member of sigma by IND2.
func CheckChain(sigma []deps.IND, goal deps.IND, chain []Expression, via []deps.IND) error {
	if len(chain) == 0 {
		return fmt.Errorf("ind: empty chain")
	}
	if len(via) != len(chain)-1 {
		return fmt.Errorf("ind: chain of length %d needs %d INDs, got %d", len(chain), len(chain)-1, len(via))
	}
	if chain[0].Rel != goal.LRel || !schema.EqualSeq(chain[0].Attrs, goal.X) {
		return fmt.Errorf("ind: chain starts at %v, want %s[%s]", chain[0], goal.LRel, schema.JoinAttrs(goal.X))
	}
	last := chain[len(chain)-1]
	if last.Rel != goal.RRel || !schema.EqualSeq(last.Attrs, goal.Y) {
		return fmt.Errorf("ind: chain ends at %v, want %s[%s]", last, goal.RRel, schema.JoinAttrs(goal.Y))
	}
	inSigma := make(map[string]bool, len(sigma))
	for _, d := range sigma {
		inSigma[d.Key()] = true
	}
	for i := 0; i+1 < len(chain); i++ {
		if !inSigma[via[i].Key()] {
			return fmt.Errorf("ind: step %d uses %v, which is not in sigma", i, via[i])
		}
		succ, ok := apply(chain[i], via[i])
		if !ok {
			return fmt.Errorf("ind: step %d: %v does not apply to %v", i, via[i], chain[i])
		}
		if succ.key() != chain[i+1].key() {
			return fmt.Errorf("ind: step %d yields %v, chain has %v", i, succ, chain[i+1])
		}
	}
	return nil
}

// FormatChain renders a Corollary 3.2 chain with the INDs justifying each
// step.
func FormatChain(chain []Expression, via []deps.IND) string {
	var b strings.Builder
	for i, e := range chain {
		if i > 0 {
			fmt.Fprintf(&b, "\n  ⊆ %v   (by IND2 from %v)", e, via[i-1])
		} else {
			fmt.Fprintf(&b, "%v", e)
		}
	}
	return b.String()
}

// DecideDepthBounded realizes the nondeterministic polynomial-SPACE
// algorithm from the proof of Theorem 3.3 as a deterministic
// depth-bounded depth-first search: it keeps only the current expression
// (plus the recursion stack, bounded by maxDepth) and no visited set, so
// its working memory is O(maxDepth · |expression|) — the trade of time
// for space that puts the problem in PSPACE. It reports whether the goal
// is reachable within maxDepth applications of members of sigma.
//
// With maxDepth at least the number of distinct expressions (for example
// Decide's Stats.Visited, or any sound overapproximation), the answer
// equals Decide's. Smaller depths may miss long chains.
func DecideDepthBounded(sigma []deps.IND, goal deps.IND, maxDepth int) bool {
	start := Expression{Rel: goal.LRel, Attrs: goal.X}
	target := Expression{Rel: goal.RRel, Attrs: goal.Y}.key()
	byLRel := make(map[string][]deps.IND)
	for _, d := range sigma {
		byLRel[d.LRel] = append(byLRel[d.LRel], d)
	}
	var dfs func(cur Expression, depth int) bool
	dfs = func(cur Expression, depth int) bool {
		if cur.key() == target {
			return true
		}
		if depth == 0 {
			return false
		}
		for _, d := range byLRel[cur.Rel] {
			succ, ok := apply(cur, d)
			if !ok {
				continue
			}
			if dfs(succ, depth-1) {
				return true
			}
		}
		return false
	}
	return dfs(start, maxDepth)
}
