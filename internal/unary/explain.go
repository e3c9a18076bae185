package unary

import (
	"fmt"
	"strings"

	"indfd/internal/deps"
	"indfd/internal/schema"
)

// Reversal records one application of the finite cycle rule: Reversed is
// the newly derived dependency (the reverse of a previously derived FD or
// IND), justified by the cardinality Cycle — a sequence of inequalities
// |c1| ≤ |c2| ≤ ... ≤ |c1| that forces all the cardinalities on it to be
// equal over any finite database.
type Reversal struct {
	Reversed deps.Dependency
	Cycle    []string
}

// Explanation describes why a unary FD or IND is or is not finitely
// implied.
type Explanation struct {
	// Finite and Unrestricted are the two implication verdicts.
	Finite       bool
	Unrestricted bool
	// Reversals lists the cycle-rule applications performed while closing
	// sigma under finite implication, in derivation order (only populated
	// when the goal is finitely implied but not unrestrictedly implied).
	Reversals []Reversal
	// Path is the final reachability chain deriving the goal from the
	// base dependencies plus the reversals, as human-readable column
	// steps.
	Path []string
}

// String renders the explanation.
func (e Explanation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "finite: %v, unrestricted: %v\n", e.Finite, e.Unrestricted)
	if len(e.Reversals) > 0 {
		b.WriteString("cycle-rule applications (sound only over finite databases):\n")
		for _, r := range e.Reversals {
			fmt.Fprintf(&b, "  derive %v from the cardinality cycle:\n", r.Reversed)
			for _, s := range r.Cycle {
				fmt.Fprintf(&b, "    %s\n", s)
			}
		}
	}
	if len(e.Path) > 0 {
		b.WriteString("derivation path:\n")
		for _, s := range e.Path {
			fmt.Fprintf(&b, "  %s\n", s)
		}
	}
	return strings.TrimRight(b.String(), "\n")
}

// Explain reproduces the finite-implication derivation of the goal (a
// unary FD or IND), reporting the cycle-rule applications it rests on.
// An FD goal of any other shape gets the verdicts and the cycle-rule
// applications, without a column path.
func (s *System) Explain(goal deps.Dependency) (Explanation, error) {
	var ex Explanation
	fin, err := s.ImpliesFinite(goal)
	if err != nil {
		return ex, err
	}
	unr, err := s.ImpliesUnrestricted(goal)
	if err != nil {
		return ex, err
	}
	ex.Finite, ex.Unrestricted = fin, unr
	if !fin {
		return ex, nil
	}

	// Re-run the closure loop with provenance for the reversals.
	nodes := s.columns()
	fdsC := append([]deps.FD(nil), s.fds...)
	indC := copyGraph(s.ind)
	var fdR map[Column]map[Column]bool
	for {
		fdR = unaryFDEdges(s.db, fdsC)
		indR := reach(indC, nodes)
		// Cardinality edges with reasons.
		type leEdge struct {
			to     Column
			reason string
		}
		le := map[Column][]leEdge{}
		for u, m := range fdR {
			for v := range m {
				if u != v {
					le[v] = append(le[v], leEdge{u, fmt.Sprintf("|%v| ≤ |%v|   (FD %v -> %v)", v, u, u, v)})
				}
			}
		}
		for u, m := range indR {
			for v := range m {
				if u != v {
					le[u] = append(le[u], leEdge{v, fmt.Sprintf("|%v| ≤ |%v|   (IND %v ⊆ %v)", u, v, u, v)})
				}
			}
		}
		// path finds a ≤-path between two columns, as reason strings.
		path := func(from, to Column) []string {
			type state struct {
				col  Column
				via  int // index into trail
				edge string
			}
			trail := []state{{col: from, via: -1}}
			seen := map[Column]bool{from: true}
			for i := 0; i < len(trail); i++ {
				cur := trail[i]
				if cur.col == to {
					var out []string
					for j := i; trail[j].via != -1; j = trail[j].via {
						out = append([]string{trail[j].edge}, out...)
					}
					return out
				}
				for _, e := range le[cur.col] {
					if seen[e.to] {
						continue
					}
					seen[e.to] = true
					trail = append(trail, state{col: e.to, via: i, edge: e.reason})
				}
			}
			return nil
		}
		changed := false
		record := func(u, v Column, dep deps.Dependency) {
			fwd := path(u, v)
			back := path(v, u)
			ex.Reversals = append(ex.Reversals, Reversal{
				Reversed: dep,
				Cycle:    append(fwd, back...),
			})
		}
		for u, m := range fdR {
			for v := range m {
				if u == v || fdR[v][u] {
					continue
				}
				// The FD u -> v reverses when |u| = |v| is forced, i.e.
				// when a ≤-path runs each way between u and v.
				if path(u, v) != nil && path(v, u) != nil {
					rev := deps.NewFD(v.Rel, []schema.Attribute{v.Attr}, []schema.Attribute{u.Attr})
					fdsC = append(fdsC, rev)
					changed = true
					record(u, v, rev)
				}
			}
		}
		for u, m := range indR {
			for v := range m {
				if u == v || indR[v][u] {
					continue
				}
				if path(u, v) != nil && path(v, u) != nil {
					rev := deps.NewIND(v.Rel, []schema.Attribute{v.Attr}, u.Rel, []schema.Attribute{u.Attr})
					addEdge(indC, v, u)
					changed = true
					record(u, v, rev)
				}
			}
		}
		if !changed {
			break
		}
	}

	// A composite FD goal (or one with an empty left-hand side) follows
	// from the closed FD set by Armstrong's axioms, not along one column
	// path: the cycle-rule applications are the whole explanation.
	if g, ok := goal.(deps.FD); ok && (len(g.X) != 1 || len(g.Y) != 1) {
		return ex, nil
	}

	// Final derivation path for the goal over the closed graphs.
	from, to, isFD, err := goalColumns(s.db, goal)
	if err != nil {
		return ex, err
	}
	graph := reach(indC, nodes)
	kind := "⊆"
	if isFD {
		graph = fdR
		kind = "->"
	}
	type state struct {
		col Column
		via int
	}
	trail := []state{{col: from, via: -1}}
	seen := map[Column]bool{from: true}
	for i := 0; i < len(trail); i++ {
		cur := trail[i]
		if cur.col == to {
			var cols []Column
			for j := i; ; j = trail[j].via {
				cols = append([]Column{trail[j].col}, cols...)
				if trail[j].via == -1 {
					break
				}
			}
			for k := 0; k+1 < len(cols); k++ {
				ex.Path = append(ex.Path, fmt.Sprintf("%v %s %v", cols[k], kind, cols[k+1]))
			}
			break
		}
		for next := range graph[cur.col] {
			if !seen[next] {
				seen[next] = true
				trail = append(trail, state{col: next, via: i})
			}
		}
	}
	return ex, nil
}
