// Package deps defines the dependency classes studied in the paper:
// functional dependencies (FDs), inclusion dependencies (INDs), repeating
// dependencies (RDs, Section 4), and embedded multivalued dependencies
// (EMVDs, Section 5). Each dependency knows how to validate itself against
// a database scheme, whether it is trivial (a tautology), and has a
// canonical string key for use in sets.
package deps

import (
	"fmt"
	"strings"

	"indfd/internal/schema"
)

// Kind discriminates the dependency classes.
type Kind int

const (
	// KindFD is a functional dependency R: X -> Y.
	KindFD Kind = iota
	// KindIND is an inclusion dependency R[X] ⊆ S[Y].
	KindIND
	// KindRD is a repeating dependency R[X = Y].
	KindRD
	// KindEMVD is an embedded multivalued dependency R: X ->> Y | Z.
	KindEMVD
)

// String returns the conventional abbreviation of the kind.
func (k Kind) String() string {
	switch k {
	case KindFD:
		return "FD"
	case KindIND:
		return "IND"
	case KindRD:
		return "RD"
	case KindEMVD:
		return "EMVD"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Dependency is the common interface of all dependency classes.
type Dependency interface {
	// Kind returns the dependency class.
	Kind() Kind
	// String renders the dependency in the repository's text syntax.
	String() string
	// Key returns a canonical encoding usable as a map key: two
	// dependencies are the same sentence iff their keys are equal.
	Key() string
	// Validate checks the dependency is well formed over the database
	// scheme (relations exist, attributes exist, sides are distinct
	// sequences of the right lengths).
	Validate(db *schema.Database) error
	// Trivial reports whether the dependency holds in every database over
	// every scheme it is well formed for (a tautology).
	Trivial() bool
}

// FD is a functional dependency R: X -> Y over a single relation scheme.
// X and Y are sequences of distinct attributes; X may be empty, in which
// case the FD asserts that the Y entries are constant over the relation
// (the paper uses such FDs in Section 6, Case 1).
type FD struct {
	Rel string
	X   []schema.Attribute
	Y   []schema.Attribute
}

// NewFD builds the FD rel: x -> y.
func NewFD(rel string, x, y []schema.Attribute) FD {
	return FD{Rel: rel, X: append([]schema.Attribute(nil), x...), Y: append([]schema.Attribute(nil), y...)}
}

// Kind returns KindFD.
func (f FD) Kind() Kind { return KindFD }

// String renders the FD as "R: A,B -> C", in one allocation.
func (f FD) String() string {
	var b strings.Builder
	b.Grow(len(f.Rel) + len(": ") + schema.JoinedLen(f.X) + len(" -> ") + schema.JoinedLen(f.Y))
	b.WriteString(f.Rel)
	b.WriteString(": ")
	schema.WriteAttrs(&b, f.X)
	b.WriteString(" -> ")
	schema.WriteAttrs(&b, f.Y)
	return b.String()
}

// Key returns a canonical key. FD satisfaction depends only on the *sets*
// of attributes on each side, so the key sorts both sides.
func (f FD) Key() string {
	return "FD|" + f.Rel + "|" + schema.JoinAttrs(schema.SortedSet(f.X)) + "|" + schema.JoinAttrs(schema.SortedSet(f.Y))
}

// Validate checks the FD against the database scheme.
func (f FD) Validate(db *schema.Database) error {
	s, ok := db.Scheme(f.Rel)
	if !ok {
		return fmt.Errorf("deps: FD %s: unknown relation %s", f, f.Rel)
	}
	if len(f.Y) == 0 {
		return fmt.Errorf("deps: FD %s: empty right-hand side", f)
	}
	if !schema.Distinct(f.X) || !schema.Distinct(f.Y) {
		return fmt.Errorf("deps: FD %s: sides must be sequences of distinct attributes", f)
	}
	if !s.HasAll(f.X) || !s.HasAll(f.Y) {
		return fmt.Errorf("deps: FD %s: attribute not in scheme %s", f, s)
	}
	return nil
}

// Trivial reports whether the FD is a tautology: every attribute of Y
// already occurs in X.
func (f FD) Trivial() bool { return schema.SubsetOf(f.Y, f.X) }

// IND is an inclusion dependency R[X] ⊆ S[Y], where X and Y are sequences
// of distinct attributes of equal length (Section 2).
type IND struct {
	LRel string
	X    []schema.Attribute
	RRel string
	Y    []schema.Attribute
}

// NewIND builds the IND lrel[x] ⊆ rrel[y].
func NewIND(lrel string, x []schema.Attribute, rrel string, y []schema.Attribute) IND {
	return IND{
		LRel: lrel, X: append([]schema.Attribute(nil), x...),
		RRel: rrel, Y: append([]schema.Attribute(nil), y...),
	}
}

// Kind returns KindIND.
func (d IND) Kind() Kind { return KindIND }

// Width returns the common length of the two sides. The paper calls an IND
// of width at most k "k-ary".
func (d IND) Width() int { return len(d.X) }

// String renders the IND as "R[A,B] <= S[C,D]", in one allocation.
func (d IND) String() string {
	var b strings.Builder
	b.Grow(len(d.LRel) + len("[") + schema.JoinedLen(d.X) + len("] <= ") + len(d.RRel) + len("[") + schema.JoinedLen(d.Y) + len("]"))
	b.WriteString(d.LRel)
	b.WriteByte('[')
	schema.WriteAttrs(&b, d.X)
	b.WriteString("] <= ")
	b.WriteString(d.RRel)
	b.WriteByte('[')
	schema.WriteAttrs(&b, d.Y)
	b.WriteByte(']')
	return b.String()
}

// Key returns a canonical key. IND satisfaction is invariant under
// simultaneous permutation of both sides (IND2), so the key normalizes by
// sorting the paired columns.
func (d IND) Key() string {
	type pair struct{ x, y schema.Attribute }
	pairs := make([]pair, len(d.X))
	for i := range d.X {
		pairs[i] = pair{d.X[i], d.Y[i]}
	}
	// Insertion sort keeps this allocation-light; widths are small.
	for i := 1; i < len(pairs); i++ {
		for j := i; j > 0 && (pairs[j].x < pairs[j-1].x || (pairs[j].x == pairs[j-1].x && pairs[j].y < pairs[j-1].y)); j-- {
			pairs[j], pairs[j-1] = pairs[j-1], pairs[j]
		}
	}
	var b strings.Builder
	b.WriteString("IND|")
	b.WriteString(d.LRel)
	b.WriteString("|")
	b.WriteString(d.RRel)
	for _, p := range pairs {
		b.WriteString("|")
		b.WriteString(string(p.x))
		b.WriteString(">")
		b.WriteString(string(p.y))
	}
	return b.String()
}

// Validate checks the IND against the database scheme.
func (d IND) Validate(db *schema.Database) error {
	ls, ok := db.Scheme(d.LRel)
	if !ok {
		return fmt.Errorf("deps: IND %s: unknown relation %s", d, d.LRel)
	}
	rs, ok := db.Scheme(d.RRel)
	if !ok {
		return fmt.Errorf("deps: IND %s: unknown relation %s", d, d.RRel)
	}
	if len(d.X) == 0 {
		return fmt.Errorf("deps: IND %s: empty attribute sequences", d)
	}
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("deps: IND %s: sides have different lengths", d)
	}
	if !schema.Distinct(d.X) || !schema.Distinct(d.Y) {
		return fmt.Errorf("deps: IND %s: sides must be sequences of distinct attributes", d)
	}
	if !ls.HasAll(d.X) {
		return fmt.Errorf("deps: IND %s: attribute not in scheme %s", d, ls)
	}
	if !rs.HasAll(d.Y) {
		return fmt.Errorf("deps: IND %s: attribute not in scheme %s", d, rs)
	}
	return nil
}

// Trivial reports whether the IND is an instance of IND1 (reflexivity):
// R[X] ⊆ R[X] up to simultaneous permutation of both sides.
func (d IND) Trivial() bool {
	if d.LRel != d.RRel {
		return false
	}
	for i := range d.X {
		if d.X[i] != d.Y[i] {
			return false
		}
	}
	return true
}

// Typed reports whether the IND has the form R[X] ⊆ S[X]: identical
// attribute sequences on both sides. Section 3 observes that the decision
// problem restricted to typed INDs is solvable in polynomial time.
func (d IND) Typed() bool { return schema.EqualSeq(d.X, d.Y) }

// RD is a repeating dependency R[X = Y] (Section 4): in each tuple t of
// the R relation, t[X] = t[Y] componentwise. X and Y have equal length.
type RD struct {
	Rel string
	X   []schema.Attribute
	Y   []schema.Attribute
}

// NewRD builds the RD rel[x = y].
func NewRD(rel string, x, y []schema.Attribute) RD {
	return RD{Rel: rel, X: append([]schema.Attribute(nil), x...), Y: append([]schema.Attribute(nil), y...)}
}

// Kind returns KindRD.
func (r RD) Kind() Kind { return KindRD }

// String renders the RD as "R[A,B == C,D]", in one allocation.
func (r RD) String() string {
	var b strings.Builder
	b.Grow(len(r.Rel) + len("[") + schema.JoinedLen(r.X) + len(" == ") + schema.JoinedLen(r.Y) + len("]"))
	b.WriteString(r.Rel)
	b.WriteByte('[')
	schema.WriteAttrs(&b, r.X)
	b.WriteString(" == ")
	schema.WriteAttrs(&b, r.Y)
	b.WriteByte(']')
	return b.String()
}

// Key returns a canonical key. The RD R[X=Y] is equivalent to the set of
// unary RDs {R[Xi=Yi]} (Section 4), and R[A=B] is equivalent to R[B=A], so
// the key sorts the unordered component pairs.
func (r RD) Key() string {
	comps := make([]string, 0, len(r.X))
	for i := range r.X {
		a, b := string(r.X[i]), string(r.Y[i])
		if b < a {
			a, b = b, a
		}
		comps = append(comps, a+"="+b)
	}
	for i := 1; i < len(comps); i++ {
		for j := i; j > 0 && comps[j] < comps[j-1]; j-- {
			comps[j], comps[j-1] = comps[j-1], comps[j]
		}
	}
	return "RD|" + r.Rel + "|" + strings.Join(comps, "|")
}

// Validate checks the RD against the database scheme.
func (r RD) Validate(db *schema.Database) error {
	s, ok := db.Scheme(r.Rel)
	if !ok {
		return fmt.Errorf("deps: RD %s: unknown relation %s", r, r.Rel)
	}
	if len(r.X) == 0 {
		return fmt.Errorf("deps: RD %s: empty attribute sequences", r)
	}
	if len(r.X) != len(r.Y) {
		return fmt.Errorf("deps: RD %s: sides have different lengths", r)
	}
	if !s.HasAll(r.X) || !s.HasAll(r.Y) {
		return fmt.Errorf("deps: RD %s: attribute not in scheme %s", r, s)
	}
	return nil
}

// Trivial reports whether the RD is a tautology: X and Y are equal
// componentwise (the paper calls R[X=Y] nontrivial when X ≠ Y).
func (r RD) Trivial() bool { return schema.EqualSeq(r.X, r.Y) }

// Unary returns the equivalent set of unary RDs {R[Xi = Yi]}.
func (r RD) Unary() []RD {
	out := make([]RD, len(r.X))
	for i := range r.X {
		out[i] = RD{Rel: r.Rel, X: []schema.Attribute{r.X[i]}, Y: []schema.Attribute{r.Y[i]}}
	}
	return out
}

// EMVD is an embedded multivalued dependency X ->> Y | Z over relation Rel
// (Section 5). X, Y, Z are attribute sets with Y and Z disjoint. A relation
// obeys it if whenever t1[X] = t2[X] there is a tuple t3 with
// t3[XY] = t1[XY] and t3[XZ] = t2[XZ].
type EMVD struct {
	Rel string
	X   []schema.Attribute
	Y   []schema.Attribute
	Z   []schema.Attribute
}

// NewEMVD builds the EMVD rel: x ->> y | z.
func NewEMVD(rel string, x, y, z []schema.Attribute) EMVD {
	return EMVD{
		Rel: rel,
		X:   append([]schema.Attribute(nil), x...),
		Y:   append([]schema.Attribute(nil), y...),
		Z:   append([]schema.Attribute(nil), z...),
	}
}

// Kind returns KindEMVD.
func (e EMVD) Kind() Kind { return KindEMVD }

// String renders the EMVD as "R: A ->> B | C".
func (e EMVD) String() string {
	return fmt.Sprintf("%s: %s ->> %s | %s", e.Rel, schema.JoinAttrs(e.X), schema.JoinAttrs(e.Y), schema.JoinAttrs(e.Z))
}

// Key returns a canonical key. EMVD satisfaction depends on the attribute
// sets only, and X ->> Y | Z is equivalent to X ->> Z | Y, so the key
// sorts each side and orders the {Y, Z} pair.
func (e EMVD) Key() string {
	x := schema.JoinAttrs(schema.SortedSet(e.X))
	y := schema.JoinAttrs(schema.SortedSet(e.Y))
	z := schema.JoinAttrs(schema.SortedSet(e.Z))
	if z < y {
		y, z = z, y
	}
	return "EMVD|" + e.Rel + "|" + x + "|" + y + "|" + z
}

// Validate checks the EMVD against the database scheme.
func (e EMVD) Validate(db *schema.Database) error {
	s, ok := db.Scheme(e.Rel)
	if !ok {
		return fmt.Errorf("deps: EMVD %s: unknown relation %s", e, e.Rel)
	}
	if len(e.Y) == 0 || len(e.Z) == 0 {
		return fmt.Errorf("deps: EMVD %s: Y and Z must be nonempty", e)
	}
	if !schema.Distinct(e.X) || !schema.Distinct(e.Y) || !schema.Distinct(e.Z) {
		return fmt.Errorf("deps: EMVD %s: sides must be sequences of distinct attributes", e)
	}
	for _, y := range e.Y {
		for _, z := range e.Z {
			if y == z {
				return fmt.Errorf("deps: EMVD %s: Y and Z must be disjoint", e)
			}
		}
	}
	if !s.HasAll(e.X) || !s.HasAll(e.Y) || !s.HasAll(e.Z) {
		return fmt.Errorf("deps: EMVD %s: attribute not in scheme %s", e, s)
	}
	return nil
}

// Trivial reports whether the EMVD is a tautology. Y ⊆ X or Z ⊆ X
// suffices: the witness tuple t3 can be taken to be t2 or t1 respectively.
func (e EMVD) Trivial() bool {
	return schema.SubsetOf(e.Y, e.X) || schema.SubsetOf(e.Z, e.X)
}

// Set is an insertion-ordered set of dependencies keyed by canonical key.
type Set struct {
	order []Dependency
	keys  map[string]bool
}

// NewSet builds a set from the given dependencies, dropping duplicates.
func NewSet(ds ...Dependency) *Set {
	s := &Set{keys: make(map[string]bool)}
	s.Add(ds...)
	return s
}

// Add inserts dependencies, ignoring ones already present.
func (s *Set) Add(ds ...Dependency) {
	for _, d := range ds {
		k := d.Key()
		if s.keys[k] {
			continue
		}
		s.keys[k] = true
		s.order = append(s.order, d)
	}
}

// Remove deletes the dependency with the same canonical key, if present.
func (s *Set) Remove(d Dependency) {
	k := d.Key()
	if !s.keys[k] {
		return
	}
	delete(s.keys, k)
	for i, e := range s.order {
		if e.Key() == k {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// Contains reports whether the set holds a dependency with the same key.
func (s *Set) Contains(d Dependency) bool { return s.keys[d.Key()] }

// Len returns the number of dependencies in the set.
func (s *Set) Len() int { return len(s.order) }

// All returns the dependencies in insertion order. The caller must not
// modify the returned slice.
func (s *Set) All() []Dependency { return s.order }

// Minus returns a new set with the given dependencies removed.
func (s *Set) Minus(ds ...Dependency) *Set {
	out := NewSet(s.order...)
	for _, d := range ds {
		out.Remove(d)
	}
	return out
}

// FDs returns the FDs of the set in insertion order.
func (s *Set) FDs() []FD {
	var out []FD
	for _, d := range s.order {
		if f, ok := d.(FD); ok {
			out = append(out, f)
		}
	}
	return out
}

// INDs returns the INDs of the set in insertion order.
func (s *Set) INDs() []IND {
	var out []IND
	for _, d := range s.order {
		if i, ok := d.(IND); ok {
			out = append(out, i)
		}
	}
	return out
}

// RDs returns the RDs of the set in insertion order.
func (s *Set) RDs() []RD {
	var out []RD
	for _, d := range s.order {
		if r, ok := d.(RD); ok {
			out = append(out, r)
		}
	}
	return out
}

// ValidateAll validates every dependency in the set against db.
func (s *Set) ValidateAll(db *schema.Database) error {
	for _, d := range s.order {
		if err := d.Validate(db); err != nil {
			return err
		}
	}
	return nil
}

// Attrs is a convenience constructor turning strings into an attribute
// sequence.
func Attrs(names ...string) []schema.Attribute {
	out := make([]schema.Attribute, len(names))
	for i, n := range names {
		out[i] = schema.Attribute(n)
	}
	return out
}
