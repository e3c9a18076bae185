// Package schema implements the data-definition layer of the paper
// "Inclusion Dependencies and Their Interaction with Functional
// Dependencies" (Casanova, Fagin, Papadimitriou, PODS 1982): relation
// schemes R[A1,...,Am], database schemes, and attribute sequences.
//
// Following Section 2 of the paper, a relation scheme is a pair of a name
// and a finite *sequence* of attributes (not a set: the paper needs
// sequences so that FDs and INDs can be interrelated), and a database
// scheme is a finite set of relation schemes.
package schema

import (
	"fmt"
	"slices"
	"strings"
)

// Attribute is the name of a column of a relation scheme. Attributes are
// compared by name; the same attribute name may appear in several relation
// schemes (they are then unrelated columns).
type Attribute string

// Scheme is a relation scheme R[A1,...,Am]: a relation name together with
// an ordered sequence of distinct attributes.
type Scheme struct {
	name  string
	attrs []Attribute
	pos   map[Attribute]int
}

// NewScheme builds the relation scheme name[attrs...]. It returns an error
// if the name is empty, no attributes are given, or the attributes are not
// distinct.
func NewScheme(name string, attrs ...Attribute) (*Scheme, error) {
	if name == "" {
		return nil, fmt.Errorf("schema: relation scheme must have a name")
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("schema: relation scheme %s must have at least one attribute", name)
	}
	pos := make(map[Attribute]int, len(attrs))
	for i, a := range attrs {
		if a == "" {
			return nil, fmt.Errorf("schema: relation scheme %s has an empty attribute name", name)
		}
		if _, dup := pos[a]; dup {
			return nil, fmt.Errorf("schema: relation scheme %s repeats attribute %s", name, a)
		}
		pos[a] = i
	}
	return &Scheme{name: name, attrs: append([]Attribute(nil), attrs...), pos: pos}, nil
}

// MustScheme is NewScheme that panics on error. It is intended for tests,
// examples, and the paper's fixed constructions.
func MustScheme(name string, attrs ...Attribute) *Scheme {
	s, err := NewScheme(name, attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Name returns the relation name.
func (s *Scheme) Name() string { return s.name }

// Attrs returns the attribute sequence of the scheme. The caller must not
// modify the returned slice.
func (s *Scheme) Attrs() []Attribute { return s.attrs }

// Width returns the number of attributes.
func (s *Scheme) Width() int { return len(s.attrs) }

// Pos returns the position (0-based) of attribute a in the scheme, and
// whether the scheme has the attribute at all.
func (s *Scheme) Pos(a Attribute) (int, bool) {
	i, ok := s.pos[a]
	return i, ok
}

// Has reports whether the scheme has attribute a.
func (s *Scheme) Has(a Attribute) bool {
	_, ok := s.pos[a]
	return ok
}

// HasAll reports whether the scheme has every attribute in seq.
func (s *Scheme) HasAll(seq []Attribute) bool {
	for _, a := range seq {
		if !s.Has(a) {
			return false
		}
	}
	return true
}

// String renders the scheme as R(A,B,C).
func (s *Scheme) String() string {
	parts := make([]string, len(s.attrs))
	for i, a := range s.attrs {
		parts[i] = string(a)
	}
	return s.name + "(" + strings.Join(parts, ",") + ")"
}

// Database is a database scheme: a finite set of relation schemes, indexed
// by name. The insertion order of schemes is preserved for deterministic
// iteration.
type Database struct {
	order   []string
	schemes map[string]*Scheme
	// canon is the name-sorted render of every scheme, rebuilt by Add.
	// Fingerprinting a query hashes the whole scheme, so keeping the
	// render current on (rare) Adds makes it free on (hot) queries.
	canon string
}

// NewDatabase builds a database scheme from the given relation schemes. It
// returns an error if two schemes share a name.
func NewDatabase(schemes ...*Scheme) (*Database, error) {
	d := &Database{schemes: make(map[string]*Scheme, len(schemes))}
	for _, s := range schemes {
		if err := d.Add(s); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// MustDatabase is NewDatabase that panics on error.
func MustDatabase(schemes ...*Scheme) *Database {
	d, err := NewDatabase(schemes...)
	if err != nil {
		panic(err)
	}
	return d
}

// Add inserts one more relation scheme into the database scheme.
func (d *Database) Add(s *Scheme) error {
	if s == nil {
		return fmt.Errorf("schema: nil relation scheme")
	}
	if _, dup := d.schemes[s.name]; dup {
		return fmt.Errorf("schema: duplicate relation scheme %s", s.name)
	}
	d.schemes[s.name] = s
	d.order = append(d.order, s.name)
	names := slices.Clone(d.order)
	slices.Sort(names)
	var b strings.Builder
	for _, name := range names {
		b.WriteString(d.schemes[name].String())
		b.WriteByte(0)
	}
	d.canon = b.String()
	return nil
}

// Canonical returns a canonical render of the database scheme: every
// relation scheme in name order, NUL-separated. Two databases have equal
// canonical forms exactly when they have the same schemes.
func (d *Database) Canonical() string { return d.canon }

// Scheme returns the relation scheme with the given name.
func (d *Database) Scheme(name string) (*Scheme, bool) {
	s, ok := d.schemes[name]
	return s, ok
}

// Names returns the relation names in insertion order. The caller must not
// modify the returned slice.
func (d *Database) Names() []string { return d.order }

// Len returns the number of relation schemes.
func (d *Database) Len() int { return len(d.order) }

// String renders the database scheme, one relation scheme per line, in
// insertion order.
func (d *Database) String() string {
	var b strings.Builder
	for i, name := range d.order {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(d.schemes[name].String())
	}
	return b.String()
}

// Distinct reports whether the attribute sequence has no repeated
// attribute. Both sides of an IND and each side of an FD must be distinct
// sequences (Section 2 of the paper).
func Distinct(seq []Attribute) bool {
	// Dependency sides are a handful of attributes; the quadratic scan
	// is both faster and allocation-free there (goal validation sits on
	// the pooled serve path, which pins zero steady-state allocations).
	if len(seq) <= 16 {
		for i := 1; i < len(seq); i++ {
			for j := 0; j < i; j++ {
				if seq[j] == seq[i] {
					return false
				}
			}
		}
		return true
	}
	seen := make(map[Attribute]bool, len(seq))
	for _, a := range seq {
		if seen[a] {
			return false
		}
		seen[a] = true
	}
	return true
}

// EqualSeq reports whether two attribute sequences are equal elementwise.
func EqualSeq(x, y []Attribute) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every attribute of x occurs in y (as sets).
func SubsetOf(x, y []Attribute) bool {
	set := make(map[Attribute]bool, len(y))
	for _, a := range y {
		set[a] = true
	}
	for _, a := range x {
		if !set[a] {
			return false
		}
	}
	return true
}

// SortedSet returns the distinct attributes of seq in sorted order.
func SortedSet(seq []Attribute) []Attribute {
	// Hot path: attribute lists are tiny and this runs per dependency
	// Key(), so sort-and-compact a copy instead of churning a map.
	out := slices.Clone(seq)
	slices.Sort(out)
	return slices.Compact(out)
}

// JoinAttrs renders an attribute sequence as "A,B,C".
func JoinAttrs(seq []Attribute) string {
	switch len(seq) {
	case 0:
		return ""
	case 1:
		return string(seq[0])
	}
	var b strings.Builder
	b.Grow(JoinedLen(seq))
	WriteAttrs(&b, seq)
	return b.String()
}

// JoinedLen is len(JoinAttrs(seq)), for a caller sizing one builder for
// a text that embeds several sequences.
func JoinedLen(seq []Attribute) int {
	n := max(len(seq)-1, 0)
	for _, a := range seq {
		n += len(a)
	}
	return n
}

// WriteAttrs writes JoinAttrs(seq) into b.
func WriteAttrs(b *strings.Builder, seq []Attribute) {
	for i, a := range seq {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(string(a))
	}
}

// Concat returns the concatenation of attribute sequences.
func Concat(seqs ...[]Attribute) []Attribute {
	var out []Attribute
	for _, s := range seqs {
		out = append(out, s...)
	}
	return out
}
