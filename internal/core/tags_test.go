package core

import (
	"fmt"
	"slices"
	"testing"

	"indfd/internal/deps"
	"indfd/internal/schema"
)

// tagsSystem is Proposition 4.1 plus a relation T the IND T[E] ⊆ R[X]
// joins to the component. Nothing ever fills T, so the chase for
// R: X -> Y scans neither T member: both stay out of its footprint.
func tagsSystem(t *testing.T) (*System, []deps.Dependency) {
	t.Helper()
	db := schema.MustDatabase(
		schema.MustScheme("R", "X", "Y"),
		schema.MustScheme("S", "T", "U"),
		schema.MustScheme("T", "E", "F"),
	)
	sigma := []deps.Dependency{
		deps.NewIND("R", deps.Attrs("X", "Y"), "S", deps.Attrs("T", "U")),
		deps.NewFD("S", deps.Attrs("T"), deps.Attrs("U")),
		deps.NewIND("T", deps.Attrs("E"), "R", deps.Attrs("X")),
		deps.NewFD("T", deps.Attrs("E"), deps.Attrs("F")),
	}
	s := NewSystem(db)
	if err := s.Add(sigma...); err != nil {
		t.Fatal(err)
	}
	return s, sigma
}

func keysOf(ds ...deps.Dependency) []string {
	keys := make([]string, len(ds))
	for i, d := range ds {
		keys[i] = d.Key()
	}
	return keys
}

func sortedTags(tags []string) []string {
	out := slices.Clone(tags)
	slices.Sort(out)
	return out
}

func TestAnswerTags(t *testing.T) {
	s, sigma := tagsSystem(t)
	goal := deps.NewFD("R", deps.Attrs("X"), deps.Attrs("Y"))
	component := sortedTags(keysOf(sigma...))

	// A chase Yes with a derivation is tagged with the derivation's
	// members only: the IND that copies the seeds and the FD that fires.
	a, err := s.Implies(goal, Options{Provenance: true, Footprint: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Engine != "chase" || a.Verdict != Yes || a.Derivation == nil {
		t.Fatalf("answer %v/%s with derivation %v, want a chase yes with one", a.Verdict, a.Engine, a.Derivation != nil)
	}
	want := sortedTags(keysOf(sigma[0], sigma[1]))
	if got := sortedTags(s.AnswerTags(&a, goal)); !slices.Equal(got, want) {
		t.Errorf("derivation tags %q, want %q", got, want)
	}

	// A footprint alone names the members the chase touched; the T
	// members were never scanned and are excluded.
	a, err = s.Implies(goal, Options{Footprint: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Derivation != nil || a.Footprint == nil {
		t.Fatalf("footprint-only answer: derivation %v, footprint %v", a.Derivation != nil, a.Footprint)
	}
	if got := sortedTags(s.AnswerTags(&a, goal)); !slices.Equal(got, want) {
		t.Errorf("footprint tags %q, want %q", got, want)
	}

	// Without a footprint the answer depends, as far as the cache can
	// tell, on the whole component.
	a, err = s.Implies(goal, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := sortedTags(s.AnswerTags(&a, goal)); !slices.Equal(got, component) {
		t.Errorf("uncaptured tags %q, want the component %q", got, component)
	}

	// Nil means nothing was captured; empty means no member matters.
	if got := s.AnswerTags(&Answer{Footprint: nil}, goal); !slices.Equal(sortedTags(got), component) {
		t.Errorf("nil footprint tags %q, want the component %q", got, component)
	}
	if got := s.AnswerTags(&Answer{Footprint: []int{}}, goal); len(got) != 0 {
		t.Errorf("empty footprint tags %q, want none", got)
	}
}

// TestAnswerTagsClosedFormEngines: the fd and ind engines report no
// footprint, so their answers carry every key of the goal's component.
func TestAnswerTagsClosedFormEngines(t *testing.T) {
	db := schema.MustDatabase(
		schema.MustScheme("R", "A", "B", "C"),
		schema.MustScheme("S", "A", "B"),
	)
	fds := []deps.Dependency{
		deps.NewFD("R", deps.Attrs("A"), deps.Attrs("B")),
		deps.NewFD("R", deps.Attrs("B"), deps.Attrs("C")),
	}
	inds := []deps.Dependency{
		deps.NewIND("S", deps.Attrs("A"), "S", deps.Attrs("B")),
	}
	s := NewSystem(db)
	if err := s.Add(append(fds, inds...)...); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		engine string
		goal   deps.Dependency
		want   []string
	}{
		{"fd", deps.NewFD("R", deps.Attrs("A"), deps.Attrs("C")), keysOf(fds...)},
		{"ind", deps.NewIND("S", deps.Attrs("A"), "S", deps.Attrs("B")), keysOf(inds...)},
	} {
		a, err := s.Implies(tc.goal, Options{Footprint: true})
		if err != nil {
			t.Fatal(err)
		}
		if a.Engine != tc.engine || a.Footprint != nil {
			t.Fatalf("%v answered by %s with footprint %v, want %s with none", tc.goal, a.Engine, a.Footprint, tc.engine)
		}
		if got, want := sortedTags(s.AnswerTags(&a, tc.goal)), sortedTags(tc.want); !slices.Equal(got, want) {
			t.Errorf("%s engine tags %q, want the component %q", tc.engine, got, want)
		}
	}
}

// TestAnswerTagsSorted: AnswerTags emits its tags in sorted-key order —
// the order the cache keeps without copying — for derivation,
// footprint and closed-form answers alike.
func TestAnswerTagsSorted(t *testing.T) {
	s, sigma := tagsSystem(t)
	goals := []deps.Dependency{
		deps.NewFD("R", deps.Attrs("X"), deps.Attrs("Y")),
		deps.NewIND("T", deps.Attrs("E"), "S", deps.Attrs("T")),
		deps.NewFD("S", deps.Attrs("U"), deps.Attrs("T")),
	}
	for _, goal := range goals {
		for _, opt := range []Options{{Footprint: true}, {Provenance: true, Footprint: true}, {}} {
			a, err := s.Implies(goal, opt)
			if err != nil {
				t.Fatal(err)
			}
			tags := s.AnswerTags(&a, goal)
			if !slices.IsSorted(tags) {
				t.Errorf("%v %+v: tags %v not sorted", goal, opt, tags)
			}
			if len(tags) > len(sigma) {
				t.Errorf("%v: %d tags for a %d-member Σ", goal, len(tags), len(sigma))
			}
		}
	}
	full := make([]int, len(sigma))
	for i := range full {
		full[i] = i
	}
	goal := goals[0]
	if got, want := s.AnswerTags(&Answer{Footprint: full}, goal), sortedTags(keysOf(sigma...)); !slices.Equal(got, want) {
		t.Errorf("full footprint tags = %v, want %v", got, want)
	}

	// A component wider than the on-stack rank bitmap (256 members).
	attrs := make([]schema.Attribute, 301)
	for i := range attrs {
		attrs[i] = schema.Attribute(fmt.Sprintf("A%d", i))
	}
	wide := NewSystem(schema.MustDatabase(schema.MustScheme("R", attrs...)))
	var chain []deps.Dependency
	for i := 0; i < 300; i++ {
		chain = append(chain, deps.NewFD("R", attrs[i:i+1], attrs[i+1:i+2]))
	}
	if err := wide.Add(chain...); err != nil {
		t.Fatal(err)
	}
	goal = deps.NewFD("R", deps.Attrs("A0"), deps.Attrs("A300"))
	fp := []int{0, 5, 150, 257, 299}
	var want []string
	for _, at := range fp {
		want = append(want, chain[at].Key())
	}
	if got := wide.AnswerTags(&Answer{Footprint: fp}, goal); !slices.Equal(got, sortedTags(want)) {
		t.Errorf("300-member component, footprint %v: tags %v, want %v", fp, got, sortedTags(want))
	}
}
