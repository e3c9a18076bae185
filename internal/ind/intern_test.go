package ind

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"indfd/internal/deps"
	"indfd/internal/intern"
	"indfd/internal/schema"
)

// TestInternerDenseIDs: expressions keyed as (relation ID, attribute
// IDs) tuples intern to dense IDs in first-seen order, and equal keys
// are exactly equal expressions.
func TestInternerDenseIDs(t *testing.T) {
	sigma := []deps.IND{
		deps.NewIND("R", deps.Attrs("A", "B"), "S", deps.Attrs("A", "B")),
		deps.NewIND("S", deps.Attrs("B", "A"), "T", deps.Attrs("C", "A")),
	}
	f := compileSigma(sigma, deps.NewIND("R", deps.Attrs("A", "B"), "T", deps.Attrs("C", "A")))
	in := intern.New(len(f.start), 4)
	r, s, tt := f.start[0], f.appliers[0].rrel, f.target[0]
	a, b, c := f.start[1], f.start[2], f.target[1]
	keys := [][]int32{{r, a, b}, {s, a, b}, {r, a, b}, {tt, c, a}, {s, a, b}, {s, b, a}}
	wantID := []int32{0, 1, 0, 2, 1, 3}
	wantFresh := []bool{true, true, false, true, false, true}
	for i, k := range keys {
		id, fresh := in.Intern(k)
		if id != wantID[i] || fresh != wantFresh[i] {
			t.Errorf("Intern(%v) = (%d, %v), want (%d, %v)", k, id, fresh, wantID[i], wantFresh[i])
		}
	}
	if id, ok := in.Lookup(f.target); !ok || id != 2 {
		t.Errorf("Lookup(target) = (%d, %v), want (2, true)", id, ok)
	}
	if _, ok := in.Lookup([]int32{tt, a, c}); ok {
		t.Errorf("Lookup(T[A,C]) found a key never interned")
	}
}

// TestCompileSigmaKeys: the start and target keys name the goal's two
// sides, every applier lands in its left-hand relation's group in sigma
// order, and equal keys are exactly equal expressions.
func TestCompileSigmaKeys(t *testing.T) {
	sigma := []deps.IND{
		deps.NewIND("S", deps.Attrs("A"), "R", deps.Attrs("B")),
		deps.NewIND("R", deps.Attrs("A"), "S", deps.Attrs("A")),
		deps.NewIND("S", deps.Attrs("B"), "T", deps.Attrs("C")),
	}
	for _, tc := range []struct {
		goal deps.IND
		same bool
	}{
		{deps.NewIND("R", deps.Attrs("A"), "R", deps.Attrs("A")), true},
		{deps.NewIND("R", deps.Attrs("A"), "R", deps.Attrs("B")), false},
		{deps.NewIND("R", deps.Attrs("A"), "S", deps.Attrs("A")), false},
		{deps.NewIND("U", deps.Attrs("D", "E"), "U", deps.Attrs("D", "E")), true},
	} {
		f := compileSigma(sigma, tc.goal)
		if got := slices.Equal(f.start, f.target); got != tc.same {
			t.Errorf("%v: start %v target %v equal=%v, want %v", tc.goal, f.start, f.target, got, tc.same)
		}
		if len(f.start) != 1+len(tc.goal.X) {
			t.Errorf("%v: start key %v, want width %d", tc.goal, f.start, 1+len(tc.goal.X))
		}
		grouped := 0
		for r := 0; r+1 < len(f.groups); r++ {
			group := f.of(int32(r))
			for i := range group {
				if group[i].d.LRel != group[0].d.LRel || (i > 0 && group[i-1].si >= group[i].si) {
					t.Errorf("%v: relation %d's group %v mixes relations or leaves sigma order", tc.goal, r, group)
				}
			}
			grouped += len(group)
		}
		if grouped != len(sigma) {
			t.Errorf("%v: %d appliers grouped, want %d", tc.goal, grouped, len(sigma))
		}
		var fromStart []int
		for _, a := range f.of(f.start[0]) {
			fromStart = append(fromStart, a.si)
		}
		var want []int
		for i, d := range sigma {
			if d.LRel == tc.goal.LRel {
				want = append(want, i)
			}
		}
		if !slices.Equal(fromStart, want) {
			t.Errorf("%v: appliers of the goal's relation %v, want members %v", tc.goal, fromStart, want)
		}
	}
}

func TestAttrMaskIsSubsetTest(t *testing.T) {
	// mask(X) &^ mask(Y) == 0 must hold whenever X ⊆ Y (the mask is a
	// necessary condition; false positives are fine, false negatives are
	// a soundness bug in the precheck). IDs 64 apart share a bit.
	x := []int32{0, 1, 70}
	y := []int32{0, 1, 2, 6}
	if idMask(x)&^idMask(y) != 0 {
		t.Fatalf("mask rejects a genuine subset")
	}
	if idMask(y)&^idMask(y) != 0 {
		t.Fatalf("mask rejects itself")
	}
	if idMask([]int32{3})&^idMask(y) == 0 {
		t.Fatalf("mask accepts an attribute the set lacks")
	}
}

// TestApplierAgreesWithApply cross-checks the compiled fast path against
// the reference apply on randomized expressions and INDs: same
// applicability verdict, same successor key, same successor attributes.
func TestApplierAgreesWithApply(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 0))
	attrs := deps.Attrs("A", "B", "C", "D", "E")
	for trial := 0; trial < 500; trial++ {
		// Random IND d: X and Y of equal width over distinct attrs.
		w := 1 + r.IntN(4)
		permX := r.Perm(len(attrs))[:w]
		permY := r.Perm(len(attrs))[:w]
		x := make([]schema.Attribute, w)
		y := make([]schema.Attribute, w)
		for i := 0; i < w; i++ {
			x[i], y[i] = attrs[permX[i]], attrs[permY[i]]
		}
		d := deps.NewIND("R", x, "S", y)
		// Random expression over R with distinct attrs.
		ew := 1 + r.IntN(4)
		permE := r.Perm(len(attrs))[:ew]
		e := Expression{Rel: "R", Attrs: make([]schema.Attribute, ew)}
		for i := 0; i < ew; i++ {
			e.Attrs[i] = attrs[permE[i]]
		}

		want, wantOK := apply(e, d)
		// The goal e ⊆ want numbers e as the start key and, when d
		// applies, want as the target key.
		f := compileSigma([]deps.IND{d}, deps.IND{LRel: e.Rel, X: e.Attrs, RRel: want.Rel, Y: want.Attrs})
		a := &f.appliers[0]
		if idMask(f.start[1:])&^a.mask != 0 && wantOK {
			t.Fatalf("trial %d: mask precheck rejected an applicable IND: %v to %v", trial, d, e)
		}
		key := make([]int32, len(f.start))
		ok := a.succ(key, f.start)
		if ok != wantOK {
			t.Fatalf("trial %d: succ ok=%v, apply ok=%v (%v to %v)", trial, ok, wantOK, d, e)
		}
		if !ok {
			continue
		}
		if !slices.Equal(key, f.target) {
			t.Errorf("trial %d: key %v, want %v (%v)", trial, key, f.target, want)
		}
		succ := a.succAttrs(f.start)
		if !schema.EqualSeq(succ, want.Attrs) {
			t.Errorf("trial %d: succAttrs %v, want %v", trial, succ, want.Attrs)
		}
	}
}

// TestDecideInternedStatsUnchanged pins the Stats of a known instance:
// interning must not change what the search counts, only what it
// allocates.
func TestDecideInternedStatsUnchanged(t *testing.T) {
	db, sigma, goal := chainInstance(40)
	res, err := Decide(db, sigma, goal)
	if err != nil || !res.Implied {
		t.Fatalf("Decide: %v %v", res.Implied, err)
	}
	ok, naive := DecideNaive(sigma, goal)
	if !ok {
		t.Fatalf("DecideNaive disagrees")
	}
	// Both walk the same width-1 chain: identical distinct-expression and
	// generation counts.
	if res.Stats.Visited != naive.Visited || res.Stats.Generated != naive.Generated {
		t.Errorf("interned stats drifted from the naive reference: %+v vs %+v", res.Stats, naive)
	}
	if res.Stats.ChainLength != 40 {
		t.Errorf("ChainLength = %d, want 40", res.Stats.ChainLength)
	}
}

// TestDecideInternedLargeFrontier exercises map growth and arena realloc
// with a fan-out instance: every relation includes into k others.
func TestDecideInternedLargeFrontier(t *testing.T) {
	const n, k = 30, 3
	var schemes []*schema.Scheme
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("R%d", i)
		schemes = append(schemes, schema.MustScheme(names[i], "A", "B"))
	}
	db := schema.MustDatabase(schemes...)
	var sigma []deps.IND
	for i := 0; i < n; i++ {
		for j := 1; j <= k; j++ {
			sigma = append(sigma, deps.NewIND(names[i], deps.Attrs("A", "B"),
				names[(i+j)%n], deps.Attrs("B", "A")))
		}
	}
	goal := deps.NewIND(names[0], deps.Attrs("A"), names[n-1], deps.Attrs("B"))
	res, err := Decide(db, sigma, goal)
	if err != nil {
		t.Fatalf("Decide: %v", err)
	}
	naiveOK, _ := DecideNaive(sigma, goal)
	if res.Implied != naiveOK {
		t.Errorf("interned verdict %v disagrees with naive %v", res.Implied, naiveOK)
	}
	if res.Implied {
		if err := CheckChain(sigma, goal, res.Chain, res.Via); err != nil {
			t.Errorf("chain does not verify: %v", err)
		}
	}
}
