package core

import (
	"fmt"
	"testing"

	"indfd/internal/deps"
	"indfd/internal/fd"
	"indfd/internal/schema"
)

// keyInstance is one Σ with the goals TestQueryKeyMatchesFingerprint
// asks of it.
type keyInstance struct {
	name  string
	db    *schema.Database
	sigma []deps.Dependency
	goals []deps.Dependency
}

// chainAttrs returns the attribute names prefix0 .. prefix(n-1).
func chainAttrs(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return out
}

// keyInstances rebuilds the reference shapes: an FD chain, a width-2
// IND chain, Proposition 4.1, the IND spiral, and the 120-member wide-FD
// tableau (internal/benchws builds the last two, but it imports core).
// The mixed instance adds the two cases without a precompiled prefix: an
// IND goal bridging two components, and a goal over a relation no
// member names.
func keyInstances() []keyInstance {
	var out []keyInstance

	// FD chain A0 -> A1 -> ... -> A31: one 31-member component.
	attrs := chainAttrs("A", 32)
	fdChain := keyInstance{name: "fd-chain", db: schema.MustDatabase(schema.MustScheme("R", deps.Attrs(attrs...)...))}
	for i := 0; i+1 < len(attrs); i++ {
		fdChain.sigma = append(fdChain.sigma, deps.NewFD("R", deps.Attrs(attrs[i]), deps.Attrs(attrs[i+1])))
	}
	fdChain.goals = []deps.Dependency{
		deps.NewFD("R", deps.Attrs("A0"), deps.Attrs("A31")),
		deps.NewFD("R", deps.Attrs("A5"), deps.Attrs("A2")),
		deps.NewFD("R", deps.Attrs("A3", "A7"), deps.Attrs("A20", "A4")),
	}
	out = append(out, fdChain)

	// Width-2 IND chain T0[A,B] ⊆ T1[A,B] ⊆ ... ⊆ T5[A,B].
	rels := chainAttrs("T", 6)
	var schemes []*schema.Scheme
	for _, r := range rels {
		schemes = append(schemes, schema.MustScheme(r, "A", "B"))
	}
	indChain := keyInstance{name: "ind-chain", db: schema.MustDatabase(schemes...)}
	for i := 0; i+1 < len(rels); i++ {
		indChain.sigma = append(indChain.sigma, deps.NewIND(rels[i], deps.Attrs("A", "B"), rels[i+1], deps.Attrs("A", "B")))
	}
	indChain.goals = []deps.Dependency{
		deps.NewIND("T0", deps.Attrs("A", "B"), "T5", deps.Attrs("A", "B")),
		deps.NewIND("T0", deps.Attrs("B"), "T3", deps.Attrs("B")),
		deps.NewIND("T5", deps.Attrs("A"), "T0", deps.Attrs("A")),
	}
	out = append(out, indChain)

	// Proposition 4.1: R[X,Y] ⊆ S[T,U] and S: T -> U imply R: X -> Y.
	out = append(out, keyInstance{
		name: "prop41",
		db:   schema.MustDatabase(schema.MustScheme("R", "X", "Y"), schema.MustScheme("S", "T", "U")),
		sigma: []deps.Dependency{
			deps.NewIND("R", deps.Attrs("X", "Y"), "S", deps.Attrs("T", "U")),
			deps.NewFD("S", deps.Attrs("T"), deps.Attrs("U")),
		},
		goals: []deps.Dependency{
			deps.NewFD("R", deps.Attrs("X"), deps.Attrs("Y")),
			deps.NewFD("S", deps.Attrs("U"), deps.Attrs("T")),
			deps.NewRD("R", deps.Attrs("X"), deps.Attrs("Y")),
		},
	})

	// The 4-deep IND spiral Li[B,C] ⊆ L(i+1 mod 4)[A,B], with a quiet FD
	// on M in a component of its own.
	spiral := keyInstance{name: "spiral"}
	spiralRels := chainAttrs("L", 4)
	schemes = []*schema.Scheme{schema.MustScheme("M", "A", "B")}
	for _, r := range spiralRels {
		schemes = append(schemes, schema.MustScheme(r, "A", "B", "C"))
	}
	spiral.db = schema.MustDatabase(schemes...)
	spiral.sigma = []deps.Dependency{deps.NewFD("M", deps.Attrs("A"), deps.Attrs("B"))}
	for i, r := range spiralRels {
		spiral.sigma = append(spiral.sigma, deps.NewIND(r, deps.Attrs("B", "C"),
			spiralRels[(i+1)%len(spiralRels)], deps.Attrs("A", "B")))
	}
	spiral.goals = []deps.Dependency{
		deps.NewFD("L0", deps.Attrs("A"), deps.Attrs("C")),
		deps.NewFD("M", deps.Attrs("A"), deps.Attrs("B")),
		deps.NewIND("L2", deps.Attrs("C"), "L3", deps.Attrs("B")),
	}
	out = append(out, spiral)

	// The wide-FD tableau at m = 119: P[A,Bi] ⊆ Q[X,Y] for every i, plus
	// Q: X -> Y — 120 members in one component.
	wideAttrs := append([]string{"A"}, chainAttrs("B", 120)[1:]...)
	wide := keyInstance{name: "wide-fd", db: schema.MustDatabase(
		schema.MustScheme("P", deps.Attrs(wideAttrs...)...), schema.MustScheme("Q", "X", "Y"))}
	for _, b := range wideAttrs[1:] {
		wide.sigma = append(wide.sigma, deps.NewIND("P", deps.Attrs("A", b), "Q", deps.Attrs("X", "Y")))
	}
	wide.sigma = append(wide.sigma, deps.NewFD("Q", deps.Attrs("X"), deps.Attrs("Y")))
	wide.goals = []deps.Dependency{
		deps.NewRD("P", deps.Attrs("B1"), deps.Attrs("B119")),
		deps.NewFD("Q", deps.Attrs("X"), deps.Attrs("Y")),
	}
	out = append(out, wide)

	// Two components {U}, {V} and a relation W no member names.
	out = append(out, keyInstance{
		name: "mixed",
		db: schema.MustDatabase(schema.MustScheme("U", "E", "F"), schema.MustScheme("V", "G", "H"),
			schema.MustScheme("W", "P", "Q")),
		sigma: []deps.Dependency{
			deps.NewFD("U", deps.Attrs("E"), deps.Attrs("F")),
			deps.NewFD("V", deps.Attrs("G"), deps.Attrs("H")),
			deps.NewIND("V", deps.Attrs("H"), "V", deps.Attrs("G")),
		},
		goals: []deps.Dependency{
			deps.NewIND("U", deps.Attrs("E", "F"), "V", deps.Attrs("G", "H")), // bridges {U} and {V}
			deps.NewFD("W", deps.Attrs("P"), deps.Attrs("Q")),                 // no member names W
			deps.NewIND("W", deps.Attrs("P"), "U", deps.Attrs("E")),           // bridges an empty component
			deps.NewFD("U", deps.Attrs("E"), deps.Attrs("F")),
		},
	})
	return out
}

// keyExtras are the extras spellings the pin crosses with every goal:
// none, serve's default request, and a non-default one.
var keyExtras = [][]string{
	nil,
	append(FingerprintOptions(Options{}), "explain=false"),
	append(FingerprintOptions(Options{ChaseMaxTuples: 500, SearchFallback: true, Provenance: true}), "explain=true"),
}

// TestQueryKeyMatchesFingerprint pins QueryKey's contract: for every goal,
// mode and extras it equals QueryFingerprint(DB(), Relevant(goal), goal,
// mode, extras...) byte for byte — on components with a precompiled key
// prefix, on the ones without (bridging IND goals, relations Σ does not
// name), and after a scheme joins the System's database behind the
// prefix's back. One golden key pins the bytes themselves: a change
// there orphans every digest and cached key clients have seen.
func TestQueryKeyMatchesFingerprint(t *testing.T) {
	chain := keyInstances()[0]
	s := NewSystem(chain.db)
	if err := s.Add(chain.sigma...); err != nil {
		t.Fatal(err)
	}
	const golden = "7df3231d9256bf797715d6762be9197b15f619a60d27be2bd79c42f7a46668d2"
	if got := s.QueryKey(chain.goals[0], "unrestricted", keyExtras[1]...); got != golden {
		t.Errorf("FD chain A0 -> A31, serve's default extras: QueryKey = %s, want %s", got, golden)
	}

	check := func(t *testing.T, s *System, goals []deps.Dependency) {
		t.Helper()
		for _, g := range goals {
			for _, mode := range []string{"unrestricted", "finite"} {
				for _, extras := range keyExtras {
					want := QueryFingerprint(s.DB(), s.Relevant(g), g, mode, extras...)
					if got := s.QueryKey(g, mode, extras...); got != want {
						t.Errorf("goal %v mode %s extras %q:\nQueryKey         %s\nQueryFingerprint %s",
							g, mode, extras, got, want)
					}
				}
			}
		}
	}
	for _, inst := range keyInstances() {
		t.Run(inst.name, func(t *testing.T) {
			s := NewSystem(inst.db)
			if err := s.Add(inst.sigma...); err != nil {
				t.Fatal(err)
			}
			check(t, s, inst.goals)
			// A scheme added after Add changes the canonical render every
			// key hashes first; the keys must follow it.
			before := s.QueryKey(inst.goals[0], "unrestricted")
			if err := s.DB().Add(schema.MustScheme("ZZ_LATE", "K")); err != nil {
				t.Fatal(err)
			}
			if s.QueryKey(inst.goals[0], "unrestricted") == before {
				t.Errorf("key did not change after a scheme joined the database")
			}
			check(t, s, inst.goals)
		})
	}
}

// TestQueryKeyGoalAsSpelled: two spellings of one FD goal get two keys,
// because the proof a cached answer carries names the goal as the
// filling request spelled it.
func TestQueryKeyGoalAsSpelled(t *testing.T) {
	s := NewSystem(schema.MustDatabase(schema.MustScheme("R", "A", "B", "C")))
	if err := s.Add(deps.NewFD("R", deps.Attrs("A"), deps.Attrs("B")), deps.NewFD("R", deps.Attrs("A"), deps.Attrs("C"))); err != nil {
		t.Fatal(err)
	}
	bc := deps.NewFD("R", deps.Attrs("A"), deps.Attrs("B", "C"))
	cb := deps.NewFD("R", deps.Attrs("A"), deps.Attrs("C", "B"))
	if s.QueryKey(bc, "unrestricted") == s.QueryKey(cb, "unrestricted") {
		t.Errorf("goals %v and %v share a key", bc, cb)
	}
}

// TestCachedProofValidAcrossSigmaOrder: Σ orderings with the same
// members share a key, so the proof one ordering derived may be served
// to the other. Each proof must then verify against the other Σ, even
// though the two differ (one step against two).
func TestCachedProofValidAcrossSigmaOrder(t *testing.T) {
	db := schema.MustDatabase(schema.MustScheme("R", "A", "B", "C"))
	ab := deps.NewFD("R", deps.Attrs("A"), deps.Attrs("B"))
	bc := deps.NewFD("R", deps.Attrs("B"), deps.Attrs("C"))
	ac := deps.NewFD("R", deps.Attrs("A"), deps.Attrs("C"))
	orders := [][]deps.FD{{ac, ab, bc}, {ab, bc, ac}}
	goal := ac
	var keys []string
	var proofs []fd.Proof
	for _, sigma := range orders {
		s := NewSystem(db)
		for _, d := range sigma {
			if err := s.Add(d); err != nil {
				t.Fatal(err)
			}
		}
		ans, err := s.Implies(goal, Options{})
		if err != nil || ans.Verdict != Yes || ans.Engine != "fd" {
			t.Fatalf("Σ %v: verdict %v engine %s err %v; want yes/fd", sigma, ans.Verdict, ans.Engine, err)
		}
		p, ok := s.relevantIndex(goal).prover("R").Prove(goal, nil)
		if !ok || p.String() != ans.Proof {
			t.Fatalf("Σ %v: prover proof %q, answer proof %q", sigma, p.String(), ans.Proof)
		}
		keys = append(keys, s.QueryKey(goal, "unrestricted"))
		proofs = append(proofs, p)
	}
	if keys[0] != keys[1] {
		t.Errorf("Σ orderings with the same members got different keys")
	}
	if len(proofs[0].Steps) != 1 || len(proofs[1].Steps) != 2 {
		t.Errorf("proof steps = %d, %d; want 1, 2 (the orderings derive different proofs)",
			len(proofs[0].Steps), len(proofs[1].Steps))
	}
	for i, p := range proofs {
		other := orders[1-i]
		if err := p.Verify(other); err != nil {
			t.Errorf("proof from Σ %v does not verify against Σ %v: %v", orders[i], other, err)
		}
	}
}

// BenchmarkQueryKey times one fingerprint on the 31-member FD chain
// with serve's default extras.
func BenchmarkQueryKey(b *testing.B) {
	inst := keyInstances()[0]
	s := NewSystem(inst.db)
	if err := s.Add(inst.sigma...); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.QueryKey(inst.goals[0], "unrestricted", keyExtras[1]...)
	}
}
