package core

import (
	"math/rand/v2"
	"testing"

	"indfd/internal/chase"
	"indfd/internal/deps"
	"indfd/internal/obs"
	"indfd/internal/schema"
)

// randomPoolInstance builds a random Σ of FDs, RDs and INDs of width 1
// or 2 over up to four relations R0..R3 of attributes A, B, C, so its
// components vary in number and shape, with goals of every kind.
func randomPoolInstance(r *rand.Rand) (*schema.Database, []deps.Dependency, []deps.Dependency) {
	attrs := deps.Attrs("A", "B", "C")
	rels := []string{"R0", "R1", "R2", "R3"}[:2+r.IntN(3)]
	var schemes []*schema.Scheme
	for _, rel := range rels {
		schemes = append(schemes, schema.MustScheme(rel, attrs...))
	}
	side := func(n int) []schema.Attribute {
		out := make([]schema.Attribute, n)
		for i, p := range r.Perm(len(attrs))[:n] {
			out[i] = attrs[p]
		}
		return out
	}
	random := func() deps.Dependency {
		rel := rels[r.IntN(len(rels))]
		switch r.IntN(3) {
		case 0:
			return deps.NewFD(rel, side(1+r.IntN(2)), side(1))
		case 1:
			return deps.NewRD(rel, side(1), side(1))
		default:
			w := 1 + r.IntN(2)
			return deps.NewIND(rel, side(w), rels[r.IntN(len(rels))], side(w))
		}
	}
	var sigma, goals []deps.Dependency
	for k := 1 + r.IntN(6); k > 0; k-- {
		sigma = append(sigma, random())
	}
	for k := 0; k < 4; k++ {
		goals = append(goals, random())
	}
	return schema.MustDatabase(schemes...), sigma, goals
}

// TestChasePoolKeyMatchesFingerprint: the engine pool key core hands a
// chase over a goal's component equals chase.PoolKey(db, members), the
// key the chase would otherwise hash on every run, on the reference
// instances and on random ones (bridging IND goals included), and still
// after a scheme joins the database behind the compiled components. A
// repeated chase over one component then draws the engine its first run
// parked.
func TestChasePoolKeyMatchesFingerprint(t *testing.T) {
	check := func(t *testing.T, s *System, goals []deps.Dependency) {
		t.Helper()
		for _, g := range goals {
			ci := s.relevantIndex(g)
			if got, want := s.chasePoolKey(ci), chase.PoolKey(s.DB(), ci.members); got != want {
				t.Errorf("goal %v: pool key %x, chase.PoolKey %x", g, got, want)
			}
		}
	}
	type instance struct {
		name         string
		db           *schema.Database
		sigma, goals []deps.Dependency
	}
	var instances []instance
	for _, inst := range keyInstances() {
		instances = append(instances, instance{inst.name, inst.db, inst.sigma, inst.goals})
	}
	r := rand.New(rand.NewPCG(23, 7))
	for i := 0; i < 200; i++ {
		db, sigma, goals := randomPoolInstance(r)
		instances = append(instances, instance{"random", db, sigma, goals})
	}
	for _, inst := range instances {
		s := NewSystem(inst.db)
		if err := s.Add(inst.sigma...); err != nil {
			t.Fatalf("%s: %v", inst.name, err)
		}
		for _, ci := range s.comps {
			if !ci.current(s.DB()) || ci.poolKey != chase.PoolKey(s.DB(), ci.members) {
				t.Errorf("%s: a compiled component's key is stale or wrong", inst.name)
			}
		}
		check(t, s, inst.goals)
		if err := s.DB().Add(schema.MustScheme("ZZ_LATE", "K")); err != nil {
			t.Fatal(err)
		}
		check(t, s, inst.goals)
	}

	prop41 := keyInstances()[2]
	s := NewSystem(prop41.db)
	if err := s.Add(prop41.sigma...); err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	opt := Options{ChasePool: chase.NewEnginePool(reg)}
	for range 2 {
		if a, err := s.Implies(prop41.goals[0], opt); err != nil || a.Verdict != Yes || a.Engine != "chase" {
			t.Fatalf("prop41: verdict %v engine %s err %v", a.Verdict, a.Engine, err)
		}
	}
	if h, m := reg.Counter("pool.hits").Value(), reg.Counter("pool.misses").Value(); h != 1 || m != 1 {
		t.Errorf("two chases over one component: pool.hits %d misses %d, want 1 and 1", h, m)
	}
}
