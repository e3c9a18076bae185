package core

import (
	"testing"

	"indfd/internal/chase"
	"indfd/internal/deps"
	"indfd/internal/obs"
	"indfd/internal/schema"
)

// TestImpliesObsAllocs pins the allocations of an instrumented query:
// System.Implies with a registry and a warm engine pool, as depserve
// runs it, on an FD goal the fd prover answers and on the Proposition
// 4.1 goal only the chase decides. The query's span tree is built once
// and handed back as Answer.Trace, the goal is rendered once for the
// span, and an fd answer keeps its derivation's steps, rendering no
// text. Measured 9 and 20 allocations per query (Go 1.24,
// linux/amd64); rendering the proof text made the fd query 10,
// rendering the goal once per use made it 14, and a deep copy of the
// tree per query made them 19 and 35.
func TestImpliesObsAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	fdSys := NewSystem(schema.MustDatabase(schema.MustScheme("R", "A", "B", "C")))
	if err := fdSys.Add(
		deps.NewFD("R", deps.Attrs("A"), deps.Attrs("B")),
		deps.NewFD("R", deps.Attrs("B"), deps.Attrs("C")),
	); err != nil {
		t.Fatal(err)
	}
	chaseSys := NewSystem(schema.MustDatabase(
		schema.MustScheme("R", "X", "Y"),
		schema.MustScheme("S", "T", "U"),
	))
	if err := chaseSys.Add(
		deps.NewIND("R", deps.Attrs("X", "Y"), "S", deps.Attrs("T", "U")),
		deps.NewFD("S", deps.Attrs("T"), deps.Attrs("U")),
	); err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	opt := Options{Obs: reg, ChasePool: chase.NewEnginePool(reg)}
	for _, tc := range []struct {
		name    string
		sys     *System
		goal    deps.Dependency
		engine  string
		ceiling float64
	}{
		{"fd", fdSys, deps.NewFD("R", deps.Attrs("A"), deps.Attrs("C")), "fd", 9},
		{"prop41", chaseSys, deps.NewFD("R", deps.Attrs("X"), deps.Attrs("Y")), "chase", 20},
	} {
		query := func() {
			a, err := tc.sys.Implies(tc.goal, opt)
			if err != nil || a.Verdict != Yes || a.Engine != tc.engine || a.Trace == nil {
				t.Fatalf("%s: verdict %v engine %q trace %v err %v", tc.name, a.Verdict, a.Engine, a.Trace != nil, err)
			}
		}
		query() // warm: the pool's engine and the component's prover
		got := testing.AllocsPerRun(200, query)
		t.Logf("%s: %.1f allocs/query", tc.name, got)
		if got > tc.ceiling {
			t.Errorf("%s: %.1f allocs/query, ceiling %.0f", tc.name, got, tc.ceiling)
		}
	}
}
