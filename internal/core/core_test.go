package core

import (
	"maps"
	"strings"
	"testing"

	"indfd/internal/data"
	"indfd/internal/deps"
	"indfd/internal/obs"
	"indfd/internal/schema"
)

func managerDB() *schema.Database {
	return schema.MustDatabase(
		schema.MustScheme("MGR", "NAME", "DEPT"),
		schema.MustScheme("EMP", "NAME", "DEPT", "SAL"),
	)
}

func TestINDDispatchWithProof(t *testing.T) {
	s := NewSystem(managerDB())
	if err := s.Add(deps.NewIND("MGR", deps.Attrs("NAME", "DEPT"), "EMP", deps.Attrs("NAME", "DEPT"))); err != nil {
		t.Fatalf("Add: %v", err)
	}
	a, err := s.Implies(deps.NewIND("MGR", deps.Attrs("NAME"), "EMP", deps.Attrs("NAME")), Options{})
	if err != nil {
		t.Fatalf("Implies: %v", err)
	}
	if a.Verdict != Yes || a.Engine != "ind" {
		t.Errorf("answer = %+v", a)
	}
	if !strings.Contains(a.Proof, "IND2") {
		t.Errorf("proof should use IND2:\n%s", a.Proof)
	}
	// Finite and unrestricted agree for pure INDs.
	af, err := s.ImpliesFinite(deps.NewIND("MGR", deps.Attrs("NAME"), "EMP", deps.Attrs("NAME")), Options{})
	if err != nil || af.Verdict != Yes {
		t.Errorf("finite answer = %+v (%v)", af, err)
	}
	// A non-consequence gets a counterexample.
	a, err = s.Implies(deps.NewIND("EMP", deps.Attrs("NAME"), "MGR", deps.Attrs("NAME")), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Verdict != No || a.Counterexample == nil {
		t.Errorf("answer = %+v", a)
	}
}

func TestFDDispatchWithProof(t *testing.T) {
	db := schema.MustDatabase(schema.MustScheme("R", "A", "B", "C"))
	s := NewSystem(db)
	if err := s.Add(
		deps.NewFD("R", deps.Attrs("A"), deps.Attrs("B")),
		deps.NewFD("R", deps.Attrs("B"), deps.Attrs("C")),
	); err != nil {
		t.Fatal(err)
	}
	a, err := s.Implies(deps.NewFD("R", deps.Attrs("A"), deps.Attrs("C")), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Verdict != Yes || a.Engine != "fd" || a.Proof == "" {
		t.Errorf("answer = %+v", a)
	}
	a, _ = s.Implies(deps.NewFD("R", deps.Attrs("C"), deps.Attrs("A")), Options{})
	if a.Verdict != No {
		t.Errorf("answer = %+v", a)
	}
}

func TestUnaryDispatchShowsTheorem44Gap(t *testing.T) {
	db := schema.MustDatabase(schema.MustScheme("R", "A", "B"))
	s := NewSystem(db)
	if err := s.Add(
		deps.NewFD("R", deps.Attrs("A"), deps.Attrs("B")),
		deps.NewIND("R", deps.Attrs("A"), "R", deps.Attrs("B")),
	); err != nil {
		t.Fatal(err)
	}
	goal := deps.NewIND("R", deps.Attrs("B"), "R", deps.Attrs("A"))
	fin, err := s.ImpliesFinite(goal, Options{})
	if err != nil {
		t.Fatal(err)
	}
	unr, err := s.Implies(goal, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fin.Engine != "unary" || unr.Engine != "unary" {
		t.Errorf("engines = %s, %s", fin.Engine, unr.Engine)
	}
	if fin.Verdict != Yes || unr.Verdict != No {
		t.Errorf("Theorem 4.4 gap not reproduced: finite=%v unrestricted=%v", fin.Verdict, unr.Verdict)
	}
}

func TestChaseDispatch(t *testing.T) {
	// Proposition 4.1 goes through the general chase engine (binary IND).
	db := schema.MustDatabase(
		schema.MustScheme("R", "X", "Y"),
		schema.MustScheme("S", "T", "U"),
	)
	s := NewSystem(db)
	if err := s.Add(
		deps.NewIND("R", deps.Attrs("X", "Y"), "S", deps.Attrs("T", "U")),
		deps.NewFD("S", deps.Attrs("T"), deps.Attrs("U")),
	); err != nil {
		t.Fatal(err)
	}
	a, err := s.Implies(deps.NewFD("R", deps.Attrs("X"), deps.Attrs("Y")), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Verdict != Yes || a.Engine != "chase" {
		t.Errorf("answer = %+v", a)
	}
	// An RD goal also routes to the chase.
	a, err = s.Implies(deps.NewRD("R", deps.Attrs("X"), deps.Attrs("Y")), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Engine != "chase" || a.Verdict != No || a.Counterexample == nil {
		t.Errorf("RD answer = %+v", a)
	}
}

func TestChaseUnknown(t *testing.T) {
	// A binary cyclic IND makes the chase diverge; with no exact engine
	// applicable, the verdict is honestly Unknown.
	db := schema.MustDatabase(schema.MustScheme("R", "A", "B", "C"))
	s := NewSystem(db)
	if err := s.Add(
		deps.NewIND("R", deps.Attrs("A", "B"), "R", deps.Attrs("B", "C")),
		deps.NewFD("R", deps.Attrs("A"), deps.Attrs("B")),
	); err != nil {
		t.Fatal(err)
	}
	a, err := s.Implies(deps.NewIND("R", deps.Attrs("C"), "R", deps.Attrs("A")), Options{ChaseMaxTuples: 64})
	if err != nil {
		t.Fatal(err)
	}
	if a.Engine != "chase" || a.Verdict != Unknown {
		t.Errorf("answer = %+v, want chase/unknown", a)
	}
}

func TestUnaryEngineHandlesGeneralFDs(t *testing.T) {
	// With FDs of any shape and unary INDs, the KCV engine answers
	// exactly — the chase is not needed even when it would diverge.
	db := schema.MustDatabase(schema.MustScheme("R", "A", "B", "C"))
	s := NewSystem(db)
	if err := s.Add(
		deps.NewFD("R", deps.Attrs("A", "C"), deps.Attrs("B")),
		deps.NewIND("R", deps.Attrs("A"), "R", deps.Attrs("B")),
		deps.NewFD("R", deps.Attrs("A"), deps.Attrs("B")),
	); err != nil {
		t.Fatal(err)
	}
	goal := deps.NewIND("R", deps.Attrs("B"), "R", deps.Attrs("A"))
	unr, err := s.Implies(goal, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if unr.Engine != "unary" || unr.Verdict != No {
		t.Errorf("unrestricted answer = %+v, want unary/no", unr)
	}
	fin, err := s.ImpliesFinite(goal, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fin.Verdict != Yes {
		t.Errorf("finite answer = %+v, want yes (Theorem 4.4 cycle)", fin)
	}
}

func TestAddValidation(t *testing.T) {
	s := NewSystem(managerDB())
	if err := s.Add(deps.NewFD("NOPE", deps.Attrs("A"), deps.Attrs("B"))); err == nil {
		t.Errorf("invalid dependency accepted")
	}
	if err := s.Add(deps.NewEMVD("EMP", deps.Attrs("NAME"), deps.Attrs("DEPT"), deps.Attrs("SAL"))); err == nil {
		t.Errorf("EMVD accepted")
	}
	if err := s.Add(deps.NewIND("MGR", deps.Attrs("NAME"), "EMP", deps.Attrs("NAME"))); err != nil {
		t.Errorf("valid dependency rejected: %v", err)
	}
	if len(s.Sigma()) != 1 {
		t.Errorf("sigma = %v", s.Sigma())
	}
	if s.DB() == nil {
		t.Errorf("DB() nil")
	}
	// Invalid goals are rejected too.
	if _, err := s.Implies(deps.NewFD("NOPE", deps.Attrs("A"), deps.Attrs("B")), Options{}); err == nil {
		t.Errorf("invalid goal accepted")
	}
}

func TestSatisfies(t *testing.T) {
	s := NewSystem(managerDB())
	ind := deps.NewIND("MGR", deps.Attrs("NAME"), "EMP", deps.Attrs("NAME"))
	if err := s.Add(ind); err != nil {
		t.Fatal(err)
	}
	db := data.NewDatabase(s.DB())
	db.MustInsert("MGR", data.Tuple{"hilbert", "math"})
	ok, violated, err := s.Satisfies(db)
	if err != nil {
		t.Fatal(err)
	}
	if ok || violated == nil {
		t.Errorf("empty EMP should violate the IND")
	}
	db.MustInsert("EMP", data.Tuple{"hilbert", "math", "1"})
	ok, _, err = s.Satisfies(db)
	if err != nil || !ok {
		t.Errorf("Satisfies = %v, %v", ok, err)
	}
}

func TestVerdictString(t *testing.T) {
	if Yes.String() != "yes" || No.String() != "no" || Unknown.String() != "unknown" {
		t.Errorf("verdict strings wrong")
	}
}

func TestExplain(t *testing.T) {
	// The unary Theorem 4.4 instance explains with a cardinality cycle.
	db := schema.MustDatabase(schema.MustScheme("R", "A", "B"))
	s := NewSystem(db)
	if err := s.Add(
		deps.NewFD("R", deps.Attrs("A"), deps.Attrs("B")),
		deps.NewIND("R", deps.Attrs("A"), "R", deps.Attrs("B")),
	); err != nil {
		t.Fatal(err)
	}
	goal := deps.NewIND("R", deps.Attrs("B"), "R", deps.Attrs("A"))
	a, why, err := s.Explain(goal, Options{}, true)
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if a.Verdict != Yes || !strings.Contains(why, "cardinality cycle") {
		t.Errorf("unary explanation wrong (%v):\n%s", a.Verdict, why)
	}
	// A pure-IND query explains with the formal proof.
	s2 := NewSystem(managerDB())
	if err := s2.Add(deps.NewIND("MGR", deps.Attrs("NAME", "DEPT"), "EMP", deps.Attrs("NAME", "DEPT"))); err != nil {
		t.Fatal(err)
	}
	_, why, err = s2.Explain(deps.NewIND("MGR", deps.Attrs("NAME"), "EMP", deps.Attrs("NAME")), Options{}, false)
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if !strings.Contains(why, "IND2") {
		t.Errorf("IND explanation missing proof:\n%s", why)
	}
	// A negative answer explains with the counterexample.
	_, why, err = s2.Explain(deps.NewIND("EMP", deps.Attrs("NAME"), "MGR", deps.Attrs("NAME")), Options{}, false)
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if !strings.Contains(why, "counterexample") {
		t.Errorf("negative explanation missing counterexample:\n%s", why)
	}
	// Errors propagate.
	if _, _, err := s.Explain(deps.NewFD("NOPE", deps.Attrs("A"), deps.Attrs("B")), Options{}, false); err == nil {
		t.Errorf("invalid goal should error")
	}
}

func TestSearchFallback(t *testing.T) {
	// An instance where the chase diverges (a cyclic binary IND keeps
	// generating fresh nulls) but a small cyclic finite counterexample
	// exists: with the fallback on, the verdict improves from Unknown to
	// No.
	db := schema.MustDatabase(schema.MustScheme("R", "A", "B", "C"))
	s := NewSystem(db)
	if err := s.Add(
		deps.NewIND("R", deps.Attrs("A", "B"), "R", deps.Attrs("B", "C")),
	); err != nil {
		t.Fatal(err)
	}
	goal := deps.NewFD("R", deps.Attrs("A"), deps.Attrs("B"))
	a, err := s.Implies(goal, Options{ChaseMaxTuples: 48})
	if err != nil {
		t.Fatal(err)
	}
	if a.Verdict != Unknown {
		t.Fatalf("without fallback: verdict %v, want unknown", a.Verdict)
	}
	a, err = s.Implies(goal, Options{ChaseMaxTuples: 48, SearchFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Verdict != No || a.Counterexample == nil {
		t.Fatalf("with fallback: verdict %v, want no + counterexample", a.Verdict)
	}
	// The counterexample is genuine.
	ok, bad, err := a.Counterexample.SatisfiesAll(s.Sigma())
	if err != nil || !ok {
		t.Errorf("counterexample violates %v (%v)", bad, err)
	}
	if sat, _ := a.Counterexample.Satisfies(goal); sat {
		t.Errorf("counterexample satisfies the goal")
	}
}

// TestInstrumentedQuery exercises the Options.Obs surface: the registry
// collects the engine's counters, the answer carries a span tree rooted
// at core.query, and the engine cost fields (INDStats / ChaseRounds) the
// facade used to drop.
func TestInstrumentedQuery(t *testing.T) {
	s := NewSystem(managerDB())
	if err := s.Add(deps.NewIND("MGR", deps.Attrs("NAME", "DEPT"), "EMP", deps.Attrs("NAME", "DEPT"))); err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	a, err := s.Implies(deps.NewIND("MGR", deps.Attrs("NAME"), "EMP", deps.Attrs("NAME")), Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if a.INDStats == nil || a.INDStats.Visited < 2 || a.INDStats.FrontierPeak < 1 {
		t.Errorf("INDStats not surfaced: %+v", a.INDStats)
	}
	if snap := reg.Snapshot(); snap.Counters["ind.visited"] == 0 {
		t.Errorf("registry missing ind counters: %+v", snap)
	}
	if a.Trace == nil || a.Trace.Name != "core.query" || len(a.Trace.Children) == 0 {
		t.Errorf("span tree missing: %+v", a.Trace)
	}
	if a.Trace.Children[0].Name != "ind.decide" {
		t.Errorf("child span = %q, want ind.decide", a.Trace.Children[0].Name)
	}
	if a.Trace.Running {
		t.Errorf("exported query span should be ended")
	}
}

// TestInstrumentedChaseQuery checks the chase engine's cost surfaces both
// in the answer fields and in the chase.* counters, with per-round child
// spans under the chase span.
func TestInstrumentedChaseQuery(t *testing.T) {
	db := schema.MustDatabase(
		schema.MustScheme("R", "X", "Y"),
		schema.MustScheme("S", "T", "U"),
	)
	s := NewSystem(db)
	if err := s.Add(
		deps.NewIND("R", deps.Attrs("X", "Y"), "S", deps.Attrs("T", "U")),
		deps.NewFD("S", deps.Attrs("T"), deps.Attrs("U")),
	); err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	a, err := s.Implies(deps.NewFD("R", deps.Attrs("X"), deps.Attrs("Y")), Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if a.Engine != "chase" || a.ChaseRounds == 0 || a.ChaseTuples == 0 {
		t.Errorf("chase cost not surfaced: %+v", a)
	}
	snap := reg.Snapshot()
	if snap.Counters["chase.rounds"] != int64(a.ChaseRounds) {
		t.Errorf("chase.rounds counter = %d, answer rounds = %d",
			snap.Counters["chase.rounds"], a.ChaseRounds)
	}
	if snap.Counters["chase.tuples_created"] == 0 || snap.Gauges["chase.tuples_peak"] == 0 {
		t.Errorf("chase tuple instruments missing: %+v", snap)
	}
	var chaseSpan *obs.Span
	for _, c := range a.Trace.Children {
		if c.Name == "chase.fd" {
			chaseSpan = c
		}
	}
	if chaseSpan == nil || len(chaseSpan.Children) == 0 || chaseSpan.Children[0].Name != "round" {
		t.Errorf("chase span tree wrong: %+v", a.Trace)
	}
}

// TestUninstrumentedAnswerHasNoSnapshot pins the zero-cost default.
func TestUninstrumentedAnswerHasNoSnapshot(t *testing.T) {
	s := NewSystem(managerDB())
	if err := s.Add(deps.NewIND("MGR", deps.Attrs("NAME", "DEPT"), "EMP", deps.Attrs("NAME", "DEPT"))); err != nil {
		t.Fatal(err)
	}
	a, err := s.Implies(deps.NewIND("MGR", deps.Attrs("NAME"), "EMP", deps.Attrs("NAME")), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Trace != nil {
		t.Errorf("uninstrumented answer should carry no snapshot: %+v", a)
	}
	if a.INDStats == nil {
		t.Errorf("INDStats should be surfaced even without a registry")
	}
}

// TestNoTraceKeepsCounters: Options.NoTrace builds no span tree, and
// changes nothing else — the same verdict, proof and engine, and the
// same fd.*, ind.* and chase.* counters in the registry as a traced
// query of the same goal, on each of the three engines.
func TestNoTraceKeepsCounters(t *testing.T) {
	for _, inst := range keyInstances()[:3] { // the fd chain, the IND chain, Prop 4.1
		s := NewSystem(inst.db)
		if err := s.Add(inst.sigma...); err != nil {
			t.Fatal(err)
		}
		for _, g := range inst.goals {
			traced, untraced := obs.New(), obs.New()
			want, err := s.Implies(g, Options{Obs: traced})
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.ImpliesGoal(Goal{Dep: g, Text: g.String()}, Options{Obs: untraced, NoTrace: true}, false)
			if err != nil {
				t.Fatal(err)
			}
			if want.Trace == nil || got.Trace != nil {
				t.Errorf("%s %v: traced tree %v, untraced tree %v; want one and none", inst.name, g, want.Trace != nil, got.Trace != nil)
			}
			if got.Verdict != want.Verdict || got.Engine != want.Engine || got.Proof != want.Proof {
				t.Errorf("%s %v: untraced %v/%s, traced %v/%s", inst.name, g, got.Verdict, got.Engine, want.Verdict, want.Engine)
			}
			w, u := traced.Snapshot(), untraced.Snapshot()
			if len(w.Counters) == 0 || !maps.Equal(w.Counters, u.Counters) {
				t.Errorf("%s %v: counters differ\ntraced:   %v\nuntraced: %v", inst.name, g, w.Counters, u.Counters)
			}
		}
	}
}
