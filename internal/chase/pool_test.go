package chase

// Pinning of the cross-request engine pool: recycled engines must be
// observably indistinguishable from freshly compiled ones, warm reuse
// must be allocation-free, engines killed mid-run must be poisoned
// (never re-pooled), and the fingerprint must never hand out an engine
// compiled for a different schema or sigma.

import (
	"context"
	"fmt"
	"testing"

	"indfd/internal/deps"
	"indfd/internal/obs"
	"indfd/internal/schema"
)

func prop41Fixture() (*schema.Database, []deps.Dependency) {
	db := schema.MustDatabase(
		schema.MustScheme("R", "X", "Y"),
		schema.MustScheme("S", "T", "U"),
	)
	sigma := []deps.Dependency{
		deps.NewIND("R", deps.Attrs("X", "Y"), "S", deps.Attrs("T", "U")),
		deps.NewFD("S", deps.Attrs("T"), deps.Attrs("U")),
	}
	return db, sigma
}

// TestPoolReuseDifferential runs a mixed goal workload repeatedly
// through one pool and requires every pooled run to be byte-identical
// to an unpooled run of the same instance — verdicts, traces,
// counterexamples, rounds, tuples.
func TestPoolReuseDifferential(t *testing.T) {
	db, sigma := prop41Fixture()
	goals := []deps.Dependency{
		deps.NewFD("R", deps.Attrs("X"), deps.Attrs("Y")),
		deps.NewRD("R", deps.Attrs("X"), deps.Attrs("Y")),
		deps.NewFD("S", deps.Attrs("U"), deps.Attrs("T")),
		deps.NewIND("R", deps.Attrs("X"), "S", deps.Attrs("T")),
	}
	reg := obs.New()
	pool := NewEnginePool(reg)
	runs := 0
	for rep := 0; rep < 5; rep++ {
		for gi, goal := range goals {
			label := fmt.Sprintf("rep %d goal %d", rep, gi)
			got, gotErr := Implies(db, sigma, goal, Options{Pool: pool, Trace: true})
			want, wantErr := Implies(db, sigma, goal, Options{Trace: true})
			compareResults(t, label, got, gotErr, want, wantErr)
			runs++
		}
	}
	if raceDetectorEnabled {
		return // sync.Pool drops Puts at random under -race; exact counts don't hold
	}
	hits := reg.Counter("pool.hits").Value()
	misses := reg.Counter("pool.misses").Value()
	if misses != 1 {
		t.Errorf("pool.misses = %d, want 1 (one compile for the shared (schema, sigma) shape)", misses)
	}
	if hits != int64(runs-1) {
		t.Errorf("pool.hits = %d, want %d", hits, runs-1)
	}
	if d := reg.Counter("pool.discards").Value(); d != 0 {
		t.Errorf("pool.discards = %d on an error-free workload", d)
	}
}

// TestPoolDiscardsCancelledEngines is the poisoning regression test: a
// chase killed mid-round by its context must never be re-pooled, and
// requests after the kill must still be answered correctly. It hammers
// the pool with alternating doomed and healthy runs.
func TestPoolDiscardsCancelledEngines(t *testing.T) {
	dbDiv, sigmaDiv, goalDiv := divergentInstance()
	db, sigma := prop41Fixture()
	goal := deps.NewFD("R", deps.Attrs("X"), deps.Attrs("Y"))

	reg := obs.New()
	pool := NewEnginePool(reg)
	dead, cancel := context.WithCancel(context.Background())
	cancel()

	kills := 0
	for i := 0; i < 50; i++ {
		// A divergent chase under an already-cancelled context: killed in
		// its first round, engine poisoned.
		_, err := Implies(dbDiv, sigmaDiv, goalDiv, Options{Pool: pool, Ctx: dead})
		if err == nil {
			t.Fatal("cancelled divergent chase returned no error")
		}
		kills++
		// A healthy request right after must be unaffected.
		got, gotErr := Implies(db, sigma, goal, Options{Pool: pool, Trace: true})
		want, wantErr := Implies(db, sigma, goal, Options{Trace: true})
		compareResults(t, fmt.Sprintf("after kill %d", i), got, gotErr, want, wantErr)
		// And a healthy run of the divergent shape itself (fresh compile
		// each time: its predecessor was discarded, never re-pooled).
		gotD, gotDErr := Implies(dbDiv, sigmaDiv, goalDiv, Options{Pool: pool, MaxTuples: 64, Trace: true})
		wantD, wantDErr := Implies(dbDiv, sigmaDiv, goalDiv, Options{MaxTuples: 64, Trace: true})
		compareResults(t, fmt.Sprintf("divergent after kill %d", i), gotD, gotDErr, wantD, wantDErr)
	}
	if d := reg.Counter("pool.discards").Value(); d != int64(kills) {
		t.Errorf("pool.discards = %d, want %d (one per kill)", d, kills)
	}
}

// TestPoolBudgetExhaustionReusable pins the other half of the poisoning
// rule: budget exhaustion is a verdict, not an error, so the engine is
// reset and re-pooled — and the recycled engine answers the next
// request byte-identically.
func TestPoolBudgetExhaustionReusable(t *testing.T) {
	dbDiv, sigmaDiv, goalDiv := divergentInstance()
	reg := obs.New()
	pool := NewEnginePool(reg)
	for i := 0; i < 3; i++ {
		got, gotErr := Implies(dbDiv, sigmaDiv, goalDiv, Options{Pool: pool, MaxTuples: 64, Trace: true})
		want, wantErr := Implies(dbDiv, sigmaDiv, goalDiv, Options{MaxTuples: 64, Trace: true})
		compareResults(t, fmt.Sprintf("run %d", i), got, gotErr, want, wantErr)
	}
	if d := reg.Counter("pool.discards").Value(); d != 0 {
		t.Errorf("pool.discards = %d; budget exhaustion must re-pool, not poison", d)
	}
	if h := reg.Counter("pool.hits").Value(); !raceDetectorEnabled && h != 2 {
		t.Errorf("pool.hits = %d, want 2", h)
	}
}

// TestPoolMatchesRejectsOtherShapes unit-tests the collision guard: an
// engine must only match the exact schema and sigma it was compiled
// from, field by field.
func TestPoolMatchesRejectsOtherShapes(t *testing.T) {
	db, sigma := prop41Fixture()
	e, err := newEngine(db, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if !e.matches(db, sigma) {
		t.Fatal("engine does not match its own compilation inputs")
	}
	otherRel := schema.MustDatabase(
		schema.MustScheme("R2", "X", "Y"),
		schema.MustScheme("S", "T", "U"),
	)
	otherAttrs := schema.MustDatabase(
		schema.MustScheme("R", "X", "Z"),
		schema.MustScheme("S", "T", "U"),
	)
	if e.matches(otherRel, sigma) {
		t.Error("matched a database with a different relation name")
	}
	if e.matches(otherAttrs, sigma) {
		t.Error("matched a database with different attributes")
	}
	if e.matches(db, sigma[:1]) {
		t.Error("matched a shorter sigma")
	}
	if e.matches(db, []deps.Dependency{sigma[1], sigma[0]}) {
		t.Error("matched a reordered sigma (compile order differs)")
	}
	swapped := []deps.Dependency{
		sigma[0],
		deps.NewFD("S", deps.Attrs("U"), deps.Attrs("T")),
	}
	if e.matches(db, swapped) {
		t.Error("matched a sigma with different FD columns")
	}
}

// TestPoolWarmRunAllocFree pins the pooled steady state at the chase
// layer: with instrumentation off, a warm implication request on a
// cached (schema, sigma) shape performs zero allocations.
func TestPoolWarmRunAllocFree(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	db, sigma := prop41Fixture()
	goal := deps.NewFD("R", deps.Attrs("X"), deps.Attrs("Y"))
	pool := NewEnginePool(nil)
	opt := Options{Pool: pool}
	// Prime: first run compiles and grows every arena to its high-water
	// mark; subsequent runs reuse all of it.
	if _, err := ImpliesFD(db, sigma, goal, opt); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		if _, err := ImpliesFD(db, sigma, goal, opt); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("warm pooled implication allocates %.1f/run, want 0", got)
	}
}
