package chase

import (
	"context"
	"errors"
	"testing"
	"time"

	"indfd/internal/data"
	"indfd/internal/deps"
	"indfd/internal/obs"
	"indfd/internal/schema"
)

// divergentInstance is a Lemma 7.2-style FD+IND set whose chase never
// terminates: every tuple's (A,B) projection must reappear as a (B,C)
// projection, and each freshly created witness has a fresh null in A,
// so it needs a witness of its own, forever. The FD never fires (no two
// tuples ever agree on A,B), so no fixpoint is reached either.
func divergentInstance() (*schema.Database, []deps.Dependency, deps.FD) {
	db := schema.MustDatabase(schema.MustScheme("R", "A", "B", "C"))
	sigma := []deps.Dependency{
		deps.NewIND("R", deps.Attrs("A", "B"), "R", deps.Attrs("B", "C")),
		deps.NewFD("R", deps.Attrs("A", "B"), deps.Attrs("C")),
	}
	return db, sigma, deps.NewFD("R", deps.Attrs("A"), deps.Attrs("C"))
}

// The instance really diverges: with only the tuple budget to stop it,
// the chase exhausts the budget and answers Unknown.
func TestDivergentInstanceExhaustsBudget(t *testing.T) {
	db, sigma, goal := divergentInstance()
	res, err := ImpliesFD(db, sigma, goal, Options{MaxTuples: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Unknown {
		t.Fatalf("verdict = %v, want unknown (budget exhaustion)", res.Verdict)
	}
	if res.Rounds < 10 {
		t.Errorf("only %d rounds before a 64-tuple budget ran out; instance not divergent?", res.Rounds)
	}
}

// A context cancelled before the chase starts stops a divergent run
// within one round (the probe fires at the top of every round).
func TestImpliesFDCancelledContext(t *testing.T) {
	db, sigma, goal := divergentInstance()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ImpliesFD(db, sigma, goal, Options{Ctx: ctx, MaxTuples: 1 << 30})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Rounds > 1 {
		t.Errorf("cancelled chase ran %d rounds, want at most one", res.Rounds)
	}
	if res.Verdict != Unknown {
		t.Errorf("verdict = %v, want unknown", res.Verdict)
	}
}

// A deadline stops the divergent chase mid-flight with partial
// rounds/tuples counts — the server's 503-with-stats path.
func TestImpliesFDDeadline(t *testing.T) {
	db, sigma, goal := divergentInstance()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := ImpliesFD(db, sigma, goal, Options{Ctx: ctx, MaxTuples: 1 << 30})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("deadline ignored: chase ran %v", elapsed)
	}
	if res.Rounds == 0 || res.Tuples == 0 {
		t.Errorf("partial stats missing: rounds=%d tuples=%d", res.Rounds, res.Tuples)
	}
}

// A deadline-killed run adds its partial counts to the registry when it
// is killed: the registry's rounds are the Result's.
func TestDeadlineKillFlushesCounts(t *testing.T) {
	db, sigma, goal := divergentInstance()
	reg := obs.New()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	res, err := ImpliesFD(db, sigma, goal, Options{Ctx: ctx, MaxTuples: 1 << 30, Obs: reg, Pool: NewEnginePool(nil)})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if res.Rounds == 0 {
		t.Fatal("the killed run reports no rounds")
	}
	if got := reg.Counter("chase.rounds").Value(); got != int64(res.Rounds) {
		t.Errorf("chase.rounds = %d, Result.Rounds = %d", got, res.Rounds)
	}
	if got := reg.Counter("chase.tuples_created").Value(); got < int64(res.Tuples) {
		t.Errorf("chase.tuples_created = %d, fewer than the %d live tuples", got, res.Tuples)
	}
}

// Complete honours cancellation through the same per-round probe.
func TestCompleteCancelledContext(t *testing.T) {
	db, sigma, _ := divergentInstance()
	seed := data.NewDatabase(db)
	seed.MustInsert("R", data.Tuple{"a", "b", "c"})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Complete(seed, sigma, Options{Ctx: ctx, MaxTuples: 1 << 30}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// A nil Ctx (every pre-existing caller) still chases normally.
func TestNilContextUnchanged(t *testing.T) {
	db := schema.MustDatabase(
		schema.MustScheme("R", "X", "Y"),
		schema.MustScheme("S", "T", "U"),
	)
	sigma := []deps.Dependency{
		deps.NewIND("R", deps.Attrs("X", "Y"), "S", deps.Attrs("T", "U")),
		deps.NewFD("S", deps.Attrs("T"), deps.Attrs("U")),
	}
	res, err := ImpliesFD(db, sigma, deps.NewFD("R", deps.Attrs("X"), deps.Attrs("Y")), Options{})
	if err != nil || res.Verdict != Implied {
		t.Fatalf("nil-ctx chase broken: %v %v", res.Verdict, err)
	}
}
