package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"indfd/internal/deps"
	"indfd/internal/obs"
	"indfd/internal/schema"
)

// divergentSystem is a System whose only applicable engine is the chase
// and whose chase diverges: the binary IND keeps demanding fresh
// witnesses and the FD never closes the loop.
func divergentSystem(t *testing.T) (*System, deps.FD) {
	t.Helper()
	db := schema.MustDatabase(schema.MustScheme("R", "A", "B", "C"))
	sys := NewSystem(db)
	if err := sys.Add(
		deps.NewIND("R", deps.Attrs("A", "B"), "R", deps.Attrs("B", "C")),
		deps.NewFD("R", deps.Attrs("A", "B"), deps.Attrs("C")),
	); err != nil {
		t.Fatal(err)
	}
	return sys, deps.NewFD("R", deps.Attrs("A"), deps.Attrs("C"))
}

// A deadline on a divergent chase query surfaces as the context error
// with the partial chase work preserved on the Answer — what depserve
// turns into a 503 with stats.
func TestImpliesDeadlinePartialStats(t *testing.T) {
	sys, goal := divergentSystem(t)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	a, err := sys.Implies(goal, Options{Ctx: ctx, ChaseMaxTuples: 1 << 30})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if a.Verdict != Unknown || a.Engine != "chase" {
		t.Errorf("partial answer = verdict %v engine %q, want unknown/chase", a.Verdict, a.Engine)
	}
	if a.ChaseRounds == 0 || a.ChaseTuples == 0 {
		t.Errorf("partial stats missing: rounds=%d tuples=%d", a.ChaseRounds, a.ChaseTuples)
	}
}

// The metrics snapshot and span tree still come back on the error path
// when a registry was supplied.
func TestImpliesDeadlineMetricsAttached(t *testing.T) {
	sys, goal := divergentSystem(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	reg := obs.New()
	a, err := sys.Implies(goal, Options{Ctx: ctx, ChaseMaxTuples: 1 << 30, Obs: reg})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	snap := reg.Snapshot()
	if snap.Counters["chase.rounds"] == 0 {
		t.Errorf("registry missing chase.rounds after cancelled query: %v", snap.Counters)
	}
	if a.Trace == nil || a.Trace.Name != "core.query" || a.Trace.Running {
		t.Fatalf("answer missing the ended core.query span: %+v", a.Trace)
	}
	if a.Trace.Attrs[len(a.Trace.Attrs)-1].Key != "error" {
		t.Errorf("core.query span does not record the deadline: %+v", a.Trace.Attrs)
	}
}

// A pre-cancelled context stops an IND-engine query too, with the
// partial search stats attached.
func TestImpliesINDCancelled(t *testing.T) {
	db := schema.MustDatabase(
		schema.MustScheme("R", "A"),
		schema.MustScheme("S", "A"),
	)
	sys := NewSystem(db)
	if err := sys.Add(deps.NewIND("R", deps.Attrs("A"), "S", deps.Attrs("A"))); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a, err := sys.Implies(deps.NewIND("R", deps.Attrs("A"), "S", deps.Attrs("A")), Options{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if a.Engine != "ind" || a.INDStats == nil {
		t.Errorf("partial answer = %+v, want ind engine with stats", a)
	}
}

// Queries with a live context behave exactly as without one.
func TestImpliesLiveContextUnchanged(t *testing.T) {
	db := schema.MustDatabase(
		schema.MustScheme("MGR", "NAME", "DEPT"),
		schema.MustScheme("EMP", "NAME", "DEPT", "SAL"),
	)
	sys := NewSystem(db)
	if err := sys.Add(deps.NewIND("MGR", deps.Attrs("NAME", "DEPT"), "EMP", deps.Attrs("NAME", "DEPT"))); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	a, err := sys.Implies(deps.NewIND("MGR", deps.Attrs("NAME"), "EMP", deps.Attrs("NAME")), Options{Ctx: ctx})
	if err != nil || a.Verdict != Yes || a.Engine != "ind" {
		t.Fatalf("live-ctx query broken: %+v %v", a, err)
	}
}
