package chase

// Differential pinning of the semi-naive engine against the naive
// reference engine: same verdicts, same rounds/tuples, byte-identical
// traces, identical counterexample databases, and identical chase.*
// counters — on the fixed fixtures the package's other tests use and on
// randomized schemas.

import (
	"context"
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"indfd/internal/data"
	"indfd/internal/deps"
	"indfd/internal/obs"
	"indfd/internal/schema"
)

// dataSeed builds a concrete database from string rows.
func dataSeed(db *schema.Database, rows map[string][][]string) *data.Database {
	out := data.NewDatabase(db)
	for rel, rs := range rows {
		for _, row := range rs {
			tup := make(data.Tuple, len(row))
			for i, v := range row {
				tup[i] = data.Value(v)
			}
			out.MustRelation(rel).MustInsert(tup)
		}
	}
	return out
}

// refCounters is the instrument set shared by both engines; the
// semi-naive engine's extra counters (delta_tuples, rekeyed_tuples,
// scans_skipped) are deliberately excluded.
var refCounters = []string{
	"chase.rounds",
	"chase.tuples_created",
	"chase.unions",
	"chase.fd_applications",
	"chase.rd_applications",
	"chase.ind_applications",
	"chase.fixpoint_passes",
}

// diffImplies runs both engines on the same implication instance and
// fails on any observable divergence.
func diffImplies(t *testing.T, label string, db *schema.Database, sigma []deps.Dependency, goal deps.Dependency, opt Options) {
	t.Helper()
	regNew, regRef := obs.New(), obs.New()
	optNew, optRef := opt, opt
	optNew.Obs, optNew.Trace = regNew, true
	optRef.Obs, optRef.Trace = regRef, true
	got, gotErr := Implies(db, sigma, goal, optNew)
	want, wantErr := ReferenceImplies(db, sigma, goal, optRef)
	compareResults(t, label, got, gotErr, want, wantErr)
	compareCounters(t, label, regNew, regRef)
}

func compareResults(t *testing.T, label string, got Result, gotErr error, want Result, wantErr error) {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, reference %v", label, gotErr, wantErr)
	}
	if got.Verdict != want.Verdict {
		t.Fatalf("%s: verdict %v, reference %v", label, got.Verdict, want.Verdict)
	}
	if got.Rounds != want.Rounds || got.Tuples != want.Tuples {
		t.Errorf("%s: rounds/tuples %d/%d, reference %d/%d", label, got.Rounds, got.Tuples, want.Rounds, want.Tuples)
	}
	if len(got.Trace) != len(want.Trace) {
		t.Fatalf("%s: trace has %d lines, reference %d\nnew: %q\nref: %q",
			label, len(got.Trace), len(want.Trace), got.Trace, want.Trace)
	}
	for i := range got.Trace {
		if got.Trace[i] != want.Trace[i] {
			t.Fatalf("%s: trace line %d:\nnew: %s\nref: %s", label, i, got.Trace[i], want.Trace[i])
		}
	}
	switch {
	case (got.Counterexample == nil) != (want.Counterexample == nil):
		t.Errorf("%s: counterexample presence %v, reference %v",
			label, got.Counterexample != nil, want.Counterexample != nil)
	case got.Counterexample != nil:
		if g, w := got.Counterexample.String(), want.Counterexample.String(); g != w {
			t.Errorf("%s: counterexample differs:\nnew:\n%s\nref:\n%s", label, g, w)
		}
	}
}

func compareCounters(t *testing.T, label string, regNew, regRef *obs.Registry) {
	t.Helper()
	for _, name := range refCounters {
		if g, w := regNew.Counter(name).Value(), regRef.Counter(name).Value(); g != w {
			t.Errorf("%s: counter %s = %d, reference %d", label, name, g, w)
		}
	}
	if g, w := regNew.Gauge("chase.tuples_peak").Value(), regRef.Gauge("chase.tuples_peak").Value(); g != w {
		t.Errorf("%s: gauge chase.tuples_peak = %d, reference %d", label, g, w)
	}
}

func TestDifferentialFixtures(t *testing.T) {
	// Proposition 4.1: the IND pulls R into S where the FD fires back.
	db41 := schema.MustDatabase(
		schema.MustScheme("R", "X", "Y"),
		schema.MustScheme("S", "T", "U"),
	)
	sigma41 := []deps.Dependency{
		deps.NewIND("R", deps.Attrs("X", "Y"), "S", deps.Attrs("T", "U")),
		deps.NewFD("S", deps.Attrs("T"), deps.Attrs("U")),
	}
	diffImplies(t, "prop4.1 fd", db41, sigma41,
		deps.NewFD("R", deps.Attrs("X"), deps.Attrs("Y")), Options{})
	diffImplies(t, "prop4.1 rd", db41, sigma41,
		deps.NewRD("R", deps.Attrs("X"), deps.Attrs("Y")), Options{})
	diffImplies(t, "prop4.1 not-implied", db41, sigma41,
		deps.NewFD("S", deps.Attrs("U"), deps.Attrs("T")), Options{})

	// IND transitivity: the chase derives R[A] ⊆ T[E] through S.
	dbChain := schema.MustDatabase(
		schema.MustScheme("R", "A", "B"),
		schema.MustScheme("S", "C", "D"),
		schema.MustScheme("T", "E", "F"),
	)
	sigmaChain := []deps.Dependency{
		deps.NewIND("R", deps.Attrs("A"), "S", deps.Attrs("C")),
		deps.NewIND("S", deps.Attrs("C"), "T", deps.Attrs("E")),
	}
	diffImplies(t, "ind chain", dbChain, sigmaChain,
		deps.NewIND("R", deps.Attrs("A"), "T", deps.Attrs("E")), Options{})
	diffImplies(t, "ind chain not-implied", dbChain, sigmaChain,
		deps.NewIND("T", deps.Attrs("E"), "R", deps.Attrs("A")), Options{})

	// The divergent Lemma 7.2-style instance: budget exhaustion.
	dbDiv, sigmaDiv, goalDiv := divergentInstance()
	diffImplies(t, "divergent", dbDiv, sigmaDiv, goalDiv, Options{MaxTuples: 64})
	diffImplies(t, "divergent tiny", dbDiv, sigmaDiv, goalDiv, Options{MaxTuples: 3})

	// Many-tuple X-groups: the FD pass pairs each member with the
	// group's first tuple, where the reference pairs it with every
	// earlier member.
	for _, m := range wideFDWidths {
		db, sigma, goal := wideFDFixture(m)
		diffImplies(t, fmt.Sprintf("wide fd m=%d", m), db, sigma, goal, Options{})
	}
	dbYZ, sigmaYZ, goalYZ, notYZ := wideYZFixture(wideYZWidth)
	diffImplies(t, "wide fd X -> Y, Z", dbYZ, sigmaYZ, goalYZ, Options{})
	diffImplies(t, "wide fd X -> Y, Z not-implied", dbYZ, sigmaYZ, notYZ, Options{})
}

// wideFDWidths are the widths at which the fixtures check the wide-FD
// tableau: the smallest group and the ends of depbench's chase_distinct
// range.
var wideFDWidths = []int{2, 20, 120}

// wideFDFixture is the wide-FD tableau of internal/benchws (which
// imports this package, so WideFDInstance cannot be called here):
// P[A,B1..Bm], Q[X,Y], one IND P[A,Bi] ⊆ Q[X,Y] per i and the FD
// Q: X -> Y. The RD goal P[B1 = Bm] pours m tuples into one X-group of
// Q, and the FD collapses them.
func wideFDFixture(m int) (*schema.Database, []deps.Dependency, deps.Dependency) {
	attrs := wideAttrs(m)
	db := schema.MustDatabase(schema.MustScheme("P", attrs...), schema.MustScheme("Q", "X", "Y"))
	var sigma []deps.Dependency
	for _, b := range attrs[1:] {
		sigma = append(sigma, deps.NewIND("P", []schema.Attribute{"A", b}, "Q", deps.Attrs("X", "Y")))
	}
	sigma = append(sigma, deps.NewFD("Q", deps.Attrs("X"), deps.Attrs("Y")))
	return db, sigma, deps.NewRD("P", attrs[1:2], attrs[m:])
}

// wideAttrs is the wide fixtures' P scheme: A, B1, ..., Bm.
func wideAttrs(m int) []schema.Attribute {
	attrs := []schema.Attribute{"A"}
	for i := 1; i <= m; i++ {
		attrs = append(attrs, schema.Attribute(fmt.Sprintf("B%d", i)))
	}
	return attrs
}

// wideYZWidth makes wideYZFixture's X-group 31 tuples wide.
const wideYZWidth = 32

// wideYZFixture is a wide X-group under an FD with two right-hand
// columns: P[A,B1..Bm], Q[X,Y,Z], one IND P[A,Bi,Bi+1] ⊆ Q[X,Y,Z] per
// i < m and the FD Q: X -> Y, Z. The m-1 tuples the INDs pour into Q
// share X, so the FD equates B1..Bm-1 through Y and B2..Bm through Z,
// and the RD goal P[B1 = Bm] is implied; P[A = B1] is not.
func wideYZFixture(m int) (db *schema.Database, sigma []deps.Dependency, goal, notImplied deps.Dependency) {
	attrs := wideAttrs(m)
	db = schema.MustDatabase(schema.MustScheme("P", attrs...), schema.MustScheme("Q", "X", "Y", "Z"))
	for i := 1; i < m; i++ {
		sigma = append(sigma, deps.NewIND("P", []schema.Attribute{"A", attrs[i], attrs[i+1]}, "Q", deps.Attrs("X", "Y", "Z")))
	}
	sigma = append(sigma, deps.NewFD("Q", deps.Attrs("X"), deps.Attrs("Y", "Z")))
	return db, sigma, deps.NewRD("P", attrs[1:2], attrs[m:]), deps.NewRD("P", attrs[:1], attrs[1:2])
}

// randomImpliesInstance draws one random implication instance — schema,
// dependency set, goal, and tuple budget — from r. Shared by the
// engine-vs-reference differential test and the capture matrix so both
// sweep the same instance distribution.
func randomImpliesInstance(r *rand.Rand) (*schema.Database, []deps.Dependency, deps.Dependency, Options) {
	attrPool := []string{"A", "B", "C", "D"}
	nRels := 2 + r.IntN(3)
	schemes := make([]*schema.Scheme, nRels)
	names := make([]string, nRels)
	widths := make([]int, nRels)
	for i := range schemes {
		names[i] = fmt.Sprintf("R%d", i)
		w := 2 + r.IntN(3)
		widths[i] = w
		attrs := make([]schema.Attribute, w)
		for j := 0; j < w; j++ {
			attrs[j] = schema.Attribute(attrPool[j])
		}
		schemes[i] = schema.MustScheme(names[i], attrs...)
	}
	db := schema.MustDatabase(schemes...)

	pick := func(i, n int) []schema.Attribute {
		perm := r.Perm(widths[i])[:n]
		out := make([]schema.Attribute, n)
		for k, p := range perm {
			out[k] = schema.Attribute(attrPool[p])
		}
		return out
	}
	randFD := func() deps.Dependency {
		i := r.IntN(nRels)
		return deps.NewFD(names[i], pick(i, 1+r.IntN(widths[i]-1)), pick(i, 1))
	}
	randRD := func() deps.Dependency {
		i := r.IntN(nRels)
		return deps.NewRD(names[i], pick(i, 1), pick(i, 1))
	}
	randIND := func() deps.Dependency {
		i, j := r.IntN(nRels), r.IntN(nRels)
		w := 1 + r.IntN(min(widths[i], widths[j]))
		return deps.NewIND(names[i], pick(i, w), names[j], pick(j, w))
	}
	var sigma []deps.Dependency
	for k := 2 + r.IntN(4); k > 0; k-- {
		switch r.IntN(4) {
		case 0:
			sigma = append(sigma, randFD())
		case 1:
			sigma = append(sigma, randRD())
		default:
			sigma = append(sigma, randIND())
		}
	}
	var goal deps.Dependency
	switch r.IntN(3) {
	case 0:
		goal = randFD()
	case 1:
		goal = randRD()
	default:
		goal = randIND()
	}
	return db, sigma, goal, Options{MaxTuples: 40 + r.IntN(160)}
}

// TestDifferentialRandom compares the engines on seeded random schemas,
// dependency sets, and goals — a mix of all three verdicts and of
// contradiction errors under Complete-style constant seeding is expected
// and checked line-for-line.
func TestDifferentialRandom(t *testing.T) {
	r := rand.New(rand.NewPCG(42, 7))
	compared, skipped := 0, 0
	for trial := 0; trial < 400; trial++ {
		db, sigma, goal, opt := randomImpliesInstance(r)
		// A chase can diverge without exhausting the live-tuple budget
		// (dedup keeps freeing it while unions fire forever) — in both
		// engines alike. Probe the instance on the reference engine under
		// a deadline; when it doesn't terminate on its own, skip the trial
		// (the engines can only be compared deterministically, and a
		// wall-clock cancellation is not deterministic). Terminating
		// instances are then re-run deadline-free on both engines.
		probeCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		probeOpt := opt
		probeOpt.Ctx = probeCtx
		_, probeErr := ReferenceImplies(db, sigma, goal, probeOpt)
		cancel()
		if probeErr != nil {
			skipped++
			continue
		}
		label := fmt.Sprintf("trial %d: %v |= %v", trial, sigma, goal)
		diffImplies(t, label, db, sigma, goal, opt)
		compared++
	}
	t.Logf("compared %d random instances (%d diverging instances skipped)", compared, skipped)
	if compared < 100 {
		t.Errorf("only %d random instances compared; generator or probe broken", compared)
	}
}

// TestDisabledObsAllocsPinned keeps the uninstrumented chase path
// (BenchmarkChaseObs/disabled) allocation-pinned: the semi-naive engine
// must not allocate more than the naive reference on the Proposition 4.1
// fixture, nor exceed a fixed ceiling (measured 85 allocs/run; the
// ceiling leaves slack for toolchain drift, not for regressions).
func TestDisabledObsAllocsPinned(t *testing.T) {
	db := schema.MustDatabase(
		schema.MustScheme("R", "X", "Y"),
		schema.MustScheme("S", "T", "U"),
	)
	sigma := []deps.Dependency{
		deps.NewIND("R", deps.Attrs("X", "Y"), "S", deps.Attrs("T", "U")),
		deps.NewFD("S", deps.Attrs("T"), deps.Attrs("U")),
	}
	goal := deps.NewFD("R", deps.Attrs("X"), deps.Attrs("Y"))
	got := testing.AllocsPerRun(200, func() {
		if _, err := ImpliesFD(db, sigma, goal, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	ref := testing.AllocsPerRun(200, func() {
		if _, err := ReferenceImpliesFD(db, sigma, goal, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if got > ref {
		t.Errorf("semi-naive disabled path allocates %.1f/run, more than the naive reference's %.1f", got, ref)
	}
	if got > 100 {
		t.Errorf("semi-naive disabled path allocates %.1f/run, ceiling 100", got)
	}
}

// TestDifferentialComplete pins Complete: same completed database (or the
// same error) and same counters on seeded random instances.
func TestDifferentialComplete(t *testing.T) {
	db := schema.MustDatabase(
		schema.MustScheme("F", "A", "B", "C"),
		schema.MustScheme("G", "A", "B"),
	)
	sigma := []deps.Dependency{
		deps.NewIND("F", deps.Attrs("A", "B"), "G", deps.Attrs("A", "B")),
		deps.NewIND("G", deps.Attrs("B"), "F", deps.Attrs("A")),
		deps.NewFD("F", deps.Attrs("A"), deps.Attrs("B")),
	}
	seed := dataSeed(db, map[string][][]string{
		"F": {{"a", "b", "c"}, {"a", "e", "f"}, {"g", "b", "c"}},
	})
	regNew, regRef := obs.New(), obs.New()
	got, gotErr := Complete(seed, sigma, Options{Obs: regNew, MaxTuples: 64})
	want, wantErr := ReferenceComplete(seed, sigma, Options{Obs: regRef, MaxTuples: 64})
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("Complete error %v, reference %v", gotErr, wantErr)
	}
	if (got == nil) != (want == nil) {
		t.Fatalf("Complete database presence %v, reference %v", got != nil, want != nil)
	}
	if got != nil && got.String() != want.String() {
		t.Errorf("Complete differs:\nnew:\n%s\nref:\n%s", got.String(), want.String())
	}
	compareCounters(t, "complete", regNew, regRef)

	// A seed whose FD equates the distinct constants b and e: both engines
	// must report the same contradiction, with the same partial counts.
	bad := []deps.Dependency{deps.NewFD("F", deps.Attrs("A"), deps.Attrs("B"))}
	regNew, regRef = obs.New(), obs.New()
	_, gotErr = Complete(seed, bad, Options{Obs: regNew})
	_, wantErr = ReferenceComplete(seed, bad, Options{Obs: regRef})
	if gotErr == nil || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("contradiction error %v, reference %v", gotErr, wantErr)
	}
	compareCounters(t, "contradiction", regNew, regRef)

	// A group whose FD fires on its first right-hand column and then
	// equates the distinct constants c1 and c2 on its second: the IND
	// adds Q(x, _, c2) after the seed Q(x, y, c1), and the next FD pass
	// equates y with the null before it meets the constants.
	dbQ := schema.MustDatabase(schema.MustScheme("G", "A", "C"), schema.MustScheme("Q", "X", "Y", "Z"))
	seedQ := dataSeed(dbQ, map[string][][]string{"G": {{"x", "c2"}}, "Q": {{"x", "y", "c1"}}})
	sigmaQ := []deps.Dependency{
		deps.NewIND("G", deps.Attrs("A", "C"), "Q", deps.Attrs("X", "Z")),
		deps.NewFD("Q", deps.Attrs("X"), deps.Attrs("Y", "Z")),
	}
	regNew, regRef = obs.New(), obs.New()
	_, gotErr = Complete(seedQ, sigmaQ, Options{Obs: regNew})
	_, wantErr = ReferenceComplete(seedQ, sigmaQ, Options{Obs: regRef})
	if gotErr == nil || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("second-column contradiction error %v, reference %v", gotErr, wantErr)
	}
	if f := regNew.Counter("chase.fd_applications").Value(); f != 1 {
		t.Errorf("second-column contradiction after %d FD applications, want 1 (the first column's)", f)
	}
	compareCounters(t, "second-column contradiction", regNew, regRef)

	// A context cancelled before the run: both engines count the seeds
	// and stop before the first round.
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	regNew, regRef = obs.New(), obs.New()
	_, gotErr = Complete(seed, sigma, Options{Obs: regNew, Ctx: dead})
	_, wantErr = ReferenceComplete(seed, sigma, Options{Obs: regRef, Ctx: dead})
	if gotErr == nil || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("cancelled error %v, reference %v", gotErr, wantErr)
	}
	compareCounters(t, "cancelled", regNew, regRef)
}
