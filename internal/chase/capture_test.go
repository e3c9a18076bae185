package chase

// The capture matrix: every capture channel — trace lines, provenance,
// the profiler, the footprint — on together and each on alone, run on a
// fresh engine and as the second run on a warm pooled engine whose first
// run had every channel on. Within a channel set, the pooled run must
// agree with the fresh one on the verdict, trace, counters, derivation,
// footprint and profile (scan times aside); across channel sets, each
// channel alone must record exactly what it records with the others on.

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"indfd/internal/deps"
	"indfd/internal/obs"
	"indfd/internal/schema"
)

// captureSets are the channel sets of the matrix, all-on first.
var captureSets = []struct {
	name string
	opt  Options
}{
	{"all", Options{Trace: true, Provenance: true, Profile: true, Footprint: true}},
	{"trace", Options{Trace: true}},
	{"provenance", Options{Provenance: true}},
	{"profile", Options{Profile: true}},
	{"footprint", Options{Footprint: true}},
}

// captureModes are the ways of running one instance; the first is the
// one the others are compared against.
var captureModes = []string{"sequential", "pooled"}

// engineCounters is every chase.* counter a run's capture channels and
// pooling must leave unchanged: the reference set plus the semi-naive
// extras.
var engineCounters = append([]string{
	"chase.delta_tuples",
	"chase.rekeyed_tuples",
	"chase.scans_skipped",
}, refCounters...)

type captureRun struct {
	res Result
	err error
	reg *obs.Registry
}

// runCaptured runs one instance with the channels of set in the given
// mode. The pooled mode primes a fresh pool with an every-channel run,
// so the measured run is the second on a reset engine.
func runCaptured(db *schema.Database, sigma []deps.Dependency, goal deps.Dependency, budget Options, set Options, mode string) captureRun {
	opt := set
	opt.MaxTuples = budget.MaxTuples
	if mode == "pooled" {
		opt.Pool = NewEnginePool(nil)
		prime := captureSets[0].opt
		prime.MaxTuples, prime.Pool = budget.MaxTuples, opt.Pool
		_, _ = Implies(db, sigma, goal, prime)
	}
	opt.Obs = obs.New()
	opt.Span = opt.Obs.StartSpan("capture")
	res, err := Implies(db, sigma, goal, opt)
	return captureRun{res, err, opt.Obs}
}

// scanless is a profile with scan times zeroed and re-sorted, the part
// of a profile that is deterministic.
func scanless(p *obs.DepProfile) []obs.DepCost {
	if p == nil {
		return nil
	}
	q := &obs.DepProfile{Deps: slices.Clone(p.Deps)}
	for i := range q.Deps {
		q.Deps[i].ScanNS = 0
	}
	q.Sort()
	return q.Deps
}

func derivationText(d *Derivation) string {
	if d == nil {
		return "<none>"
	}
	return d.String()
}

func sameUsed(a, b []int) bool {
	return (a == nil) == (b == nil) && slices.Equal(a, b)
}

// compareCaptured fails on any divergence between two runs of one
// instance under one channel set.
func compareCaptured(t *testing.T, label string, got, want captureRun) {
	t.Helper()
	compareResults(t, label, got.res, got.err, want.res, want.err)
	for _, name := range engineCounters {
		if g, w := got.reg.Counter(name).Value(), want.reg.Counter(name).Value(); g != w {
			t.Errorf("%s: counter %s = %d, want %d", label, name, g, w)
		}
	}
	if g, w := derivationText(got.res.Derivation), derivationText(want.res.Derivation); g != w {
		t.Errorf("%s: derivation\n%s\nwant\n%s", label, g, w)
	}
	if !sameUsed(got.res.Used, want.res.Used) {
		t.Errorf("%s: Used %v, want %v", label, got.res.Used, want.res.Used)
	}
	if g, w := scanless(got.res.Profile), scanless(want.res.Profile); !slices.Equal(g, w) {
		t.Errorf("%s: profile %+v, want %+v", label, g, w)
	}
}

// checkCaptureMatrix runs the whole matrix on one instance.
func checkCaptureMatrix(t *testing.T, label string, db *schema.Database, sigma []deps.Dependency, goal deps.Dependency, budget Options) {
	t.Helper()
	seq := make(map[string]captureRun, len(captureSets))
	for _, set := range captureSets {
		for _, mode := range captureModes {
			run := runCaptured(db, sigma, goal, budget, set.opt, mode)
			if mode == captureModes[0] {
				seq[set.name] = run
				continue
			}
			compareCaptured(t, fmt.Sprintf("%s [%s, %s]", label, set.name, mode), run, seq[set.name])
		}
	}

	// Each channel alone records what it records with the others on.
	all := seq["all"]
	for _, set := range captureSets[1:] {
		one := seq[set.name]
		l := fmt.Sprintf("%s [%s alone vs all]", label, set.name)
		if one.res.Verdict != all.res.Verdict || one.res.Rounds != all.res.Rounds || one.res.Tuples != all.res.Tuples {
			t.Errorf("%s: outcome %v/%d/%d, all-on %v/%d/%d", l, one.res.Verdict, one.res.Rounds,
				one.res.Tuples, all.res.Verdict, all.res.Rounds, all.res.Tuples)
		}
		for _, name := range engineCounters {
			if g, w := one.reg.Counter(name).Value(), all.reg.Counter(name).Value(); g != w {
				t.Errorf("%s: counter %s = %d, all-on %d", l, name, g, w)
			}
		}
	}
	if g, w := seq["trace"].res.Trace, all.res.Trace; !slices.Equal(g, w) {
		t.Errorf("%s: trace alone %q, all-on %q", label, g, w)
	}
	if g, w := derivationText(seq["provenance"].res.Derivation), derivationText(all.res.Derivation); g != w {
		t.Errorf("%s: derivation alone\n%s\nall-on\n%s", label, g, w)
	}
	if g, w := scanless(seq["profile"].res.Profile), scanless(all.res.Profile); !slices.Equal(g, w) {
		t.Errorf("%s: profile alone %+v, all-on %+v", label, g, w)
	}
	// The footprint is the touched members, unless a derivation was
	// extracted: then it is the derivation's members.
	touched := seq["footprint"].res.Used
	if !sameUsed(seq["profile"].res.Used, touched) {
		t.Errorf("%s: profile's footprint %v, footprint alone %v", label, seq["profile"].res.Used, touched)
	}
	wantAll := touched
	if all.res.Derivation != nil {
		wantAll = seq["provenance"].res.Used
		checkDerivationMembers(t, label, sigma, all.res.Derivation, wantAll)
	} else if seq["provenance"].res.Used != nil {
		t.Errorf("%s: provenance alone captured Used %v without a derivation", label, seq["provenance"].res.Used)
	}
	if !sameUsed(all.res.Used, wantAll) {
		t.Errorf("%s: all-on Used %v, want %v", label, all.res.Used, wantAll)
	}
	if seq["trace"].res.Used != nil {
		t.Errorf("%s: trace alone captured Used %v", label, seq["trace"].res.Used)
	}
}

// checkDerivationMembers checks a derivation's footprint against its
// nodes: every member named is a rule some node fires, and every rule a
// node fires is named.
func checkDerivationMembers(t *testing.T, label string, sigma []deps.Dependency, d *Derivation, used []int) {
	t.Helper()
	if used == nil {
		t.Errorf("%s: derivation extracted but Used is nil", label)
		return
	}
	rules := map[string]bool{}
	for _, n := range d.Nodes {
		if n.Rule != "" {
			rules[n.Rule] = true
		}
	}
	named := map[string]bool{}
	for _, at := range used {
		r := sigma[at].String()
		if !rules[r] {
			t.Errorf("%s: Used names %s, which no derivation node fires", label, r)
		}
		named[r] = true
	}
	for r := range rules {
		if !named[r] {
			t.Errorf("%s: derivation fires %s, missing from Used %v", label, r, used)
		}
	}
}

func TestCaptureMatrixFixtures(t *testing.T) {
	db41, sigma41 := prop41Fixture()
	dbTriv, sigmaTriv, goalTriv := prop41Sigma()
	dbChain := schema.MustDatabase(
		schema.MustScheme("R", "A", "B"),
		schema.MustScheme("S", "C", "D"),
		schema.MustScheme("T", "E", "F"),
	)
	sigmaChain := []deps.Dependency{
		deps.NewIND("R", deps.Attrs("A"), "S", deps.Attrs("C")),
		deps.NewIND("S", deps.Attrs("C"), "T", deps.Attrs("E")),
	}
	dbDiv, sigmaDiv, goalDiv := divergentInstance()
	checkCaptureMatrix(t, "prop4.1 fd", db41, sigma41, deps.NewFD("R", deps.Attrs("X"), deps.Attrs("Y")), Options{})
	checkCaptureMatrix(t, "prop4.1 rd", db41, sigma41, deps.NewRD("R", deps.Attrs("X"), deps.Attrs("Y")), Options{})
	checkCaptureMatrix(t, "prop4.1 not-implied", db41, sigma41, deps.NewFD("S", deps.Attrs("U"), deps.Attrs("T")), Options{})
	checkCaptureMatrix(t, "prop4.1 cold member", dbTriv, sigmaTriv, goalTriv, Options{})
	checkCaptureMatrix(t, "ind chain", dbChain, sigmaChain, deps.NewIND("R", deps.Attrs("A"), "T", deps.Attrs("E")), Options{})
	checkCaptureMatrix(t, "ind chain not-implied", dbChain, sigmaChain, deps.NewIND("T", deps.Attrs("E"), "R", deps.Attrs("A")), Options{})
	checkCaptureMatrix(t, "divergent", dbDiv, sigmaDiv, goalDiv, Options{MaxTuples: 64})
	checkCaptureMatrix(t, "divergent tiny", dbDiv, sigmaDiv, goalDiv, Options{MaxTuples: 3})
	for _, m := range wideFDWidths {
		db, sigma, goal := wideFDFixture(m)
		checkCaptureMatrix(t, fmt.Sprintf("wide fd m=%d", m), db, sigma, goal, Options{})
	}
	dbYZ, sigmaYZ, goalYZ, notYZ := wideYZFixture(wideYZWidth)
	checkCaptureMatrix(t, "wide fd X -> Y, Z", dbYZ, sigmaYZ, goalYZ, Options{})
	checkCaptureMatrix(t, "wide fd X -> Y, Z not-implied", dbYZ, sigmaYZ, notYZ, Options{})

	// The cold member of the trivial-FD fixture scans but never fires: a
	// footprint keeps it, the derivation's footprint drops it.
	fp, err := ImpliesFD(dbTriv, sigmaTriv, goalTriv, Options{Footprint: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2}; !slices.Equal(fp.Used, want) {
		t.Errorf("footprint Used = %v, want %v", fp.Used, want)
	}
	pv, err := ImpliesFD(dbTriv, sigmaTriv, goalTriv, Options{Provenance: true, Footprint: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1}; !slices.Equal(pv.Used, want) {
		t.Errorf("derivation Used = %v, want %v", pv.Used, want)
	}
}

// TestCaptureMatrixRandom runs the matrix over a seeded random sweep of
// the differential tests' instance distribution.
func TestCaptureMatrixRandom(t *testing.T) {
	r := rand.New(rand.NewPCG(1982, 12))
	compared, skipped := 0, 0
	for trial := 0; trial < 400; trial++ {
		db, sigma, goal, opt := randomImpliesInstance(r)
		// Skip the instances that diverge without exhausting the budget,
		// as the other random differentials do.
		probeCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		probeOpt := opt
		probeOpt.Ctx = probeCtx
		_, probeErr := Implies(db, sigma, goal, probeOpt)
		cancel()
		if probeErr != nil {
			skipped++
			continue
		}
		checkCaptureMatrix(t, fmt.Sprintf("trial %d: %v |= %v", trial, sigma, goal), db, sigma, goal, opt)
		compared++
	}
	t.Logf("compared %d random instances (%d diverging instances skipped)", compared, skipped)
	if compared < 100 {
		t.Errorf("only %d random instances compared; generator or probe broken", compared)
	}
}
