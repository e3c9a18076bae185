// Package benchws holds the per-engine reference workloads behind the
// committed BENCH_engines.json baseline: one representative instrumented
// run per engine (IND decision, FD proof, unary finite implication,
// FD+IND chase, counterexample search, exhaustive search, maintenance),
// all recording into a single obs registry.
//
// Run executes every workload and adds a benchws.<name>_ns wall-time
// gauge per workload (best of the requested rounds, so scheduler noise
// shrinks the number, never grows it). The counters are exact and
// machine-independent: cmd/benchdiff fails on any drift from the
// committed baseline, and prints the _ns gauges beside it for reading.
package benchws

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"indfd/internal/chase"
	"indfd/internal/counterex"
	"indfd/internal/data"
	"indfd/internal/deps"
	"indfd/internal/fd"
	"indfd/internal/ind"
	"indfd/internal/lba"
	"indfd/internal/maintain"
	"indfd/internal/obs"
	"indfd/internal/schema"
	"indfd/internal/search"
	"indfd/internal/unary"
)

// Workload is one engine's reference run. Run must be deterministic:
// identical counters into reg on every call, on every machine.
type Workload struct {
	Name string
	Run  func(reg *obs.Registry) error
}

// Workloads returns the reference workloads in their canonical order.
func Workloads() []Workload {
	return []Workload{
		{"ind_decide", indWorkload},
		{"fd_prove", fdWorkload},
		{"unary_finite", unaryWorkload},
		{"chase", chaseWorkload},
		{"chase_lemma72", chaseLemma72Workload},
		{"chase_spiral", chaseSpiralWorkload},
		{"chase_spiral_scan", chaseSpiralScanWorkload},
		{"chase_widefd", chaseWideFDWorkload},
		{"search", searchWorkload},
		{"search_exhaustive", searchExhaustiveWorkload},
		{"maintain", maintainWorkload},
		{"batch_implies", batchImpliesWorkload},
		{"footprint_cache", footprintCacheWorkload},
	}
}

// Run executes every workload: the first round's counters land in reg,
// and each workload's best wall time across rounds (min 1) lands in the
// benchws.<name>_ns gauge.
func Run(reg *obs.Registry, rounds int) error {
	if rounds < 1 {
		rounds = 1
	}
	for _, w := range Workloads() {
		best := int64(math.MaxInt64)
		for r := 0; r < rounds; r++ {
			target := reg
			if r > 0 {
				// Timing rounds must not double-count into the baseline.
				target = obs.New()
			}
			// Allocation-heavy workloads are bimodal in whether a GC cycle
			// lands inside the round; start every round from a collected
			// heap so the two sides of a diff measure the same thing.
			runtime.GC()
			start := time.Now()
			if err := w.Run(target); err != nil {
				return fmt.Errorf("benchws %s: %w", w.Name, err)
			}
			if ns := time.Since(start).Nanoseconds(); ns < best {
				best = ns
			}
		}
		reg.Gauge("benchws." + w.Name + "_ns").Set(best)
	}
	return nil
}

// indWorkload: the Theorem 3.3 LBA-reduction instance at n=3, decided
// by the Corollary 3.2 interned frontier.
func indWorkload(reg *obs.Registry) error {
	inst, err := lba.Reduce(lba.Eraser(), lba.Input("a", 3))
	if err != nil {
		return err
	}
	res, err := ind.Decide(inst.DB, inst.Sigma, inst.Goal)
	if err != nil || !res.Implied {
		return fmt.Errorf("ind workload wrong: %v %v", res.Implied, err)
	}
	res.Stats.Record(reg)
	return nil
}

// fdChain builds the n-attribute FD chain A0 -> A1 -> ... -> A(n-1).
func fdChain(n int) []deps.FD {
	var sigma []deps.FD
	for i := 0; i+1 < n; i++ {
		sigma = append(sigma, deps.NewFD("R",
			deps.Attrs(fmt.Sprintf("A%d", i)), deps.Attrs(fmt.Sprintf("A%d", i+1))))
	}
	return sigma
}

// fdWorkload: an 800-step chain proof.
func fdWorkload(reg *obs.Registry) error {
	sigma := fdChain(800)
	goal := deps.NewFD("R", deps.Attrs("A0"), deps.Attrs("A799"))
	if _, ok := fd.ProveObs(sigma, goal, reg); !ok {
		return fmt.Errorf("fd workload wrong")
	}
	return nil
}

// unaryWorkload: the Fig 4.1 finite-implication instance.
func unaryWorkload(reg *obs.Registry) error {
	u := counterex.Fig41()
	sys, err := unary.NewObs(u.DB, u.Sigma, reg)
	if err != nil {
		return err
	}
	if ok, err := sys.ImpliesFinite(u.Goal); err != nil || !ok {
		return fmt.Errorf("unary workload wrong: %v %v", ok, err)
	}
	return nil
}

// chaseWorkload: Proposition 4.1 plus the Lemma 7.2 derivation at n=4.
func chaseWorkload(reg *obs.Registry) error {
	db41 := schema.MustDatabase(
		schema.MustScheme("R", "X", "Y"),
		schema.MustScheme("S", "T", "U"),
	)
	sigma41 := []deps.Dependency{
		deps.NewIND("R", deps.Attrs("X", "Y"), "S", deps.Attrs("T", "U")),
		deps.NewFD("S", deps.Attrs("T"), deps.Attrs("U")),
	}
	cres, err := chase.ImpliesFD(db41, sigma41,
		deps.NewFD("R", deps.Attrs("X"), deps.Attrs("Y")), chase.Options{Obs: reg})
	if err != nil || cres.Verdict != chase.Implied {
		return fmt.Errorf("chase workload wrong: %v %v", cres.Verdict, err)
	}
	s7, err := counterex.NewSection7(4)
	if err != nil {
		return err
	}
	if lres, err := s7.Lemma72(chase.Options{Obs: reg}); err != nil || lres.Verdict != chase.Implied {
		return fmt.Errorf("lemma 7.2 workload wrong: %v", err)
	}
	return nil
}

// chaseLemma72Workload: the Lemma 7.2 derivation at n=6 — the deepest
// fixed derivation the repo builds, an FD+IND interaction where every
// round both adds tuples and equates values.
func chaseLemma72Workload(reg *obs.Registry) error {
	s7, err := counterex.NewSection7(6)
	if err != nil {
		return err
	}
	if res, err := s7.Lemma72(chase.Options{Obs: reg}); err != nil || res.Verdict != chase.Implied {
		return fmt.Errorf("chase_lemma72 workload wrong: %v", err)
	}
	return nil
}

// SpiralInstance builds the k-deep IND spiral: relations L0..L(k-1) of
// width three with INDs Li[B,C] ⊆ L(i+1 mod k)[A,B], so every new tuple
// forces one more tuple (with one fresh null) in the next relation, and
// the chase never reaches a fixpoint — it runs one round per generation
// until the tuple budget stops it with verdict Unknown. A quiet FD on a
// relation the spiral never touches rides along so FD machinery is
// exercised without ever firing. This is the many-rounds stress the
// semi-naive engine's delta-driven IND pass is built for; the naive
// reference rebuilds every witness map over the whole tableau every
// round.
func SpiralInstance(k int) (*schema.Database, []deps.Dependency, deps.FD) {
	schemes := []*schema.Scheme{schema.MustScheme("M", "A", "B")}
	names := make([]string, k)
	for i := 0; i < k; i++ {
		names[i] = fmt.Sprintf("L%d", i)
		schemes = append(schemes, schema.MustScheme(names[i], "A", "B", "C"))
	}
	db := schema.MustDatabase(schemes...)
	sigma := []deps.Dependency{
		deps.NewFD("M", deps.Attrs("A"), deps.Attrs("B")),
	}
	for i := 0; i < k; i++ {
		sigma = append(sigma, deps.NewIND(names[i], deps.Attrs("B", "C"),
			names[(i+1)%k], deps.Attrs("A", "B")))
	}
	return db, sigma, deps.NewFD("L0", deps.Attrs("A"), deps.Attrs("C"))
}

// SpiralScanInstance is SpiralInstance with one never-firing FD
// Li: (C, B) -> A per spiral relation. Every tuple the spiral pours
// into Li carries a fresh null in C, so the (C, B) groups stay
// singletons forever and the FDs never fire — but each relation's
// version bumps every round, so each FD re-scans the whole growing
// relation every round: the chase becomes FD-scan dominated (quadratic
// in rounds) while remaining byte-deterministic — the worst case for the
// version gate that lets FD passes skip unchanged relations.
func SpiralScanInstance(k int) (*schema.Database, []deps.Dependency, deps.FD) {
	db, sigma, goal := SpiralInstance(k)
	for i := 0; i < k; i++ {
		sigma = append(sigma, deps.NewFD(fmt.Sprintf("L%d", i),
			deps.Attrs("C", "B"), deps.Attrs("A")))
	}
	return db, sigma, goal
}

// chaseSpiralScanWorkload: the 8-relation scan-heavy spiral under a
// 1024-tuple budget — FD re-scans, not IND deltas, dominate its rounds.
func chaseSpiralScanWorkload(reg *obs.Registry) error {
	db, sigma, goal := SpiralScanInstance(8)
	res, err := chase.ImpliesFD(db, sigma, goal, chase.Options{Obs: reg, MaxTuples: 1024})
	if err != nil || res.Verdict != chase.Unknown {
		return fmt.Errorf("chase_spiral_scan workload wrong: %v %v", res.Verdict, err)
	}
	return nil
}

// chaseSpiralWorkload: the 4-deep spiral under a 1500-tuple budget —
// about 750 rounds of pure delta work.
func chaseSpiralWorkload(reg *obs.Registry) error {
	db, sigma, goal := SpiralInstance(4)
	res, err := chase.ImpliesFD(db, sigma, goal, chase.Options{Obs: reg, MaxTuples: 1500})
	if err != nil || res.Verdict != chase.Unknown {
		return fmt.Errorf("chase_spiral workload wrong: %v %v", res.Verdict, err)
	}
	return nil
}

// WideFDInstance builds the wide-FD tableau: P[A,B1..Bm], Q[X,Y], one
// IND P[A,Bi] ⊆ Q[X,Y] per i, and the FD Q: X -> Y. Chasing the RD goal
// P[B1 = Bm] pours m tuples into Q in one round, the FD collapses them
// into one X-group (m-1 unions), and dedup removes all but one — a
// union-heavy, re-keying-heavy contrast to the IND-heavy spiral.
func WideFDInstance(m int) (*schema.Database, []deps.Dependency, deps.RD) {
	attrs := []schema.Attribute{"A"}
	for i := 1; i <= m; i++ {
		attrs = append(attrs, schema.Attribute(fmt.Sprintf("B%d", i)))
	}
	db := schema.MustDatabase(
		schema.MustScheme("P", attrs...),
		schema.MustScheme("Q", "X", "Y"),
	)
	var sigma []deps.Dependency
	for i := 1; i <= m; i++ {
		sigma = append(sigma, deps.NewIND("P",
			[]schema.Attribute{"A", schema.Attribute(fmt.Sprintf("B%d", i))},
			"Q", deps.Attrs("X", "Y")))
	}
	sigma = append(sigma, deps.NewFD("Q", deps.Attrs("X"), deps.Attrs("Y")))
	return db, sigma, deps.NewRD("P", deps.Attrs("B1"), deps.Attrs(fmt.Sprintf("B%d", m)))
}

// chaseWideFDWorkload: the m=300 wide-FD tableau, derived in two rounds.
func chaseWideFDWorkload(reg *obs.Registry) error {
	db, sigma, goal := WideFDInstance(300)
	res, err := chase.ImpliesRD(db, sigma, goal, chase.Options{Obs: reg})
	if err != nil || res.Verdict != chase.Implied {
		return fmt.Errorf("chase_widefd workload wrong: %v %v", res.Verdict, err)
	}
	return nil
}

// searchWorkload: a small counterexample hunt with an early hit.
func searchWorkload(reg *obs.Registry) error {
	db := schema.MustDatabase(schema.MustScheme("R", "A", "B"))
	_, found, err := search.Counterexample(db,
		[]deps.Dependency{deps.NewFD("R", deps.Attrs("A"), deps.Attrs("B"))},
		deps.NewFD("R", deps.Attrs("B"), deps.Attrs("A")),
		search.Options{Domain: 2, MaxTuples: 3, Obs: reg})
	if err != nil || !found {
		return fmt.Errorf("search workload wrong: %v %v", found, err)
	}
	return nil
}

// searchExhaustiveWorkload: a full Domain=3/MaxTuples=3 scan — the goal
// is trivially satisfied, so no early hit shortens it. This is the
// enumeration throughput baseline.
func searchExhaustiveWorkload(reg *obs.Registry) error {
	db := schema.MustDatabase(schema.MustScheme("R", "A", "B", "C"))
	_, found, err := search.Counterexample(db,
		[]deps.Dependency{deps.NewFD("R", deps.Attrs("A"), deps.Attrs("B"))},
		deps.NewIND("R", deps.Attrs("A"), "R", deps.Attrs("A")),
		search.Options{Domain: 3, MaxTuples: 3, Obs: reg})
	if err != nil || found {
		return fmt.Errorf("trivial goal cannot have a counterexample: %v %v", found, err)
	}
	return nil
}

// maintainWorkload: 100 referentially-linked inserts.
func maintainWorkload(reg *obs.Registry) error {
	db := schema.MustDatabase(
		schema.MustScheme("CUST", "CID", "NAME"),
		schema.MustScheme("ORD", "OID", "CID"),
	)
	mon, err := maintain.NewMonitorObs(db, []deps.Dependency{
		deps.NewFD("CUST", deps.Attrs("CID"), deps.Attrs("NAME")),
		deps.NewIND("ORD", deps.Attrs("CID"), "CUST", deps.Attrs("CID")),
	}, reg)
	if err != nil {
		return err
	}
	for j := 0; j < 100; j++ {
		cid := data.Value(fmt.Sprintf("c%d", j))
		if err := mon.Insert("CUST", data.Tuple{cid, "n"}); err != nil {
			return err
		}
		if err := mon.Insert("ORD", data.Tuple{data.Value(fmt.Sprintf("o%d", j)), cid}); err != nil {
			return err
		}
	}
	return nil
}
