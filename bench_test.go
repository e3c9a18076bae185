// Package indfd holds the repository-level benchmark harness: one
// benchmark per experiment of EXPERIMENTS.md (E1–E14), plus the ablation
// benchmarks called out in DESIGN.md. Run with
//
//	go test -bench=. -benchmem
package indfd

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math/big"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"indfd/internal/benchws"
	"indfd/internal/chase"
	"indfd/internal/core"
	"indfd/internal/counterex"
	"indfd/internal/data"
	"indfd/internal/deps"
	"indfd/internal/emvd"
	"indfd/internal/enum"
	"indfd/internal/fd"
	"indfd/internal/fo"
	"indfd/internal/ind"
	"indfd/internal/lba"
	"indfd/internal/lint"
	"indfd/internal/maintain"
	"indfd/internal/mvd"
	"indfd/internal/obs"
	"indfd/internal/obs/tsdb"
	"indfd/internal/perm"
	"indfd/internal/rules"
	"indfd/internal/schema"
	"indfd/internal/search"
	"indfd/internal/serve"
	"indfd/internal/td"
	"indfd/internal/unary"
)

// --- E1: Theorem 3.1 — the chase-with-zeros construction -----------------

func BenchmarkINDChase(b *testing.B) {
	db := schema.MustDatabase(
		schema.MustScheme("R", "A", "B", "C"),
		schema.MustScheme("S", "D", "E", "F"),
		schema.MustScheme("T", "G", "H", "I"),
	)
	sigma := []deps.IND{
		deps.NewIND("R", deps.Attrs("A", "B", "C"), "S", deps.Attrs("D", "E", "F")),
		deps.NewIND("S", deps.Attrs("E", "D", "F"), "S", deps.Attrs("D", "E", "F")),
		deps.NewIND("S", deps.Attrs("D", "E"), "T", deps.Attrs("G", "H")),
		deps.NewIND("T", deps.Attrs("H", "G", "I"), "T", deps.Attrs("G", "H", "I")),
	}
	goal := deps.NewIND("R", deps.Attrs("A", "B"), "T", deps.Attrs("G", "H"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		implied, _, err := ind.DecideByChase(db, sigma, goal)
		if err != nil || !implied {
			b.Fatalf("chase decision wrong: %v %v", implied, err)
		}
	}
}

// --- E2: Section 3 — superpolynomial decision chains ----------------------

func BenchmarkINDDecisionPermutation(b *testing.B) {
	for _, m := range []int{6, 8, 10, 12} {
		s := perm.Scheme(m)
		db := schema.MustDatabase(s)
		gamma := perm.LandauPermutation(m)
		fm := perm.Landau(m)
		delta := gamma.Pow(new(big.Int).Sub(fm, big.NewInt(1)))
		sigma := []deps.IND{perm.IND(s, gamma)}
		goal := perm.IND(s, delta)
		b.Run(fmt.Sprintf("m=%d/f(m)=%v", m, fm), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := ind.Decide(db, sigma, goal)
				if err != nil || !res.Implied {
					b.Fatalf("decision wrong")
				}
				b.ReportMetric(float64(res.Stats.ChainLength), "chain-steps")
			}
		})
	}
}

// Ablation: the indexed breadth-first search vs the paper's literal
// step-(2) fixpoint loop.
func BenchmarkINDDecisionNaiveVsMemo(b *testing.B) {
	m := 8
	s := perm.Scheme(m)
	db := schema.MustDatabase(s)
	gamma := perm.LandauPermutation(m)
	fm := perm.Landau(m)
	delta := gamma.Pow(new(big.Int).Sub(fm, big.NewInt(1)))
	sigma := []deps.IND{perm.IND(s, gamma)}
	goal := perm.IND(s, delta)
	b.Run("memoBFS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if res, err := ind.Decide(db, sigma, goal); err != nil || !res.Implied {
				b.Fatal("wrong")
			}
		}
	})
	b.Run("naiveLoop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if ok, _ := ind.DecideNaive(sigma, goal); !ok {
				b.Fatal("wrong")
			}
		}
	})
}

// --- E3: Theorem 3.3 — the LBA reduction ---------------------------------

func BenchmarkLBAReduction(b *testing.B) {
	for _, n := range []int{2, 3, 4} {
		m := lba.Eraser()
		input := lba.Input("a", n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				inst, err := lba.Reduce(m, input)
				if err != nil {
					b.Fatal(err)
				}
				res, err := ind.Decide(inst.DB, inst.Sigma, inst.Goal)
				if err != nil || !res.Implied {
					b.Fatal("reduction decision wrong")
				}
			}
		})
	}
}

// --- E4/E5: Theorem 4.4 — unary finite implication ------------------------

func BenchmarkFiniteImplicationUnary(b *testing.B) {
	inst := counterex.Fig41()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys, err := unary.New(inst.DB, inst.Sigma)
		if err != nil {
			b.Fatal(err)
		}
		ok, err := sys.ImpliesFinite(inst.Goal)
		if err != nil || !ok {
			b.Fatal("finite implication wrong")
		}
	}
}

// --- E6: Propositions 4.1–4.3 — the FD+IND chase --------------------------

func BenchmarkChaseProp41(b *testing.B) {
	db := schema.MustDatabase(
		schema.MustScheme("R", "X", "Y"),
		schema.MustScheme("S", "T", "U"),
	)
	sigma := []deps.Dependency{
		deps.NewIND("R", deps.Attrs("X", "Y"), "S", deps.Attrs("T", "U")),
		deps.NewFD("S", deps.Attrs("T"), deps.Attrs("U")),
	}
	goal := deps.NewFD("R", deps.Attrs("X"), deps.Attrs("Y"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := chase.ImpliesFD(db, sigma, goal, chase.Options{})
		if err != nil || res.Verdict != chase.Implied {
			b.Fatal("chase wrong")
		}
	}
}

// --- E7: Theorem 5.1 — k-ary closure over a small universe ----------------

func BenchmarkKaryClosure(b *testing.B) {
	var universe []deps.Dependency
	attrs := []string{"A", "B", "C"}
	for _, x := range attrs {
		for _, y := range attrs {
			universe = append(universe, deps.NewFD("R", deps.Attrs(x), deps.Attrs(y)))
		}
	}
	oracle := func(T []deps.Dependency, tau deps.Dependency) (bool, error) {
		var fds []deps.FD
		for _, d := range T {
			fds = append(fds, d.(deps.FD))
		}
		return fd.Implies(fds, tau.(deps.FD)), nil
	}
	gamma := []deps.Dependency{
		deps.NewFD("R", deps.Attrs("A"), deps.Attrs("B")),
		deps.NewFD("R", deps.Attrs("B"), deps.Attrs("C")),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := rules.KaryClosure(gamma, universe, oracle, 2)
		if err != nil || !c.Contains(deps.NewFD("R", deps.Attrs("A"), deps.Attrs("C"))) {
			b.Fatal("closure wrong")
		}
	}
}

// --- E8: Theorem 5.3 — the Sagiv–Walecka EMVD chase ------------------------

func BenchmarkEMVDChase(b *testing.B) {
	for _, k := range []int{2, 3} {
		f, err := emvd.SagivWalecka(k)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := emvd.Implies(f.DB, f.Sigma, f.Goal, emvd.Options{})
				if err != nil || res.Verdict != emvd.Implied {
					b.Fatal("EMVD chase wrong")
				}
			}
		})
	}
}

// --- E9: Theorem 6.1 — the Fig 6.1 Armstrong verification ------------------

func BenchmarkSection6Armstrong(b *testing.B) {
	for _, k := range []int{1, 2, 3} {
		s, err := counterex.NewSection6(k)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := s.Verify()
				if err != nil || !rep.Ok() {
					b.Fatal("verification failed")
				}
			}
		})
	}
}

// --- E10: Lemma 7.2 — the Section 7 chase ---------------------------------

func BenchmarkLemma72Chase(b *testing.B) {
	for _, n := range []int{2, 4, 6} {
		s, err := counterex.NewSection7(n)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := s.Lemma72(chase.Options{})
				if err != nil || res.Verdict != chase.Implied {
					b.Fatal("Lemma 7.2 chase wrong")
				}
			}
		})
	}
}

// --- E11/E12: Section 7 — figure construction and verification -------------

func BenchmarkSection7Databases(b *testing.B) {
	s, err := counterex.NewSection7(2)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("figures", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.Fig71(); err != nil {
				b.Fatal(err)
			}
			if _, err := s.Fig72(); err != nil {
				b.Fatal(err)
			}
			s.Fig73()
			if _, err := s.Fig74(0); err != nil {
				b.Fatal(err)
			}
			if _, err := s.Fig75(0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("verify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep, err := s.Verify(chase.Options{})
			if err != nil || !rep.Ok() {
				b.Fatal("verification failed")
			}
		}
	})
}

// --- E13: FD closure (with naive ablation) ---------------------------------

func fdChain(n int) []deps.FD {
	var sigma []deps.FD
	for i := 0; i+1 < n; i++ {
		sigma = append(sigma, deps.NewFD("R",
			deps.Attrs(fmt.Sprintf("A%d", i)), deps.Attrs(fmt.Sprintf("A%d", i+1))))
	}
	return sigma
}

func BenchmarkFDClosure(b *testing.B) {
	for _, n := range []int{50, 200, 800} {
		sigma := fdChain(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := fd.Closure("R", deps.Attrs("A0"), sigma); len(got) != n {
					b.Fatal("closure wrong")
				}
			}
		})
	}
}

func BenchmarkFDClosureNaive(b *testing.B) {
	for _, n := range []int{50, 200, 800} {
		sigma := fdChain(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := fd.ClosureNaive("R", deps.Attrs("A0"), sigma); len(got) != n {
					b.Fatal("closure wrong")
				}
			}
		})
	}
}

// --- E14: polynomial special cases ------------------------------------------

func BenchmarkINDBoundedWidth(b *testing.B) {
	for _, n := range []int{20, 60, 180} {
		var schemes []*schema.Scheme
		for i := 0; i < n; i++ {
			schemes = append(schemes, schema.MustScheme(fmt.Sprintf("R%d", i), "A"))
		}
		db := schema.MustDatabase(schemes...)
		var sigma []deps.IND
		for i := 0; i+1 < n; i++ {
			sigma = append(sigma, deps.NewIND(fmt.Sprintf("R%d", i), deps.Attrs("A"), fmt.Sprintf("R%d", i+1), deps.Attrs("A")))
		}
		goal := deps.NewIND("R0", deps.Attrs("A"), fmt.Sprintf("R%d", n-1), deps.Attrs("A"))
		b.Run(fmt.Sprintf("chain=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := ind.Decide(db, sigma, goal)
				if err != nil || !res.Implied {
					b.Fatal("decision wrong")
				}
			}
		})
	}
}

// --- E15: Armstrong databases for IND sets ---------------------------------

func BenchmarkINDArmstrong(b *testing.B) {
	db := schema.MustDatabase(
		schema.MustScheme("R", "A", "B"),
		schema.MustScheme("S", "C", "D"),
	)
	sigma := []deps.IND{deps.NewIND("R", deps.Attrs("A", "B"), "S", deps.Attrs("C", "D"))}
	universe := enum.INDs(db, enum.Options{MaxWidth: 2})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ind.ArmstrongDatabase(db, sigma, universe); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E16: the extended Maslov translation -----------------------------------

func BenchmarkMaslovInstance(b *testing.B) {
	db := schema.MustDatabase(
		schema.MustScheme("R", "A", "B"),
		schema.MustScheme("S", "C", "D"),
	)
	sigma := []deps.IND{
		deps.NewIND("R", deps.Attrs("A", "B"), "S", deps.Attrs("C", "D")),
		deps.NewIND("S", deps.Attrs("C"), "R", deps.Attrs("B")),
	}
	goal := deps.NewIND("R", deps.Attrs("A"), "R", deps.Attrs("B"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		inst, err := fo.InstanceSentence(db, sigma, goal)
		if err != nil || !inst.InExtendedMaslov() {
			b.Fatal("instance wrong")
		}
	}
}

// Ablation: syntactic (Corollary 3.2 search) vs semantic (Theorem 3.1
// chase) IND decision on the same instance.
func BenchmarkINDDecideVsChase(b *testing.B) {
	m := lba.Eraser()
	inst, err := lba.Reduce(m, lba.Input("a", 3))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("syntactic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := ind.Decide(inst.DB, inst.Sigma, inst.Goal)
			if err != nil || !res.Implied {
				b.Fatal("wrong")
			}
		}
	})
	b.Run("semantic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			implied, _, err := ind.DecideByChase(inst.DB, inst.Sigma, inst.Goal)
			if err != nil || !implied {
				b.Fatal("wrong")
			}
		}
	})
}

// --- toolkit benchmarks: lint, template dependencies, search ----------------

func BenchmarkLintAdvise(b *testing.B) {
	ds := schema.MustDatabase(
		schema.MustScheme("CUST", "CID", "NAME"),
		schema.MustScheme("ORD", "OID", "CID"),
		schema.MustScheme("INV", "OID", "BILLCID", "SHIPCID"),
	)
	sigma := []deps.Dependency{
		deps.NewFD("CUST", deps.Attrs("CID"), deps.Attrs("NAME")),
		deps.NewFD("ORD", deps.Attrs("OID"), deps.Attrs("CID")),
		deps.NewIND("ORD", deps.Attrs("CID"), "CUST", deps.Attrs("CID")),
		deps.NewIND("INV", deps.Attrs("OID", "BILLCID"), "ORD", deps.Attrs("OID", "CID")),
		deps.NewIND("INV", deps.Attrs("OID", "SHIPCID"), "ORD", deps.Attrs("OID", "CID")),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		adv, err := lint.Advise(ds, sigma, chase.Options{MaxTuples: 256})
		if err != nil || len(adv.DerivedRDs) == 0 {
			b.Fatal("advice wrong")
		}
	}
}

func BenchmarkTDChaseSagivWalecka(b *testing.B) {
	f, err := emvd.SagivWalecka(2)
	if err != nil {
		b.Fatal(err)
	}
	var sigma []td.TD
	for _, e := range f.Sigma {
		t, err := td.FromEMVD(f.DB, e)
		if err != nil {
			b.Fatal(err)
		}
		sigma = append(sigma, t)
	}
	goal, err := td.FromEMVD(f.DB, f.Goal)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := td.Implies(f.DB, sigma, goal, td.Options{})
		if err != nil || res.Verdict != td.Implied {
			b.Fatal("TD chase wrong")
		}
	}
}

func BenchmarkSearchCounterexample(b *testing.B) {
	db := schema.MustDatabase(schema.MustScheme("R", "A", "B"))
	sigma := []deps.Dependency{deps.NewFD("R", deps.Attrs("A"), deps.Attrs("B"))}
	goal := deps.NewFD("R", deps.Attrs("B"), deps.Attrs("A"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, found, err := search.Counterexample(db, sigma, goal, search.Options{Domain: 2, MaxTuples: 3})
		if err != nil || !found {
			b.Fatal("search wrong")
		}
	}
}

func BenchmarkMaintainInsert(b *testing.B) {
	ds := schema.MustDatabase(
		schema.MustScheme("CUST", "CID", "NAME"),
		schema.MustScheme("ORD", "OID", "CID"),
	)
	sigma := []deps.Dependency{
		deps.NewFD("CUST", deps.Attrs("CID"), deps.Attrs("NAME")),
		deps.NewIND("ORD", deps.Attrs("CID"), "CUST", deps.Attrs("CID")),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := maintain.NewMonitor(ds, sigma)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 100; j++ {
			cid := data.Value(fmt.Sprintf("c%d", j))
			if err := m.Insert("CUST", data.Tuple{cid, "n"}); err != nil {
				b.Fatal(err)
			}
			if err := m.Insert("ORD", data.Tuple{data.Value(fmt.Sprintf("o%d", j)), cid}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- classical FD+MVD engine -------------------------------------------------

func BenchmarkMVDChase(b *testing.B) {
	s := schema.MustScheme("R", "A", "B", "C", "D", "E")
	sigma := mvd.Sigma{
		Scheme: s,
		FDs:    []deps.FD{deps.NewFD("R", deps.Attrs("A"), deps.Attrs("B"))},
		MVDs: []mvd.MVD{
			mvd.New("R", deps.Attrs("A"), deps.Attrs("C")),
			mvd.New("R", deps.Attrs("B"), deps.Attrs("D")),
		},
	}
	goal := mvd.New("R", deps.Attrs("A"), deps.Attrs("D", "E"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sigma.Implies(goal); err != nil {
			b.Fatal(err)
		}
	}
}

// --- workload sweep: IND decision across instance sizes ---------------------

// syntheticINDs builds a layered random-ish IND workload: rels relations
// of the given width, with chains plus cross-links, deterministic in its
// parameters.
func syntheticINDs(rels, width, extra int) (*schema.Database, []deps.IND, deps.IND) {
	var schemes []*schema.Scheme
	attrs := make([]schema.Attribute, width)
	for i := range attrs {
		attrs[i] = schema.Attribute(fmt.Sprintf("A%d", i))
	}
	names := make([]string, rels)
	for i := range names {
		names[i] = fmt.Sprintf("R%d", i)
		schemes = append(schemes, schema.MustScheme(names[i], attrs...))
	}
	db := schema.MustDatabase(schemes...)
	var sigma []deps.IND
	for i := 0; i+1 < rels; i++ {
		sigma = append(sigma, deps.NewIND(names[i], attrs, names[i+1], attrs))
	}
	// Cross-links with rotated columns.
	rot := append(append([]schema.Attribute(nil), attrs[1:]...), attrs[0])
	for i := 0; i < extra; i++ {
		from := (i * 7) % rels
		to := (i*13 + 3) % rels
		sigma = append(sigma, deps.NewIND(names[from], attrs, names[to], rot))
	}
	goal := deps.NewIND(names[0], attrs[:1], names[rels-1], attrs[:1])
	return db, sigma, goal
}

func BenchmarkINDDecisionSweep(b *testing.B) {
	for _, cfg := range []struct{ rels, width, extra int }{
		{8, 3, 4}, {16, 4, 8}, {32, 5, 16}, {64, 6, 32},
	} {
		db, sigma, goal := syntheticINDs(cfg.rels, cfg.width, cfg.extra)
		b.Run(fmt.Sprintf("rels=%d/width=%d/inds=%d", cfg.rels, cfg.width, len(sigma)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := ind.Decide(db, sigma, goal)
				if err != nil || !res.Implied {
					b.Fatal("sweep decision wrong")
				}
			}
		})
	}
}

// --- hot-path benchmarks: IND frontier and exhaustive search ----------------

// BenchmarkINDDecide tracks the Corollary 3.2 frontier on the two
// adversarial families the paper supplies: the Lemma 3.2 superpolynomial
// chain family (Landau permutations; chains of length f(m)) and a
// Theorem 3.3 LBA-reduction instance. These are the allocation-heavy hot
// paths the interned frontier targets; allocs/op here is the interning
// regression guard.
func BenchmarkINDDecide(b *testing.B) {
	b.Run("chain", func(b *testing.B) {
		for _, m := range []int{8, 10} {
			s := perm.Scheme(m)
			db := schema.MustDatabase(s)
			gamma := perm.LandauPermutation(m)
			fm := perm.Landau(m)
			delta := gamma.Pow(new(big.Int).Sub(fm, big.NewInt(1)))
			sigma := []deps.IND{perm.IND(s, gamma)}
			goal := perm.IND(s, delta)
			b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := ind.Decide(db, sigma, goal)
					if err != nil || !res.Implied {
						b.Fatal("decision wrong")
					}
				}
			})
		}
	})
	b.Run("lba", func(b *testing.B) {
		inst, err := lba.Reduce(lba.Eraser(), lba.Input("a", 3))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := ind.Decide(inst.DB, inst.Sigma, inst.Goal)
			if err != nil || !res.Implied {
				b.Fatal("reduction decision wrong")
			}
		}
	})
}

// BenchmarkSearchExhaustive scans a full Domain=3/MaxTuples=3 exhaustive
// space (the goal is trivially satisfied, so no early hit cuts the scan
// short): 3,304 candidate databases, checked one after another on the
// benchmark's goroutine.
func BenchmarkSearchExhaustive(b *testing.B) {
	db := schema.MustDatabase(schema.MustScheme("R", "A", "B", "C"))
	sigma := []deps.Dependency{deps.NewFD("R", deps.Attrs("A"), deps.Attrs("B"))}
	goal := deps.NewIND("R", deps.Attrs("A"), "R", deps.Attrs("A"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, found, err := search.Counterexample(db, sigma, goal, search.Options{Domain: 3, MaxTuples: 3})
		if err != nil || found {
			b.Fatalf("trivial goal cannot have a counterexample: %v %v", found, err)
		}
	}
}

// --- chase engine ablation: semi-naive vs naive reference -------------------

// BenchmarkChaseEngines runs the semi-naive chase and the naive
// reference engine (the pre-rewrite implementation, kept in
// internal/chase as the differential oracle) on the chase workload
// instances of internal/benchws. The spiral is the headline case: a
// budget-bounded divergent chase where the reference rebuilds every
// witness map over the whole tableau each round while the semi-naive
// engine touches only the delta.
func BenchmarkChaseEngines(b *testing.B) {
	b.Run("spiral", func(b *testing.B) {
		db, sigma, goal := benchws.SpiralInstance(4)
		opt := chase.Options{MaxTuples: 1500}
		b.Run("seminaive", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := chase.ImpliesFD(db, sigma, goal, opt)
				if err != nil || res.Verdict != chase.Unknown {
					b.Fatal("spiral chase wrong")
				}
			}
		})
		b.Run("reference", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := chase.ReferenceImpliesFD(db, sigma, goal, opt)
				if err != nil || res.Verdict != chase.Unknown {
					b.Fatal("spiral chase wrong")
				}
			}
		})
	})
	b.Run("widefd", func(b *testing.B) {
		db, sigma, goal := benchws.WideFDInstance(300)
		b.Run("seminaive", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := chase.ImpliesRD(db, sigma, goal, chase.Options{})
				if err != nil || res.Verdict != chase.Implied {
					b.Fatal("widefd chase wrong")
				}
			}
		})
		b.Run("reference", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := chase.ReferenceImpliesRD(db, sigma, goal, chase.Options{})
				if err != nil || res.Verdict != chase.Implied {
					b.Fatal("widefd chase wrong")
				}
			}
		})
	})
	b.Run("lemma72", func(b *testing.B) {
		s, err := counterex.NewSection7(6)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("seminaive", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := s.Lemma72(chase.Options{})
				if err != nil || res.Verdict != chase.Implied {
					b.Fatal("Lemma 7.2 chase wrong")
				}
			}
		})
		b.Run("reference", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := chase.ReferenceImpliesFD(s.DB, s.Sigma, s.Goal, chase.Options{})
				if err != nil || res.Verdict != chase.Implied {
					b.Fatal("Lemma 7.2 chase wrong")
				}
			}
		})
	})
}

// --- engine-pool ablation ------------------------------------------------------

// BenchmarkChasePool is the cross-request pooling ablation: the warm
// repeat-request steady state of the Proposition 4.1 implication with
// engine-state recycling on and off. The pooled column is the depserve
// hot path (near-zero allocations; TestZeroAlloc pins it exactly).
func BenchmarkChasePool(b *testing.B) {
	db := schema.MustDatabase(
		schema.MustScheme("R", "X", "Y"),
		schema.MustScheme("S", "T", "U"),
	)
	sigma := []deps.Dependency{
		deps.NewIND("R", deps.Attrs("X", "Y"), "S", deps.Attrs("T", "U")),
		deps.NewFD("S", deps.Attrs("T"), deps.Attrs("U")),
	}
	goal := deps.NewFD("R", deps.Attrs("X"), deps.Attrs("Y"))
	b.Run("unpooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := chase.ImpliesFD(db, sigma, goal, chase.Options{})
			if err != nil || res.Verdict != chase.Implied {
				b.Fatal("chase wrong")
			}
		}
	})
	b.Run("pooled", func(b *testing.B) {
		opt := chase.Options{Pool: chase.NewEnginePool(nil)}
		if _, err := chase.ImpliesFD(db, sigma, goal, opt); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := chase.ImpliesFD(db, sigma, goal, opt)
			if err != nil || res.Verdict != chase.Implied {
				b.Fatal("chase wrong")
			}
		}
	})
}

// --- machine-readable export and instrumentation-overhead guard -------------

// benchJSON is the -benchjson flag: after the tests/benchmarks of this
// package run, TestMain executes one representative instrumented workload
// per engine (IND decision, FD proof, unary closure, FD+IND chase,
// counterexample search, maintenance) into a single obs registry and
// writes its snapshot — counters, gauges, histograms, span trees — to the
// named file (conventionally BENCH_engines.json):
//
//	go test -bench . -benchjson BENCH_engines.json
var benchJSON = flag.String("benchjson", "", "write per-engine obs counters to `file` after the run")

func TestMain(m *testing.M) {
	flag.Parse()
	code := m.Run()
	if code == 0 && *benchJSON != "" {
		if err := writeBenchJSON(*benchJSON); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			code = 1
		}
	}
	os.Exit(code)
}

// writeBenchJSON runs the per-engine reference workloads of
// internal/benchws under one registry and exports the snapshot
// (counters plus benchws.*_ns wall-time gauges; cmd/benchdiff gates a
// fresh run's counters on this committed baseline).
func writeBenchJSON(path string) error {
	// The benchmarks that just ran leave a heap the GC is still paying
	// for; settle it so the baseline's wall times measure the workloads,
	// not the harness's garbage.
	runtime.GC()
	reg := obs.New()
	if err := benchws.Run(reg, 5); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.Snapshot().WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// BenchmarkChaseObs compares the Proposition 4.1 chase with
// instrumentation disabled (nil registry — the default for every caller
// that doesn't opt in) and enabled. The disabled path must not allocate
// beyond the uninstrumented chase: nil instruments are a predictable
// branch, not an interface call.
func BenchmarkChaseObs(b *testing.B) {
	db := schema.MustDatabase(
		schema.MustScheme("R", "X", "Y"),
		schema.MustScheme("S", "T", "U"),
	)
	sigma := []deps.Dependency{
		deps.NewIND("R", deps.Attrs("X", "Y"), "S", deps.Attrs("T", "U")),
		deps.NewFD("S", deps.Attrs("T"), deps.Attrs("U")),
	}
	goal := deps.NewFD("R", deps.Attrs("X"), deps.Attrs("Y"))
	b.Run("disabled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := chase.ImpliesFD(db, sigma, goal, chase.Options{})
			if err != nil || res.Verdict != chase.Implied {
				b.Fatal("chase wrong")
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		b.ReportAllocs()
		reg := obs.New()
		for i := 0; i < b.N; i++ {
			res, err := chase.ImpliesFD(db, sigma, goal, chase.Options{Obs: reg})
			if err != nil || res.Verdict != chase.Implied {
				b.Fatal("chase wrong")
			}
		}
	})
}

// TestZeroAlloc is the `make check` gate for the zero-cost-when-off
// contract of BenchmarkChaseObs: with instrumentation and provenance
// both disabled (the Options zero value — what every caller gets unless
// it opts in), the Proposition 4.1 chase must stay under its pinned
// allocation ceiling. Both features hide behind predictable branches,
// so turning either one ON must be the only way to pay for it; a new
// allocation on the disabled path fails this test before it fails a
// benchmark diff.
func TestZeroAlloc(t *testing.T) {
	db := schema.MustDatabase(
		schema.MustScheme("R", "X", "Y"),
		schema.MustScheme("S", "T", "U"),
	)
	sigma := []deps.Dependency{
		deps.NewIND("R", deps.Attrs("X", "Y"), "S", deps.Attrs("T", "U")),
		deps.NewFD("S", deps.Attrs("T"), deps.Attrs("U")),
	}
	goal := deps.NewFD("R", deps.Attrs("X"), deps.Attrs("Y"))
	run := func(opt chase.Options) float64 {
		return testing.AllocsPerRun(200, func() {
			res, err := chase.ImpliesFD(db, sigma, goal, opt)
			if err != nil || res.Verdict != chase.Implied {
				t.Fatal("chase wrong")
			}
		})
	}
	disabled := run(chase.Options{})
	withProv := run(chase.Options{Provenance: true})
	withProf := run(chase.Options{Profile: true})
	pool := chase.NewEnginePool(nil)
	pooledOpt := chase.Options{Pool: pool}
	if _, err := chase.ImpliesFD(db, sigma, goal, pooledOpt); err != nil {
		t.Fatal(err) // prime: the first request builds the engine the rest reuse
	}
	pooled := run(pooledOpt)
	footprintOpt := chase.Options{Pool: pool, Footprint: true}
	if _, err := chase.ImpliesFD(db, sigma, goal, footprintOpt); err != nil {
		t.Fatal(err) // prime the capture's aggregates on the pooled engine
	}
	pooledFootprint := run(footprintOpt)
	t.Logf("allocs/run: disabled %.1f, provenance %.1f, profile %.1f, warm pooled %.1f, warm pooled footprint %.1f",
		disabled, withProv, withProf, pooled, pooledFootprint)
	// Measured 96 allocs/run (85 before the engine pool's pointer-entry
	// interner: a few extra cold-compile allocations bought an exactly-
	// zero warm pooled path); the ceiling leaves slack for toolchain
	// drift, not for regressions (same pin as the chase package's
	// TestDisabledObsAllocsPinned). The zero value disables obs,
	// provenance AND the per-dependency profiler, so this one ceiling
	// pins all three off-switches at once.
	if disabled > 100 {
		t.Errorf("disabled chase path allocates %.1f/run, ceiling 100", disabled)
	}
	if withProv <= disabled {
		t.Errorf("provenance-on path allocates %.1f/run vs %.1f disabled; capture is not recording",
			withProv, disabled)
	}
	if withProf <= disabled {
		t.Errorf("profile-on path allocates %.1f/run vs %.1f disabled; attribution is not recording",
			withProf, disabled)
	}
	// The pooled serve hot path is pinned EXACTLY: a warm engine replays
	// the whole chase in recycled arenas, indexes and union-find state,
	// so a repeat request for a cached (schema, sigma) shape must not
	// allocate at all. (Not under -race: the instrumentation itself
	// allocates.)
	if !raceDetectorEnabled && pooled != 0 {
		t.Errorf("warm pooled chase path allocates %.1f/run, want exactly 0", pooled)
	}
	// The serve layer's cacheable misses run with Footprint on: the
	// capture reuses the pooled engine's aggregates, so the one
	// allocation left is the returned Result.Used slice of positions.
	if !raceDetectorEnabled && pooledFootprint > 1 {
		t.Errorf("warm pooled footprint path allocates %.1f/run, want at most 1 (the Used slice)", pooledFootprint)
	}

	// Telemetry history and alerting off (-ts-resolution 0) must be
	// free: every nil-receiver entry point depserve's loop and handlers
	// can hit is pinned at EXACTLY zero allocations.
	var store *tsdb.Store
	var wd *tsdb.Watchdog
	snap := obs.New().Snapshot()
	off := testing.AllocsPerRun(200, func() {
		store.Sample(snap, time.Time{})
		if store.Query(tsdb.QueryOptions{}) != nil {
			t.Fatal("nil store query returned series")
		}
		if _, ok := store.WindowSum("serve.requests_total", time.Minute); ok {
			t.Fatal("nil store window returned data")
		}
		wd.Evaluate(time.Time{})
		if wd.Active() != nil || wd.CriticalNames() != nil {
			t.Fatal("nil watchdog returned alerts")
		}
	})
	if off != 0 {
		t.Errorf("disabled tsdb+watchdog path allocates %.1f/run, want exactly 0", off)
	}
}

// BenchmarkChaseProfile is the per-dependency profiler's ablation: the
// Lemma 7.2 chase with attribution off (the default) and on. The off
// column must match the uninstrumented engine — the profiler is one
// channel of the chase's capture path, like provenance — and the on
// column prices the two time.Now calls per member scan.
func BenchmarkChaseProfile(b *testing.B) {
	s, err := counterex.NewSection7(4)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("disabled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := s.Lemma72(chase.Options{})
			if err != nil || res.Verdict != chase.Implied {
				b.Fatal("Lemma 7.2 chase wrong")
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := s.Lemma72(chase.Options{Profile: true})
			if err != nil || res.Verdict != chase.Implied || res.Profile == nil {
				b.Fatal("profiled Lemma 7.2 chase wrong")
			}
		}
	})
}

// --- batch implication and the footprint-keyed answer cache ----------------

// benchServer boots an in-process depserve on a discard logger.
func benchServer(b *testing.B, cacheSize int) *httptest.Server {
	b.Helper()
	s := serve.New(serve.Config{
		Reg:       obs.New(),
		Logger:    slog.New(slog.NewJSONHandler(io.Discard, nil)),
		CacheSize: cacheSize,
	})
	s.SetReady(true)
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(ts.Close)
	return ts
}

func benchPost(b *testing.B, url, body string) {
	b.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("POST %s: status %d", url, resp.StatusCode)
	}
}

// benchBatchInstance renders the shared instance: R(A0..A31) with the
// 31-step FD chain, and n goals R: A0 -> Ai cycling the chain depths.
func benchBatchInstance(n int) (schemaJSON, sigmaJSON string, goals []string) {
	attrs := make([]string, 32)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("A%d", i)
	}
	schemaJSON = fmt.Sprintf(`["R(%s)"]`, strings.Join(attrs, ", "))
	members := make([]string, 31)
	for i := range members {
		members[i] = fmt.Sprintf(`"R: A%d -> A%d"`, i, i+1)
	}
	sigmaJSON = "[" + strings.Join(members, ", ") + "]"
	goals = make([]string, n)
	for i := range goals {
		goals[i] = fmt.Sprintf("R: A0 -> A%d", 1+i%31)
	}
	return schemaJSON, sigmaJSON, goals
}

// BenchmarkBatchImplies is the batch-vs-sequential ablation: n goals
// answered by one POST /v1/batch against n separate POST /v1/implies,
// all against the same inline 32-attribute FD-chain schema with the
// cache off, so the comparison isolates what the batch endpoint
// amortizes — one parse, one compiled system, one warm engine pool per
// request instead of per goal. The sequential ns/op and the batch
// ns/goal metric are directly comparable; the acceptance bar is
// batch=100 at least 5x below sequential.
func BenchmarkBatchImplies(b *testing.B) {
	ts := benchServer(b, 0)
	b.Run("sequential", func(b *testing.B) {
		schemaJSON, sigmaJSON, goals := benchBatchInstance(100)
		bodies := make([]string, len(goals))
		for i, g := range goals {
			bodies[i] = fmt.Sprintf(`{"schema": %s, "sigma": %s, "goal": %q}`,
				schemaJSON, sigmaJSON, g)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchPost(b, ts.URL+"/v1/implies", bodies[i%len(bodies)])
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/goal")
	})
	for _, size := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			schemaJSON, sigmaJSON, goals := benchBatchInstance(size)
			quoted := make([]string, len(goals))
			for i, g := range goals {
				quoted[i] = fmt.Sprintf("%q", g)
			}
			body := fmt.Sprintf(`{"schema": %s, "sigma": %s, "goals": [%s]}`,
				schemaJSON, sigmaJSON, strings.Join(quoted, ", "))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchPost(b, ts.URL+"/v1/batch", body)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/goal")
		})
	}
}

// BenchmarkFootprintCache times the answer cache's serving hot path —
// the same /v1/implies request against a cold server (full engine run
// every time) and a warm one (footprint-keyed hit) — plus the
// cache-side cost of one tagged insert and its invalidation, and where
// the tag bookkeeping sits: evicting puts into a full cache at growing
// tag counts, and one member's invalidation sweep over a full cache of
// 121-tag entries.
func BenchmarkFootprintCache(b *testing.B) {
	schemaJSON, sigmaJSON, goals := benchBatchInstance(31)
	body := fmt.Sprintf(`{"schema": %s, "sigma": %s, "goal": %q}`,
		schemaJSON, sigmaJSON, goals[30])
	b.Run("uncached", func(b *testing.B) {
		ts := benchServer(b, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchPost(b, ts.URL+"/v1/implies", body)
		}
	})
	b.Run("cached", func(b *testing.B) {
		ts := benchServer(b, 1024)
		benchPost(b, ts.URL+"/v1/implies", body) // prime: every timed request hits
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchPost(b, ts.URL+"/v1/implies", body)
		}
	})
	b.Run("invalidate", func(b *testing.B) {
		cache := core.NewAnswerCache(4096, time.Hour, nil)
		val := core.CachedAnswer{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			key := fmt.Sprintf("k%d", i&1023)
			cache.PutTagged(key, val, []string{"m1", "m2"})
			if n := cache.InvalidateMembers("m1"); n != 1 {
				b.Fatalf("invalidated %d entries, want 1", n)
			}
		}
	})
	// fill puts distinct keys until every shard of the 1024-entry cache
	// is full, returning the next unused key index.
	fill := func(cache *core.AnswerCache, put func(j int)) int {
		j := 0
		for ; cache.Len() < 1024; j++ {
			put(j)
		}
		return j
	}
	for _, width := range []int{0, 21, 71, 121} {
		b.Run(fmt.Sprintf("put/tags=%d", width), func(b *testing.B) {
			var tags []string // one component's sorted keys, shared like AnswerTags'
			for t := 0; t < width; t++ {
				tags = append(tags, fmt.Sprintf("m%03d", t))
			}
			keys := make([]string, 1<<14)
			for i := range keys {
				keys[i] = fmt.Sprintf("k%d", i)
			}
			cache := core.NewAnswerCache(1024, 0, nil)
			next := fill(cache, func(j int) { cache.PutTagged(keys[j], core.CachedAnswer{}, tags) })
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Every key is absent (the cache holds 1024 of 16384), so
				// every put evicts.
				cache.PutTagged(keys[(next+i)%len(keys)], core.CachedAnswer{}, tags)
			}
		})
	}
	b.Run("sweep/tags=121", func(b *testing.B) {
		// 64 components of 121 members. Entry j holds its own slice of
		// component j%64's sorted keys (as AnswerTags hands each footprint
		// answer its own slice of the component's key strings), so one
		// changed member concerns every 64th entry.
		const comps, width = 64, 121
		keys := make([][]string, comps)
		for c := range keys {
			for t := 0; t < width; t++ {
				keys[c] = append(keys[c], fmt.Sprintf("c%02d/m%03d", c, t))
			}
		}
		cache := core.NewAnswerCache(1024, 0, nil)
		n := fill(cache, func(j int) {
			cache.PutTagged(fmt.Sprintf("k%d", j), core.CachedAnswer{}, slices.Clone(keys[j%comps]))
		})
		var doomed []string // component 0's entries still cached
		for j := 0; j < n; j += comps {
			if _, ok := cache.Get(fmt.Sprintf("k%d", j)); ok {
				doomed = append(doomed, fmt.Sprintf("k%d", j))
			}
		}
		refill := make([][]string, len(doomed))
		for i := range refill {
			refill[i] = slices.Clone(keys[0])
		}
		changed := keys[0][width/2]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := cache.InvalidateMembers(changed); got != len(doomed) {
				b.Fatalf("invalidated %d entries, want %d", got, len(doomed))
			}
			b.StopTimer()
			for d, k := range doomed {
				cache.PutTagged(k, core.CachedAnswer{}, refill[d])
			}
			b.StartTimer()
		}
	})
}
