// Package search implements bounded exhaustive and randomized search for
// finite counterexample databases: given Σ and a goal, it looks for a
// finite database satisfying Σ and violating the goal. A hit refutes both
// finite and unrestricted implication; exhausting the bounded space proves
// nothing (the paper's Section 6 witnesses show finite implication can
// hold while unrestricted fails, and undecidability rules out any complete
// search). The core facade uses this as a refutation fallback when the
// chase diverges.
//
// A search runs on its caller's goroutine and visits candidates in one
// fixed order, so for fixed Options the returned database and every
// search.* counter are the same on every run:
//
//   - Exhaustive phase: relation 0's tuple subsets of at most MaxTuples
//     members in pre-order (each subset before its extensions by later
//     tuples), and under each of them the later relations' subsets the
//     same way, depth-first. The first hit wins.
//   - Random phase: trials 0, 1, ... in order, trial t drawing from the
//     PCG stream (Seed, t). The first hit wins.
package search

import (
	"context"
	"log/slog"
	"math/rand/v2"
	"strconv"

	"indfd/internal/data"
	"indfd/internal/deps"
	"indfd/internal/obs"
	"indfd/internal/schema"
)

// Options bounds a search.
type Options struct {
	// Domain is the number of distinct values (default 3).
	Domain int
	// MaxTuples bounds tuples per relation in exhaustive search
	// (default 3) and sets the tuple count in random search.
	MaxTuples int
	// RandomTrials is the number of random databases to try after (or
	// instead of) exhaustive search; 0 disables random search.
	RandomTrials int
	// Seed seeds the random search (0 uses a fixed default, keeping runs
	// deterministic: the PCG generator of math/rand/v2 produces the same
	// sequence for the same seed on every platform and Go release).
	Seed int64
	// MaxExhaustive bounds the number of databases the exhaustive phase
	// may enumerate; beyond it the phase is skipped (default 1 << 22).
	// A skip is loud: it increments search.exhaustive_skipped and logs a
	// warning through slog.Default(), because a miss of a truncated
	// search proves nothing about the bounded space.
	MaxExhaustive int
	// Obs, when non-nil, receives the search's work counters under the
	// "search." namespace (databases enumerated, random trials,
	// satisfaction checks). A nil registry costs nothing.
	Obs *obs.Registry
	// Span, when non-nil, parents the search's span; with Span nil the
	// search opens no span.
	Span *obs.Span
	// Ctx, when non-nil, is checked before every candidate database is
	// tested; a cancelled or expired context aborts the search with the
	// context's error. A nil Ctx never cancels.
	Ctx context.Context
}

func (o Options) withDefaults() Options {
	if o.Domain <= 0 {
		o.Domain = 3
	}
	if o.MaxTuples <= 0 {
		o.MaxTuples = 3
	}
	if o.MaxExhaustive <= 0 {
		o.MaxExhaustive = 1 << 22
	}
	return o
}

// Counterexample searches for a finite database over db satisfying every
// member of sigma and violating goal. It returns the database and
// found=true on a hit; found=false means the bounded search space held no
// counterexample (NOT that the implication holds).
func Counterexample(db *schema.Database, sigma []deps.Dependency, goal deps.Dependency, opt Options) (*data.Database, bool, error) {
	opt = opt.withDefaults()
	if err := goal.Validate(db); err != nil {
		return nil, false, err
	}
	for _, d := range sigma {
		if err := d.Validate(db); err != nil {
			return nil, false, err
		}
	}
	sp := opt.Span.StartSpan("search")
	defer sp.End()
	cChecks := opt.Obs.Counter("search.checks")
	cEnumerated := opt.Obs.Counter("search.databases_enumerated")
	cTrials := opt.Obs.Counter("search.random_trials")
	cHits := opt.Obs.Counter("search.hits")
	check := func(cand *data.Database) (bool, error) {
		if opt.Ctx != nil {
			if err := opt.Ctx.Err(); err != nil {
				return false, err
			}
		}
		cChecks.Inc()
		ok, _, err := cand.SatisfiesAll(sigma)
		if err != nil || !ok {
			return false, err
		}
		sat, err := cand.Satisfies(goal)
		if err != nil {
			return false, err
		}
		return !sat, nil
	}

	names := db.Names()
	universes := make([][]data.Tuple, len(names))
	total := 1.0
	for i, name := range names {
		s, _ := db.Scheme(name)
		universes[i] = allTuples(s.Width(), opt.Domain)
		subsets := 0
		n := len(universes[i])
		// Count subsets of size ≤ MaxTuples (approximately; used only to
		// decide whether exhaustive search is feasible).
		c := 1
		for size := 0; size <= opt.MaxTuples && size <= n; size++ {
			subsets += c
			c = c * (n - size) / (size + 1)
		}
		total *= float64(subsets)
	}
	s := &searcher{db: db, names: names, universes: universes,
		choice: make([][]data.Tuple, len(names)), maxTuples: opt.MaxTuples}

	// Exhaustive phase: enumerate tuple subsets per relation, with at most
	// MaxTuples tuples each, over the value domain.
	if total <= float64(opt.MaxExhaustive) {
		exSp := sp.StartSpan("search.exhaustive")
		s.check = func(cand *data.Database) (bool, error) {
			cEnumerated.Inc()
			return check(cand)
		}
		cand, found, err := s.enumerate(0)
		exSp.End()
		if err != nil {
			return nil, false, err
		}
		if found {
			cHits.Inc()
			return cand, true, nil
		}
	} else {
		// A silently skipped phase would make a miss read as "no
		// counterexample exists within the bound" when the space was
		// never scanned; say so, loudly and measurably.
		opt.Obs.Counter("search.exhaustive_skipped").Inc()
		sp.SetAttr("exhaustive_skipped", "true")
		slog.Warn("search: exhaustive phase skipped, space exceeds MaxExhaustive; a miss no longer proves the bounded space is clear",
			"space", total, "max_exhaustive", opt.MaxExhaustive,
			"domain", opt.Domain, "max_tuples", opt.MaxTuples)
	}

	// Random phase: trial t's candidate is a pure function of (Seed, t).
	if opt.RandomTrials > 0 {
		rndSp := sp.StartSpan("search.random")
		defer rndSp.End()
		seed := opt.Seed
		if seed == 0 {
			seed = 1
		}
		s.check = check
		cand, trial, found, err := s.random(seed, opt.RandomTrials, cTrials.Inc)
		if err != nil {
			return nil, false, err
		}
		if found {
			cHits.Inc()
			rndSp.SetInt("trials", int64(trial+1))
			return cand, true, nil
		}
	}
	return nil, false, nil
}

// searcher carries the inputs both phases share and the exhaustive
// phase's current choice of tuples per relation.
type searcher struct {
	db        *schema.Database
	names     []string
	universes [][]data.Tuple
	choice    [][]data.Tuple
	maxTuples int
	// check reports whether a candidate is a counterexample (satisfies Σ,
	// violates the goal).
	check func(*data.Database) (bool, error)
}

// enumerate holds relations 0..rel-1 at their current choice, enumerates
// every subset of at most maxTuples tuples for relations rel..n-1 in the
// package doc's order, and returns the first counterexample.
func (s *searcher) enumerate(rel int) (*data.Database, bool, error) {
	if rel == len(s.names) {
		cand := data.NewDatabase(s.db)
		for i, name := range s.names {
			for _, t := range s.choice[i] {
				cand.MustInsert(name, t)
			}
		}
		ok, err := s.check(cand)
		if err != nil || !ok {
			return nil, false, err
		}
		return cand, true, nil
	}
	return s.extend(rel, 0, s.maxTuples)
}

// extend tries relation rel's current choice under every choice of the
// later relations, then each extension of it by one tuple at or after
// universe index start, while left more tuples fit.
func (s *searcher) extend(rel, start, left int) (*data.Database, bool, error) {
	if cand, found, err := s.enumerate(rel + 1); err != nil || found {
		return cand, found, err
	}
	if left == 0 {
		return nil, false, nil
	}
	universe := s.universes[rel]
	for i := start; i < len(universe); i++ {
		s.choice[rel] = append(s.choice[rel], universe[i])
		cand, found, err := s.extend(rel, i+1, left-1)
		s.choice[rel] = s.choice[rel][:len(s.choice[rel])-1]
		if err != nil || found {
			return cand, found, err
		}
	}
	return nil, false, nil
}

// random runs trials 0..trials-1 in order and returns the first
// counterexample with its trial index. Trial t draws from the PCG stream
// (seed, t): one source, reseeded per trial, so a trial's candidate
// depends on nothing but seed and t. onTrial is invoked once per trial
// generated (the work counter).
func (s *searcher) random(seed int64, trials int, onTrial func()) (*data.Database, int, bool, error) {
	src := rand.NewPCG(uint64(seed), 0)
	r := rand.New(src)
	for t := 0; t < trials; t++ {
		onTrial()
		src.Seed(uint64(seed), uint64(t))
		cand := data.NewDatabase(s.db)
		for i, name := range s.names {
			n := r.IntN(s.maxTuples + 1)
			for j := 0; j < n; j++ {
				cand.MustInsert(name, s.universes[i][r.IntN(len(s.universes[i]))])
			}
		}
		ok, err := s.check(cand)
		if err != nil {
			return nil, 0, false, err
		}
		if ok {
			return cand, t, true, nil
		}
	}
	return nil, 0, false, nil
}

// allTuples enumerates every tuple of the given width over the domain
// {0, ..., domain-1}.
func allTuples(width, domain int) []data.Tuple {
	var out []data.Tuple
	t := make([]int, width)
	var rec func(i int)
	rec = func(i int) {
		if i == width {
			row := make(data.Tuple, width)
			for j, v := range t {
				row[j] = data.Value(strconv.Itoa(v))
			}
			out = append(out, row)
			return
		}
		for v := 0; v < domain; v++ {
			t[i] = v
			rec(i + 1)
		}
	}
	rec(0)
	return out
}
