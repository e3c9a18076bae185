// Package search implements bounded exhaustive and randomized search for
// finite counterexample databases: given Σ and a goal, it looks for a
// finite database satisfying Σ and violating the goal. A hit refutes both
// finite and unrestricted implication; exhausting the bounded space proves
// nothing (the paper's Section 6 witnesses show finite implication can
// hold while unrestricted fails, and undecidability rules out any complete
// search). The core facade uses this as a refutation fallback when the
// chase diverges.
package search

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"

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
	// warning, because a miss of a truncated search proves nothing about
	// the bounded space.
	MaxExhaustive int
	// Workers is the number of goroutines each phase shards its
	// candidates across (0 = runtime.GOMAXPROCS(0), 1 = serial). The
	// result is bit-identical at any worker count: candidates carry
	// canonical indexes and the lowest-index hit wins — see parallel.go
	// for the determinism contract.
	Workers int
	// Logger receives the exhaustive-phase-skipped warning; nil uses
	// slog.Default().
	Logger *slog.Logger
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

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
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
	eng := &searcher{db: db, names: names, universes: universes,
		maxTuples: opt.MaxTuples, workers: workers}

	// Exhaustive phase: enumerate tuple subsets per relation, with at most
	// MaxTuples tuples each, over the value domain, sharded across the
	// workers (lowest-index hit wins; see parallel.go).
	if total <= float64(opt.MaxExhaustive) {
		exSp := sp.StartSpan("search.exhaustive")
		exSp.SetInt("workers", int64(workers))
		eng.check = func(cand *data.Database) (bool, error) {
			cEnumerated.Inc()
			return check(cand)
		}
		cand, found, err := eng.exhaustive()
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
		logger := opt.Logger
		if logger == nil {
			logger = slog.Default()
		}
		logger.Warn("search: exhaustive phase skipped, space exceeds MaxExhaustive; a miss no longer proves the bounded space is clear",
			"space", total, "max_exhaustive", opt.MaxExhaustive,
			"domain", opt.Domain, "max_tuples", opt.MaxTuples)
	}

	// Random phase: per-trial PCG streams keep trial t's candidate a pure
	// function of (Seed, t) at any worker count.
	if opt.RandomTrials > 0 {
		rndSp := sp.StartSpan("search.random")
		defer rndSp.End()
		rndSp.SetInt("workers", int64(workers))
		seed := opt.Seed
		if seed == 0 {
			seed = 1
		}
		eng.check = check
		cand, trial, found, err := eng.random(seed, opt.RandomTrials, cTrials.Inc)
		if err != nil {
			return nil, false, err
		}
		if found {
			cHits.Inc()
			rndSp.SetInt("trials", trial+1)
			return cand, true, nil
		}
	}
	return nil, false, nil
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
				row[j] = data.Value(fmt.Sprintf("%d", v))
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
