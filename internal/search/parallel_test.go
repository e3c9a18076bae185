package search

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"log/slog"
	"runtime"
	"strings"
	"testing"

	"indfd/internal/data"
	"indfd/internal/deps"
	"indfd/internal/obs"
	"indfd/internal/schema"
)

// runAt runs Counterexample with GOMAXPROCS pinned to p. The search runs
// on its caller's goroutine, so p must change nothing.
func runAt(t *testing.T, p int, db *schema.Database, sigma []deps.Dependency, goal deps.Dependency, opt Options) (*data.Database, bool) {
	t.Helper()
	old := runtime.GOMAXPROCS(p)
	defer runtime.GOMAXPROCS(old)
	ce, found, err := Counterexample(db, sigma, goal, opt)
	if err != nil {
		t.Fatalf("GOMAXPROCS=%d: Counterexample: %v", p, err)
	}
	return ce, found
}

// twoRelations is R(A,B), S(C,D) with Σ = {R: A -> B, R[A] ⊆ S[C]} and
// the goal S: C -> D. Its first counterexample is the third candidate of
// the exhaustive order: R and S empty, then S = {(0,0)}, then S =
// {(0,0),(0,1)}.
func twoRelations() (*schema.Database, []deps.Dependency, deps.Dependency) {
	db := schema.MustDatabase(
		schema.MustScheme("R", "A", "B"),
		schema.MustScheme("S", "C", "D"),
	)
	sigma := []deps.Dependency{
		deps.NewFD("R", deps.Attrs("A"), deps.Attrs("B")),
		deps.NewIND("R", deps.Attrs("A"), "S", deps.Attrs("C")),
	}
	return db, sigma, deps.NewFD("S", deps.Attrs("C"), deps.Attrs("D"))
}

// TestExhaustiveDeterministicAcrossCPUs is the determinism contract for
// the exhaustive phase: the returned counterexample is the first
// candidate of the canonical enumeration, so GOMAXPROCS must not change
// it.
func TestExhaustiveDeterministicAcrossCPUs(t *testing.T) {
	db, sigma, goal := twoRelations()
	opt := Options{Domain: 2, MaxTuples: 2}
	const want = "R(A,B)\nS(C,D)\n  (0,0)\n  (0,1)"
	for _, p := range []int{1, 2, 8} {
		ce, found := runAt(t, p, db, sigma, goal, opt)
		if !found {
			t.Fatalf("GOMAXPROCS=%d: no counterexample", p)
		}
		if got := ce.String(); got != want {
			t.Errorf("GOMAXPROCS=%d drifted:\ngot:\n%s\nwant:\n%s", p, got, want)
		}
	}
}

// TestRandomDeterministicAcrossCPUs does the same for the random phase
// over several seeds: trial t draws from stream (Seed, t), so GOMAXPROCS
// must not change which database a given seed produces. The goldens are
// the databases the earlier worker-sharded search returned.
func TestRandomDeterministicAcrossCPUs(t *testing.T) {
	db := schema.MustDatabase(schema.MustScheme("R", "A", "B", "C", "D"))
	sigma := []deps.Dependency{deps.NewFD("R", deps.Attrs("A"), deps.Attrs("B"))}
	goal := deps.NewFD("R", deps.Attrs("B"), deps.Attrs("A"))
	golden := map[int64]string{
		1:     "R(A,B,C,D)\n  (0,1,1,1)\n  (1,1,0,0)\n  (1,1,0,1)",
		7:     "R(A,B,C,D)\n  (0,0,1,0)\n  (1,0,1,1)",
		42:    "R(A,B,C,D)\n  (0,0,1,1)\n  (1,0,0,1)",
		31337: "R(A,B,C,D)\n  (0,1,0,0)\n  (1,1,0,1)",
	}
	for seed, want := range golden {
		opt := Options{Domain: 2, MaxTuples: 3, RandomTrials: 400, Seed: seed, MaxExhaustive: 1}
		for _, p := range []int{1, 2, 8} {
			ce, found := runAt(t, p, db, sigma, goal, opt)
			got := "<miss>"
			if found {
				got = ce.String()
			}
			if got != want {
				t.Errorf("seed %d, GOMAXPROCS=%d drifted:\ngot:\n%s\nwant:\n%s", seed, p, got, want)
			}
		}
	}
}

// TestSearchCountsExact: the work counters count exactly the candidates
// the canonical order visits before its first hit, on every run and at
// any GOMAXPROCS.
func TestSearchCountsExact(t *testing.T) {
	db, sigma, goal := twoRelations()
	for _, p := range []int{1, 2, 8} {
		for run := 0; run < 50; run++ {
			reg := obs.New()
			opt := Options{Domain: 3, MaxTuples: 3, RandomTrials: 300, Obs: reg}
			if _, found := runAt(t, p, db, sigma, goal, opt); !found {
				t.Fatalf("GOMAXPROCS=%d run %d: no counterexample", p, run)
			}
			c := reg.Snapshot().Counters
			if c["search.checks"] != 3 || c["search.databases_enumerated"] != 3 || c["search.random_trials"] != 0 {
				t.Fatalf("GOMAXPROCS=%d run %d: checks %d, databases_enumerated %d, random_trials %d; want 3, 3, 0",
					p, run, c["search.checks"], c["search.databases_enumerated"], c["search.random_trials"])
			}
		}
	}
}

// visitOrder runs the exhaustive enumerator over one unary relation with
// universe {0, 1, 2} and returns each visited subset, rendered as its
// values, until hit reports true.
func visitOrder(maxTuples int, hit func(n int) bool) []string {
	s := &searcher{
		db:        schema.MustDatabase(schema.MustScheme("R", "A")),
		names:     []string{"R"},
		universes: [][]data.Tuple{{{"0"}, {"1"}, {"2"}}},
		choice:    make([][]data.Tuple, 1),
		maxTuples: maxTuples,
	}
	var got []string
	s.check = func(*data.Database) (bool, error) {
		v := ""
		for _, tp := range s.choice[0] {
			v += string(tp[0])
		}
		got = append(got, v)
		return hit(len(got)), nil
	}
	s.enumerate(0)
	return got
}

// TestSubsetsPreorderMatchesSerialOrder pins the canonical enumeration
// order the determinism contract is defined against: each subset comes
// before its extensions, extensions are by increasing universe index.
func TestSubsetsPreorderMatchesSerialOrder(t *testing.T) {
	got := visitOrder(2, func(int) bool { return false })
	want := []string{"", "0", "01", "02", "1", "12", "2"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("preorder = %v, want %v", got, want)
	}
}

// TestSubsetsPreorderStops checks that the enumeration stops at its
// first hit.
func TestSubsetsPreorderStops(t *testing.T) {
	got := visitOrder(3, func(n int) bool { return n == 3 })
	if want := []string{"", "0", "01"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("visited %v, want %v (stop at the third candidate)", got, want)
	}
}

// TestExhaustiveSkippedCounter: a space beyond MaxExhaustive must
// increment search.exhaustive_skipped, mark the span and log one warning
// through the default logger.
func TestExhaustiveSkippedCounter(t *testing.T) {
	var logged bytes.Buffer
	oldLogger, oldOut, oldFlags := slog.Default(), log.Writer(), log.Flags()
	slog.SetDefault(slog.New(slog.NewJSONHandler(&logged, nil)))
	defer func() {
		// Restoring slog's default handler leaves the log package writing
		// through the replaced one; restore that too.
		slog.SetDefault(oldLogger)
		log.SetOutput(oldOut)
		log.SetFlags(oldFlags)
	}()

	reg := obs.New()
	root := reg.StartSpan("root")
	db := schema.MustDatabase(schema.MustScheme("R", "A", "B"))
	goal := deps.NewFD("R", deps.Attrs("A"), deps.Attrs("B"))
	_, _, err := Counterexample(db, nil, goal, Options{
		Domain: 2, MaxTuples: 2, MaxExhaustive: 1, RandomTrials: 5, Obs: reg, Span: root,
	})
	if err != nil {
		t.Fatalf("Counterexample: %v", err)
	}
	s := reg.Snapshot()
	if s.Counters["search.exhaustive_skipped"] != 1 {
		t.Errorf("search.exhaustive_skipped = %d, want 1", s.Counters["search.exhaustive_skipped"])
	}
	if s.Counters["search.databases_enumerated"] != 0 {
		t.Errorf("skipped phase still enumerated %d databases", s.Counters["search.databases_enumerated"])
	}
	var skipped bool
	for _, sp := range root.Children {
		for _, a := range sp.Attrs {
			if a.Key == "exhaustive_skipped" && a.Value == "true" {
				skipped = true
			}
		}
	}
	if !skipped {
		t.Errorf("span not marked exhaustive_skipped: %+v", root.Children)
	}
	lines := strings.Split(strings.TrimSpace(logged.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("default logger got %d records, want 1:\n%s", len(lines), logged.String())
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("record is not JSON: %v\n%s", err, lines[0])
	}
	if rec["level"] != "WARN" {
		t.Errorf("level = %v, want WARN", rec["level"])
	}
	for _, k := range []string{"space", "max_exhaustive"} {
		if _, ok := rec[k]; !ok {
			t.Errorf("warning lacks %q: %s", k, lines[0])
		}
	}
}

// TestExhaustiveNotSkippedCounterAbsent: within the bound, the skip
// counter must stay untouched.
func TestExhaustiveNotSkippedCounterAbsent(t *testing.T) {
	reg := obs.New()
	db := schema.MustDatabase(schema.MustScheme("R", "A", "B"))
	goal := deps.NewFD("R", deps.Attrs("A"), deps.Attrs("B"))
	_, found, err := Counterexample(db, nil, goal, Options{Domain: 2, MaxTuples: 2, Obs: reg})
	if err != nil || !found {
		t.Fatalf("found=%v err=%v", found, err)
	}
	if n := reg.Snapshot().Counters["search.exhaustive_skipped"]; n != 0 {
		t.Errorf("search.exhaustive_skipped = %d, want 0", n)
	}
}

// TestParallelCancellation: a pre-cancelled context aborts the search
// with the context's error before it tests a candidate.
func TestParallelCancellation(t *testing.T) {
	db := schema.MustDatabase(schema.MustScheme("R", "A", "B", "C"))
	goal := deps.NewIND("R", deps.Attrs("A"), "R", deps.Attrs("A"))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, found, err := Counterexample(db, nil, goal, Options{
		Domain: 3, MaxTuples: 3, RandomTrials: 100, Ctx: ctx,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if found {
		t.Errorf("cancelled search claimed a hit")
	}
}

// TestParallelAgreesWithExpectedWinner: on a space where several
// counterexamples exist, the search must return the canonical
// enumeration's first, not just any, at any GOMAXPROCS.
func TestParallelAgreesWithExpectedWinner(t *testing.T) {
	db := schema.MustDatabase(schema.MustScheme("R", "A", "B"))
	goal := deps.NewFD("R", deps.Attrs("A"), deps.Attrs("B"))
	const want = "R(A,B)\n  (0,0)\n  (0,1)"
	for _, p := range []int{1, 2, 8} {
		ce, found := runAt(t, p, db, nil, goal, Options{Domain: 3, MaxTuples: 3})
		if !found {
			t.Fatalf("GOMAXPROCS=%d: no counterexample", p)
		}
		if got := ce.String(); got != want {
			t.Errorf("GOMAXPROCS=%d returned a different counterexample:\ngot:\n%s\nwant:\n%s", p, got, want)
		}
	}
}
