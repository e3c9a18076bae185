package search

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"indfd/internal/data"
	"indfd/internal/deps"
	"indfd/internal/obs"
	"indfd/internal/schema"
)

// runAt runs Counterexample with GOMAXPROCS pinned to p (and Workers
// unset, so the search derives its worker count from it, as production
// callers do).
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

// TestExhaustiveDeterministicAcrossCPUs is the determinism contract for
// the exhaustive phase: the returned counterexample is the lowest-index
// candidate of the canonical enumeration, so GOMAXPROCS must not change
// it.
func TestExhaustiveDeterministicAcrossCPUs(t *testing.T) {
	db := schema.MustDatabase(
		schema.MustScheme("R", "A", "B"),
		schema.MustScheme("S", "C", "D"),
	)
	sigma := []deps.Dependency{
		deps.NewFD("R", deps.Attrs("A"), deps.Attrs("B")),
		deps.NewIND("R", deps.Attrs("A"), "S", deps.Attrs("C")),
	}
	goal := deps.NewFD("S", deps.Attrs("C"), deps.Attrs("D"))
	opt := Options{Domain: 2, MaxTuples: 2}

	var want string
	for _, p := range []int{1, 2, 8} {
		ce, found := runAt(t, p, db, sigma, goal, opt)
		if !found {
			t.Fatalf("GOMAXPROCS=%d: no counterexample", p)
		}
		got := ce.String()
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("GOMAXPROCS=%d drifted:\ngot:\n%s\nwant:\n%s", p, got, want)
		}
	}
}

// TestRandomDeterministicAcrossCPUs does the same for the random phase
// over several seeds: trial t draws from stream (Seed, t), so worker
// count must not change which database a given seed produces.
func TestRandomDeterministicAcrossCPUs(t *testing.T) {
	db := schema.MustDatabase(schema.MustScheme("R", "A", "B", "C", "D"))
	sigma := []deps.Dependency{deps.NewFD("R", deps.Attrs("A"), deps.Attrs("B"))}
	goal := deps.NewFD("R", deps.Attrs("B"), deps.Attrs("A"))
	for _, seed := range []int64{1, 7, 42, 31337} {
		opt := Options{Domain: 2, MaxTuples: 3, RandomTrials: 400, Seed: seed, MaxExhaustive: 1}
		var want string
		for _, p := range []int{1, 2, 8} {
			ce, found := runAt(t, p, db, sigma, goal, opt)
			got := "<miss>"
			if found {
				got = ce.String()
			}
			if want == "" {
				want = got
				continue
			}
			if got != want {
				t.Errorf("seed %d, GOMAXPROCS=%d drifted:\ngot:\n%s\nwant:\n%s", seed, p, got, want)
			}
		}
	}
}

// TestWorkersOptionDeterministic pins the explicit Workers knob: a
// serial run and heavily oversubscribed runs must agree exactly.
func TestWorkersOptionDeterministic(t *testing.T) {
	db := schema.MustDatabase(schema.MustScheme("R", "A", "B"))
	sigma := []deps.Dependency{deps.NewFD("R", deps.Attrs("A"), deps.Attrs("B"))}
	goal := deps.NewFD("R", deps.Attrs("B"), deps.Attrs("A"))
	var want string
	for _, w := range []int{1, 2, 3, 16} {
		ce, found, err := Counterexample(db, sigma, goal, Options{Domain: 2, MaxTuples: 3, Workers: w})
		if err != nil || !found {
			t.Fatalf("Workers=%d: found=%v err=%v", w, found, err)
		}
		if want == "" {
			want = ce.String()
		} else if got := ce.String(); got != want {
			t.Errorf("Workers=%d drifted:\ngot:\n%s\nwant:\n%s", w, got, want)
		}
	}
}

// TestSubsetsPreorderMatchesSerialOrder pins the canonical enumeration
// order the determinism contract is defined against: each subset comes
// before its extensions, extensions are by increasing universe index.
func TestSubsetsPreorderMatchesSerialOrder(t *testing.T) {
	universe := []data.Tuple{{"0"}, {"1"}, {"2"}}
	var got []string
	subsetsPreorder(universe, 2, func(idx int64, subset []data.Tuple) bool {
		if idx != int64(len(got)) {
			t.Fatalf("idx %d out of order (have %d items)", idx, len(got))
		}
		s := ""
		for _, tp := range subset {
			s += string(tp[0])
		}
		got = append(got, s)
		return true
	})
	want := []string{"", "0", "01", "02", "1", "12", "2"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("preorder = %v, want %v", got, want)
	}
}

// TestSubsetsPreorderStops checks the early-stop path the best-index
// pruning relies on.
func TestSubsetsPreorderStops(t *testing.T) {
	universe := []data.Tuple{{"0"}, {"1"}, {"2"}}
	calls := 0
	subsetsPreorder(universe, 3, func(idx int64, subset []data.Tuple) bool {
		calls++
		return idx < 2
	})
	if calls != 3 {
		t.Errorf("emit called %d times, want 3 (stop after idx 2)", calls)
	}
}

// TestExhaustiveSkippedCounter: a space beyond MaxExhaustive must
// increment search.exhaustive_skipped and mark the span.
func TestExhaustiveSkippedCounter(t *testing.T) {
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

// TestParallelCancellation: a pre-cancelled context aborts the parallel
// search with the context's error from every phase.
func TestParallelCancellation(t *testing.T) {
	db := schema.MustDatabase(schema.MustScheme("R", "A", "B", "C"))
	goal := deps.NewIND("R", deps.Attrs("A"), "R", deps.Attrs("A"))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, found, err := Counterexample(db, nil, goal, Options{
		Domain: 3, MaxTuples: 3, RandomTrials: 100, Ctx: ctx, Workers: 4,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if found {
		t.Errorf("cancelled search claimed a hit")
	}
}

// TestParallelAgreesWithExpectedWinner: on a space where several
// counterexamples exist, the parallel search must return the serial
// enumeration's first, not just any.
func TestParallelAgreesWithExpectedWinner(t *testing.T) {
	db := schema.MustDatabase(schema.MustScheme("R", "A", "B"))
	goal := deps.NewFD("R", deps.Attrs("A"), deps.Attrs("B"))
	// Serial reference at Workers=1.
	ref, found, err := Counterexample(db, nil, goal, Options{Domain: 3, MaxTuples: 3, Workers: 1})
	if err != nil || !found {
		t.Fatalf("serial: found=%v err=%v", found, err)
	}
	for _, w := range []int{2, 4, 8} {
		ce, found, err := Counterexample(db, nil, goal, Options{Domain: 3, MaxTuples: 3, Workers: w})
		if err != nil || !found {
			t.Fatalf("Workers=%d: found=%v err=%v", w, found, err)
		}
		if ce.String() != ref.String() {
			t.Errorf("Workers=%d returned a different counterexample:\ngot:\n%s\nwant:\n%s", w, ce.String(), ref.String())
		}
	}
}
