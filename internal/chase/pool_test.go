package chase

// Pinning of the cross-request engine pool: recycled engines must be
// observably indistinguishable from freshly compiled ones, warm reuse
// must be allocation-free, engines killed mid-run must be poisoned
// (never re-pooled), and the fingerprint must never hand out an engine
// compiled for a different schema or sigma.

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"indfd/internal/data"
	"indfd/internal/deps"
	"indfd/internal/obs"
	"indfd/internal/schema"
)

func prop41Fixture() (*schema.Database, []deps.Dependency) {
	db := schema.MustDatabase(
		schema.MustScheme("R", "X", "Y"),
		schema.MustScheme("S", "T", "U"),
	)
	sigma := []deps.Dependency{
		deps.NewIND("R", deps.Attrs("X", "Y"), "S", deps.Attrs("T", "U")),
		deps.NewFD("S", deps.Attrs("T"), deps.Attrs("U")),
	}
	return db, sigma
}

// TestPoolReuseDifferential runs a mixed goal workload repeatedly
// through one pool and requires every pooled run to be byte-identical
// to an unpooled run of the same instance — verdicts, traces,
// counterexamples, rounds, tuples.
func TestPoolReuseDifferential(t *testing.T) {
	db, sigma := prop41Fixture()
	goals := []deps.Dependency{
		deps.NewFD("R", deps.Attrs("X"), deps.Attrs("Y")),
		deps.NewRD("R", deps.Attrs("X"), deps.Attrs("Y")),
		deps.NewFD("S", deps.Attrs("U"), deps.Attrs("T")),
		deps.NewIND("R", deps.Attrs("X"), "S", deps.Attrs("T")),
	}
	reg := obs.New()
	pool := NewEnginePool(reg)
	runs := 0
	for rep := 0; rep < 5; rep++ {
		for gi, goal := range goals {
			label := fmt.Sprintf("rep %d goal %d", rep, gi)
			got, gotErr := Implies(db, sigma, goal, Options{Pool: pool, Trace: true})
			want, wantErr := Implies(db, sigma, goal, Options{Trace: true})
			compareResults(t, label, got, gotErr, want, wantErr)
			runs++
		}
	}
	hits := reg.Counter("pool.hits").Value()
	misses := reg.Counter("pool.misses").Value()
	if misses != 1 {
		t.Errorf("pool.misses = %d, want 1 (one compile for the shared (schema, sigma) shape)", misses)
	}
	if hits != int64(runs-1) {
		t.Errorf("pool.hits = %d, want %d", hits, runs-1)
	}
	if d := reg.Counter("pool.discards").Value(); d != 0 {
		t.Errorf("pool.discards = %d on an error-free workload", d)
	}
}

// TestPoolDiscardsCancelledEngines is the poisoning regression test: a
// chase killed mid-round by its context must never be re-pooled, and
// requests after the kill must still be answered correctly. It hammers
// the pool with alternating doomed and healthy runs.
func TestPoolDiscardsCancelledEngines(t *testing.T) {
	dbDiv, sigmaDiv, goalDiv := divergentInstance()
	db, sigma := prop41Fixture()
	goal := deps.NewFD("R", deps.Attrs("X"), deps.Attrs("Y"))

	reg := obs.New()
	pool := NewEnginePool(reg)
	dead, cancel := context.WithCancel(context.Background())
	cancel()

	kills := 0
	for i := 0; i < 50; i++ {
		// A divergent chase under an already-cancelled context: killed in
		// its first round, engine poisoned.
		_, err := Implies(dbDiv, sigmaDiv, goalDiv, Options{Pool: pool, Ctx: dead})
		if err == nil {
			t.Fatal("cancelled divergent chase returned no error")
		}
		kills++
		// A healthy request right after must be unaffected.
		got, gotErr := Implies(db, sigma, goal, Options{Pool: pool, Trace: true})
		want, wantErr := Implies(db, sigma, goal, Options{Trace: true})
		compareResults(t, fmt.Sprintf("after kill %d", i), got, gotErr, want, wantErr)
		// And a healthy run of the divergent shape itself (fresh compile
		// each time: its predecessor was discarded, never re-pooled).
		gotD, gotDErr := Implies(dbDiv, sigmaDiv, goalDiv, Options{Pool: pool, MaxTuples: 64, Trace: true})
		wantD, wantDErr := Implies(dbDiv, sigmaDiv, goalDiv, Options{MaxTuples: 64, Trace: true})
		compareResults(t, fmt.Sprintf("divergent after kill %d", i), gotD, gotDErr, wantD, wantDErr)
	}
	if d := reg.Counter("pool.discards").Value(); d != int64(kills) {
		t.Errorf("pool.discards = %d, want %d (one per kill)", d, kills)
	}
}

// TestPoolBudgetExhaustionReusable pins the other half of the poisoning
// rule: budget exhaustion is a verdict, not an error, so the engine is
// reset and re-pooled — and the recycled engine answers the next
// request byte-identically.
func TestPoolBudgetExhaustionReusable(t *testing.T) {
	dbDiv, sigmaDiv, goalDiv := divergentInstance()
	reg := obs.New()
	pool := NewEnginePool(reg)
	for i := 0; i < 3; i++ {
		got, gotErr := Implies(dbDiv, sigmaDiv, goalDiv, Options{Pool: pool, MaxTuples: 64, Trace: true})
		want, wantErr := Implies(dbDiv, sigmaDiv, goalDiv, Options{MaxTuples: 64, Trace: true})
		compareResults(t, fmt.Sprintf("run %d", i), got, gotErr, want, wantErr)
	}
	if d := reg.Counter("pool.discards").Value(); d != 0 {
		t.Errorf("pool.discards = %d; budget exhaustion must re-pool, not poison", d)
	}
	if h := reg.Counter("pool.hits").Value(); h != 2 {
		t.Errorf("pool.hits = %d, want 2", h)
	}
}

// TestPoolMatchesRejectsOtherShapes unit-tests the collision guard: an
// engine must only match the exact schema and sigma it was compiled
// from, field by field.
func TestPoolMatchesRejectsOtherShapes(t *testing.T) {
	db, sigma := prop41Fixture()
	e, err := newEngine(db, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if !e.matches(db, sigma) {
		t.Fatal("engine does not match its own compilation inputs")
	}
	otherRel := schema.MustDatabase(
		schema.MustScheme("R2", "X", "Y"),
		schema.MustScheme("S", "T", "U"),
	)
	otherAttrs := schema.MustDatabase(
		schema.MustScheme("R", "X", "Z"),
		schema.MustScheme("S", "T", "U"),
	)
	if e.matches(otherRel, sigma) {
		t.Error("matched a database with a different relation name")
	}
	if e.matches(otherAttrs, sigma) {
		t.Error("matched a database with different attributes")
	}
	if e.matches(db, sigma[:1]) {
		t.Error("matched a shorter sigma")
	}
	if e.matches(db, []deps.Dependency{sigma[1], sigma[0]}) {
		t.Error("matched a reordered sigma (compile order differs)")
	}
	swapped := []deps.Dependency{
		sigma[0],
		deps.NewFD("S", deps.Attrs("U"), deps.Attrs("T")),
	}
	if e.matches(db, swapped) {
		t.Error("matched a sigma with different FD columns")
	}
}

// TestPoolWarmRunAllocFree pins the pooled steady state at the chase
// layer: with instrumentation off, a warm implication request on a
// cached (schema, sigma) shape performs zero allocations.
func TestPoolWarmRunAllocFree(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	db, sigma := prop41Fixture()
	goal := deps.NewFD("R", deps.Attrs("X"), deps.Attrs("Y"))
	pool := NewEnginePool(nil)
	opt := Options{Pool: pool}
	// Prime: first run compiles and grows every arena to its high-water
	// mark; subsequent runs reuse all of it.
	if _, err := ImpliesFD(db, sigma, goal, opt); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		if _, err := ImpliesFD(db, sigma, goal, opt); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("warm pooled implication allocates %.1f/run, want 0", got)
	}
}

// TestPoolSurvivesGC: idle engines are held by the pool itself, not by
// a sync.Pool, so a garbage collection between two runs of one shape
// does not cost the second run its warm engine.
func TestPoolSurvivesGC(t *testing.T) {
	db, sigma := prop41Fixture()
	goal := deps.NewFD("R", deps.Attrs("X"), deps.Attrs("Y"))
	reg := obs.New()
	pool := NewEnginePool(reg)
	if _, err := ImpliesFD(db, sigma, goal, Options{Pool: pool}); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	if _, err := ImpliesFD(db, sigma, goal, Options{Pool: pool}); err != nil {
		t.Fatal(err)
	}
	if h := reg.Counter("pool.hits").Value(); h != 1 {
		t.Errorf("pool.hits = %d after a GC, want 1 (the idle engine must survive collection)", h)
	}
}

// probeKey keys the value TestPoolIdleEngineDropsContext hangs on a
// run's context.
type probeKey struct{}

// TestPoolIdleEngineDropsContext: an idle pooled engine keeps nothing
// of its last run's context. A value reachable only from that context —
// in depserve, the request's flight-recorder draft and its span tree —
// must be collectable once the run has returned, while the engine that
// ran it sits in the pool.
func TestPoolIdleEngineDropsContext(t *testing.T) {
	db, sigma := prop41Fixture()
	goal := deps.NewFD("R", deps.Attrs("X"), deps.Attrs("Y"))
	pool := NewEnginePool(obs.New())
	collected := make(chan struct{})
	func() {
		probe := &[64]byte{}
		runtime.SetFinalizer(probe, func(*[64]byte) { close(collected) })
		ctx, cancel := context.WithCancel(context.WithValue(context.Background(), probeKey{}, probe))
		defer cancel()
		if _, err := ImpliesFD(db, sigma, goal, Options{Pool: pool, Ctx: ctx}); err != nil {
			t.Fatal(err)
		}
	}()
	pool.mu.Lock()
	idle := pool.idle
	pool.mu.Unlock()
	if idle != 1 {
		t.Fatalf("%d idle engines after the run, want 1", idle)
	}
	for range 10 {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(pool)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Error("a value reachable only from a finished run's context was never collected: the idle engine holds the context")
}

// TestPoolFDGroupGenerationWrap: an FD pass stamps each X-group it
// meets with the pass's generation, which a pooled engine never resets,
// so it wraps. A run whose first pass lands on generation 0 must answer
// exactly as an unpooled run: a group created in that pass must get its
// own first tuple, not a slot's zero value. With R(A, B, C) and
// Σ = {R: C -> B}, the goal's two seed tuples fall into two groups, and
// pairing the second with a stale first tuple would equate their B
// values and answer R: A -> B implied.
func TestPoolFDGroupGenerationWrap(t *testing.T) {
	db := schema.MustDatabase(schema.MustScheme("R", "A", "B", "C"))
	sigma := []deps.Dependency{deps.NewFD("R", deps.Attrs("C"), deps.Attrs("B"))}
	goal := deps.NewFD("R", deps.Attrs("A"), deps.Attrs("B"))
	pool := NewEnginePool(obs.New())
	if _, err := ImpliesFD(db, sigma, goal, Options{Pool: pool}); err != nil {
		t.Fatal(err)
	}
	pool.mu.Lock()
	e := pool.newest
	pool.mu.Unlock()
	if e == nil || len(e.fds) != 1 {
		t.Fatal("no idle engine with one FD after the priming run")
	}
	e.fds[0].gen = math.MaxUint32

	wantReg, gotReg := obs.New(), obs.New()
	want, wantErr := ImpliesFD(db, sigma, goal, Options{Trace: true, Obs: wantReg})
	got, gotErr := ImpliesFD(db, sigma, goal, Options{Pool: pool, Trace: true, Obs: gotReg})
	if g := e.fds[0].gen; g == math.MaxUint32 || g > 8 {
		t.Fatalf("the pooled run left the FD's generation at %d: it did not run on the wrapped engine", g)
	}
	if got.Verdict != NotImplied {
		t.Errorf("%v under %v on the wrapped engine: %v, want not implied", goal, sigma, got.Verdict)
	}
	compareResults(t, "generation wrap", got, gotErr, want, wantErr)
	for _, name := range engineCounters {
		if g, w := gotReg.Counter(name).Value(), wantReg.Counter(name).Value(); g != w {
			t.Errorf("counter %s = %d on the wrapped engine, %d unpooled", name, g, w)
		}
	}
}

// shapeFixture is the i-th of a family of distinct (schema, sigma)
// shapes: one relation Ri(A, B) with the FD Ri: A -> B.
func shapeFixture(i int) (*schema.Database, []deps.Dependency, deps.FD) {
	rel := fmt.Sprintf("R%d", i)
	db := schema.MustDatabase(schema.MustScheme(rel, "A", "B"))
	fd := deps.NewFD(rel, deps.Attrs("A"), deps.Attrs("B"))
	return db, []deps.Dependency{fd}, deps.NewFD(rel, deps.Attrs("B"), deps.Attrs("A"))
}

// TestPoolBounded: running 2×poolMaxIdle distinct shapes through one
// pool leaves at most poolMaxIdle idle engines, keeps the newest and
// drops the oldest, and shrinks the bucket map with them — a bucket
// emptied by get leaves no entry behind.
func TestPoolBounded(t *testing.T) {
	reg := obs.New()
	pool := NewEnginePool(reg)
	run := func(i int) {
		t.Helper()
		db, sigma, goal := shapeFixture(i)
		if _, err := ImpliesFD(db, sigma, goal, Options{Pool: pool}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2*poolMaxIdle; i++ {
		run(i)
	}
	idle := func() (int, int) {
		pool.mu.Lock()
		defer pool.mu.Unlock()
		return pool.idle, len(pool.buckets)
	}
	if n, b := idle(); n != poolMaxIdle || b != poolMaxIdle {
		t.Fatalf("after %d shapes: %d idle engines in %d buckets, want %d in %d",
			2*poolMaxIdle, n, b, poolMaxIdle, poolMaxIdle)
	}
	hits := reg.Counter("pool.hits")
	misses := reg.Counter("pool.misses")
	h0, m0 := hits.Value(), misses.Value()
	run(2*poolMaxIdle - 1) // the newest shape is still warm
	if hits.Value() != h0+1 || misses.Value() != m0 {
		t.Errorf("newest shape: hits +%d misses +%d, want a hit", hits.Value()-h0, misses.Value()-m0)
	}
	run(0) // the oldest shape was dropped
	if misses.Value() != m0+1 {
		t.Errorf("oldest shape: misses +%d, want a miss", misses.Value()-m0)
	}
	if n, b := idle(); n != poolMaxIdle || b != poolMaxIdle {
		t.Errorf("after the probes: %d idle engines in %d buckets, want %d in %d", n, b, poolMaxIdle, poolMaxIdle)
	}

	// Taking a shape's only idle engine removes its bucket.
	db, sigma, _ := shapeFixture(0)
	e := pool.get(poolFingerprint(db, sigma), db, sigma)
	if e == nil {
		t.Fatal("shape 0 has no idle engine after its run")
	}
	if n, b := idle(); n != poolMaxIdle-1 || b != poolMaxIdle-1 {
		t.Errorf("after get: %d idle engines in %d buckets, want %d in %d", n, b, poolMaxIdle-1, poolMaxIdle-1)
	}
}

// TestPoolDropsOversizedEngine: an engine whose run created more than
// DefaultMaxTuples tuples (a caller-raised budget) is discarded, not
// kept resident with its grown arrays; one within the default budget is
// re-pooled.
func TestPoolDropsOversizedEngine(t *testing.T) {
	// Two INDs that each demand a fresh predecessor of every tuple: the
	// tableau doubles every round, so the budget, not the round count,
	// bounds the run.
	db := schema.MustDatabase(schema.MustScheme("R", "A", "B", "C"))
	sigma := []deps.Dependency{
		deps.NewIND("R", deps.Attrs("A", "B"), "R", deps.Attrs("B", "C")),
		deps.NewIND("R", deps.Attrs("A", "B"), "R", deps.Attrs("C", "A")),
	}
	goal := deps.NewFD("R", deps.Attrs("A"), deps.Attrs("C"))
	for _, tc := range []struct {
		budget   int
		repooled bool
	}{
		{3 * DefaultMaxTuples, false},
		{0, true}, // DefaultMaxTuples
	} {
		reg := obs.New()
		pool := NewEnginePool(reg)
		res, err := ImpliesFD(db, sigma, goal, Options{Pool: pool, MaxTuples: tc.budget})
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != Unknown {
			t.Fatalf("budget %d: verdict %v, want unknown (the instance diverges)", tc.budget, res.Verdict)
		}
		pool.mu.Lock()
		idle := pool.idle
		pool.mu.Unlock()
		discards := reg.Counter("pool.discards").Value()
		if tc.repooled && (idle != 1 || discards != 0) {
			t.Errorf("budget %d (%d tuples): %d idle, %d discards; want the engine re-pooled",
				tc.budget, res.Tuples, idle, discards)
		}
		if !tc.repooled && (idle != 0 || discards != 1) {
			t.Errorf("budget %d (%d tuples): %d idle, %d discards; want the engine dropped",
				tc.budget, res.Tuples, idle, discards)
		}
	}
}

// TestPoolConcurrent shares one pool among 8 goroutines running a mix
// of shapes and goals (run it under -race): every pooled run matches
// its unpooled reference, and afterwards the idle set is consistent —
// the LRU and the bucket stacks hold the same idle engines.
func TestPoolConcurrent(t *testing.T) {
	type job struct {
		db    *schema.Database
		sigma []deps.Dependency
		goal  deps.Dependency
		want  Result
	}
	var jobs []job
	db, sigma := prop41Fixture()
	for _, goal := range []deps.Dependency{
		deps.NewFD("R", deps.Attrs("X"), deps.Attrs("Y")),
		deps.NewIND("R", deps.Attrs("X"), "S", deps.Attrs("T")),
		deps.NewFD("S", deps.Attrs("U"), deps.Attrs("T")),
	} {
		jobs = append(jobs, job{db: db, sigma: sigma, goal: goal})
	}
	for i := 0; i < 3; i++ {
		db, sigma, goal := shapeFixture(i)
		jobs = append(jobs, job{db: db, sigma: sigma, goal: goal})
	}
	for i := range jobs {
		want, err := Implies(jobs[i].db, jobs[i].sigma, jobs[i].goal, Options{Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		jobs[i].want = want
	}
	pool := NewEnginePool(nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				j := jobs[(w+i)%len(jobs)]
				got, err := Implies(j.db, j.sigma, j.goal, Options{Pool: pool, Trace: true})
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if got.Verdict != j.want.Verdict || got.Rounds != j.want.Rounds || got.Tuples != j.want.Tuples ||
					!slices.Equal(got.Trace, j.want.Trace) {
					t.Errorf("worker %d, %v: pooled run differs from its reference", w, j.goal)
				}
			}
		}(w)
	}
	wg.Wait()

	pool.mu.Lock()
	defer pool.mu.Unlock()
	lru := 0
	for e := pool.newest; e != nil; e = e.older {
		lru++
	}
	stacked := 0
	for _, top := range pool.buckets {
		if top.up != nil {
			t.Errorf("bucket top has an engine above it")
		}
		for e := top; e != nil; e = e.down {
			stacked++
		}
	}
	if lru != pool.idle || stacked != pool.idle || pool.idle > poolMaxIdle {
		t.Errorf("idle set: %d counted, %d on the LRU, %d in buckets (bound %d)", pool.idle, lru, stacked, poolMaxIdle)
	}
}

// chaseCounters are every chase.* counter the semi-naive engine flushes.
var chaseCounters = append(slices.Clone(refCounters),
	"chase.delta_tuples", "chase.rekeyed_tuples", "chase.scans_skipped")

// chaseCounts reads the chase.* counters of reg.
func chaseCounts(reg *obs.Registry) []int64 {
	out := make([]int64, len(chaseCounters))
	for i, name := range chaseCounters {
		out[i] = reg.Counter(name).Value()
	}
	return out
}

// countJob is one chase run whose counts the pool tests add up: an
// implication goal, or, with seed set, a Complete.
type countJob struct {
	db    *schema.Database
	sigma []deps.Dependency
	goal  deps.Dependency
	seed  *data.Database
	opt   Options
}

func (j countJob) run(pool *EnginePool, reg *obs.Registry) {
	opt := j.opt
	opt.Pool, opt.Obs = pool, reg
	// The errors are dropped: a contradiction and a cancellation are
	// exits whose counts the tests add up like any other.
	if j.seed != nil {
		_, _ = Complete(j.seed, j.sigma, opt)
		return
	}
	_, _ = Implies(j.db, j.sigma, j.goal, opt)
}

// countJobs covers every exit a run can take: implied, not implied,
// unknown at the budget, cancelled, contradiction, and a Complete that
// reaches its fixpoint.
func countJobs() []countJob {
	db, sigma := prop41Fixture()
	dbDiv, sigmaDiv, goalDiv := divergentInstance()
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	dbF := schema.MustDatabase(schema.MustScheme("F", "A", "B", "C"), schema.MustScheme("G", "A", "B"))
	seed := dataSeed(dbF, map[string][][]string{"F": {{"a", "b", "c"}, {"a", "e", "f"}, {"g", "b", "c"}}})
	return []countJob{
		{db: db, sigma: sigma, goal: deps.NewFD("R", deps.Attrs("X"), deps.Attrs("Y"))},
		{db: db, sigma: sigma, goal: deps.NewIND("R", deps.Attrs("X"), "S", deps.Attrs("T"))},
		{db: db, sigma: sigma, goal: deps.NewFD("S", deps.Attrs("U"), deps.Attrs("T"))},
		{db: dbDiv, sigma: sigmaDiv, goal: goalDiv, opt: Options{MaxTuples: 64}},
		{db: dbDiv, sigma: sigmaDiv, goal: goalDiv, opt: Options{MaxTuples: 64, Ctx: dead}},
		{sigma: []deps.Dependency{deps.NewFD("F", deps.Attrs("A"), deps.Attrs("B"))}, seed: seed},
		{sigma: []deps.Dependency{
			deps.NewIND("F", deps.Attrs("A", "B"), "G", deps.Attrs("A", "B")),
			deps.NewIND("G", deps.Attrs("B"), "F", deps.Attrs("A")),
		}, seed: seed},
	}
}

// TestPoolRunsAddCountsExactly runs each job K times on one pool and one
// registry: the registry must hold exactly K times the counts of one
// unpooled run, so no run's counts leak into the next pooled run and
// none is dropped, and the tuple peak must be the single run's.
func TestPoolRunsAddCountsExactly(t *testing.T) {
	const K = 5
	for i, j := range countJobs() {
		one := obs.New()
		j.run(nil, one)
		want := chaseCounts(one)
		reg := obs.New()
		pool := NewEnginePool(nil)
		for k := 0; k < K; k++ {
			j.run(pool, reg)
		}
		got := chaseCounts(reg)
		for c, name := range chaseCounters {
			if got[c] != K*want[c] {
				t.Errorf("job %d: %s = %d after %d pooled runs, want %d × %d", i, name, got[c], K, K, want[c])
			}
		}
		if g, w := reg.Gauge("chase.tuples_peak").Value(), one.Gauge("chase.tuples_peak").Value(); g != w {
			t.Errorf("job %d: chase.tuples_peak = %d, one run's %d", i, g, w)
		}
	}
}

// TestPoolConcurrentCountsExact shares one pool and one registry among 8
// goroutines (run it under -race): the registry's totals must equal the
// sum of the same runs' counts on private registries.
func TestPoolConcurrentCountsExact(t *testing.T) {
	jobs := countJobs()
	const workers, perWorker = 8, 35
	shared := obs.New()
	pool := NewEnginePool(nil)
	sums := make([][]int64, workers)
	peaks := make([]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sums[w] = make([]int64, len(chaseCounters))
			for i := 0; i < perWorker; i++ {
				j := jobs[(w+i)%len(jobs)]
				j.run(pool, shared)
				private := obs.New()
				j.run(nil, private)
				for c, v := range chaseCounts(private) {
					sums[w][c] += v
				}
				peaks[w] = max(peaks[w], private.Gauge("chase.tuples_peak").Value())
			}
		}(w)
	}
	wg.Wait()
	got := chaseCounts(shared)
	for c, name := range chaseCounters {
		var want int64
		for w := range sums {
			want += sums[w][c]
		}
		if got[c] != want {
			t.Errorf("%s = %d on the shared registry, %d summed over private ones", name, got[c], want)
		}
	}
	if g, w := shared.Gauge("chase.tuples_peak").Value(), slices.Max(peaks); g != w {
		t.Errorf("chase.tuples_peak = %d on the shared registry, %d over private ones", g, w)
	}
}
