package core

import (
	"fmt"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"indfd/internal/deps"
	"indfd/internal/obs"
	"indfd/internal/schema"
)

func cacheScheme(t *testing.T) *schema.Database {
	t.Helper()
	return schema.MustDatabase(
		schema.MustScheme("R", "A", "B"),
		schema.MustScheme("S", "C", "D"),
	)
}

func TestFingerprintCanonicalization(t *testing.T) {
	db := cacheScheme(t)
	// Same scheme declared in the other order.
	db2 := schema.MustDatabase(
		schema.MustScheme("S", "C", "D"),
		schema.MustScheme("R", "A", "B"),
	)
	fd1 := deps.NewFD("R", deps.Attrs("A"), deps.Attrs("B"))
	ind1 := deps.NewIND("R", deps.Attrs("A"), "S", deps.Attrs("C"))
	goal := deps.NewFD("S", deps.Attrs("C"), deps.Attrs("D"))

	a := QueryFingerprint(db, []deps.Dependency{fd1, ind1}, goal, "finite")
	b := QueryFingerprint(db2, []deps.Dependency{ind1, fd1}, goal, "finite")
	if a != b {
		t.Errorf("fingerprint not canonical under schema/sigma reordering:\n%s\n%s", a, b)
	}

	// Any semantic difference must change the fingerprint.
	if c := QueryFingerprint(db, []deps.Dependency{fd1, ind1}, goal, "unrestricted"); c == a {
		t.Errorf("mode change did not change the fingerprint")
	}
	if c := QueryFingerprint(db, []deps.Dependency{fd1}, goal, "finite"); c == a {
		t.Errorf("sigma change did not change the fingerprint")
	}
	if c := QueryFingerprint(db, []deps.Dependency{fd1, ind1},
		deps.NewFD("S", deps.Attrs("D"), deps.Attrs("C")), "finite"); c == a {
		t.Errorf("goal change did not change the fingerprint")
	}
	if c := QueryFingerprint(db, []deps.Dependency{fd1, ind1}, goal, "finite", "budget=5"); c == a {
		t.Errorf("extras did not change the fingerprint")
	}
}

func TestFingerprintOptions(t *testing.T) {
	a := FingerprintOptions(Options{ChaseMaxTuples: 100, SearchFallback: true})
	b := FingerprintOptions(Options{ChaseMaxTuples: 100, SearchFallback: false})
	if fmt.Sprint(a) == fmt.Sprint(b) {
		t.Errorf("SearchFallback not reflected in fingerprint extras")
	}
	c := FingerprintOptions(Options{ChaseMaxTuples: 200, SearchFallback: true})
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Errorf("ChaseMaxTuples not reflected in fingerprint extras")
	}
	// Every budget keeps its strconv spelling, and every call returns a
	// slice of its own: callers append their own field to it.
	for _, budget := range []int{0, 7, 100, 998, -3, 1 << 40} {
		got := FingerprintOptions(Options{ChaseMaxTuples: budget})
		if want := "budget=" + strconv.Itoa(budget); got[0] != want {
			t.Errorf("budget %d spelled %q, want %q", budget, got[0], want)
		}
		if other := FingerprintOptions(Options{ChaseMaxTuples: budget}); &got[0] == &other[0] {
			t.Errorf("budget %d: two calls share one backing array", budget)
		}
	}
	if raceDetectorEnabled {
		return
	}
	for budget, ceiling := range map[int]float64{0: 1, 500: 2} {
		opt := Options{ChaseMaxTuples: budget}
		if n := testing.AllocsPerRun(100, func() { _ = append(FingerprintOptions(opt), "explain=false") }); n > ceiling {
			t.Errorf("budget %d: %.0f allocations with a caller's field appended, want at most %.0f", budget, n, ceiling)
		}
	}
}

func TestAnswerCacheHitMissEvict(t *testing.T) {
	reg := obs.New()
	// Capacity 16 = one entry per shard: any second key landing on an
	// occupied shard evicts.
	c := NewAnswerCache(16, 0, reg)
	ans := CachedAnswer{Answer: Answer{Verdict: Yes, Engine: "ind", Proof: "p"}}

	if _, ok := c.Get("k1"); ok {
		t.Fatalf("empty cache hit")
	}
	c.Put("k1", ans)
	got, ok := c.Get("k1")
	if !ok || got.Answer.Verdict != Yes || got.Answer.Proof != "p" {
		t.Fatalf("Get after Put = %+v, %v", got, ok)
	}
	s := reg.Snapshot()
	if s.Counters["cache.misses"] != 1 || s.Counters["cache.hits"] != 1 {
		t.Errorf("counters after one miss + one hit: %v", s.Counters)
	}

	// Fill far beyond capacity; evictions must keep Len bounded.
	for i := 0; i < 200; i++ {
		c.Put(fmt.Sprintf("key-%d", i), ans)
	}
	if n := c.Len(); n > 16 {
		t.Errorf("cache grew to %d entries, cap 16", n)
	}
	if reg.Snapshot().Counters["cache.evictions"] == 0 {
		t.Errorf("no evictions counted after overfill")
	}
}

func TestAnswerCacheLRUOrder(t *testing.T) {
	c := NewAnswerCache(16, 0, nil)
	// Find three keys on the same shard so LRU order is observable.
	var keys []string
	want := c.shardFor("probe")
	for i := 0; len(keys) < 3 && i < 10000; i++ {
		k := fmt.Sprintf("k%d", i)
		if c.shardFor(k) == want {
			keys = append(keys, k)
		}
	}
	if len(keys) < 3 {
		t.Fatalf("could not find 3 colliding keys")
	}
	a := CachedAnswer{Answer: Answer{Verdict: No}}
	c.Put(keys[0], a)
	c.Put(keys[1], a)
	c.Get(keys[0])    // refresh 0: now 1 is the shard's LRU
	c.Put(keys[2], a) // shard cap is 1... depends on rounding; assert inclusion below
	// With total size 16 and 16 shards, each shard holds 1 entry: the
	// last Put wins the shard.
	if _, ok := c.Get(keys[2]); !ok {
		t.Errorf("most recent entry evicted")
	}
}

func TestAnswerCacheTTL(t *testing.T) {
	c := NewAnswerCache(64, time.Minute, nil)
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }
	c.Put("k", CachedAnswer{Answer: Answer{Verdict: Yes}})
	if _, ok := c.Get("k"); !ok {
		t.Fatalf("fresh entry missed")
	}
	now = now.Add(2 * time.Minute)
	if _, ok := c.Get("k"); ok {
		t.Errorf("expired entry served")
	}
	if n := c.Len(); n != 0 {
		t.Errorf("expired entry not reaped on Get: Len=%d", n)
	}
}

func TestAnswerCacheNilSafe(t *testing.T) {
	var c *AnswerCache
	c.Put("k", CachedAnswer{})
	if _, ok := c.Get("k"); ok {
		t.Errorf("nil cache hit")
	}
	if c.Len() != 0 {
		t.Errorf("nil cache Len != 0")
	}
	if NewAnswerCache(0, 0, nil) != nil {
		t.Errorf("size 0 must return the nil caching-off cache")
	}
}

func TestAnswerCachePutStripsObservability(t *testing.T) {
	c := NewAnswerCache(8, 0, nil)
	reg := obs.New()
	c.Put("k", CachedAnswer{Answer: Answer{Verdict: Yes, Trace: reg.StartSpan("s")}})
	got, ok := c.Get("k")
	if !ok {
		t.Fatalf("miss")
	}
	if got.Answer.Trace != nil {
		t.Errorf("per-query observability leaked into the cache")
	}
}

func TestAnswerCacheConcurrent(t *testing.T) {
	c := NewAnswerCache(32, 0, obs.New())
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("key-%d", i%50)
				if i%3 == 0 {
					c.Put(k, CachedAnswer{Answer: Answer{Verdict: Yes}})
				} else {
					c.Get(k)
				}
			}
		}(w)
	}
	wg.Wait()
	if n := c.Len(); n > 32 {
		t.Errorf("cache exceeded capacity under concurrency: %d", n)
	}
}

// TestAnswerCacheInvalidateMembers pins the sweep: exactly the entries
// whose tags meet the changed set go — whether their tags are shared
// with other entries, private, handed over unsorted, empty or nil — the
// return value equals the cache.footprint_invalidations delta, and
// every survivor still hits.
func TestAnswerCacheInvalidateMembers(t *testing.T) {
	shared := []string{"m1", "m2"}
	unsorted := []string{"m5", "m4", "m3"}
	entries := map[string][]string{
		"shared-a": shared,
		"shared-b": shared,
		"private":  {"m2", "m3"},
		"unsorted": unsorted,
		"single":   {"m4"},
		"empty":    {},
		"untagged": nil,
	}
	for _, tc := range []struct {
		changed []string
		want    []string // keys that must go
	}{
		{[]string{"m1"}, []string{"shared-a", "shared-b"}},
		{[]string{"m3"}, []string{"private", "unsorted"}},
		{[]string{"m4"}, []string{"single", "unsorted"}},
		{[]string{"m5", "m1"}, []string{"shared-a", "shared-b", "unsorted"}},
		{[]string{"m2", "m4"}, []string{"private", "shared-a", "shared-b", "single", "unsorted"}},
		{[]string{"m0", "m9"}, nil},
		{nil, nil},
		{[]string{"m5", "m4", "m3", "m2", "m1"}, []string{"private", "shared-a", "shared-b", "single", "unsorted"}},
	} {
		reg := obs.New()
		c := NewAnswerCache(1024, 0, reg)
		for key, tags := range entries {
			c.PutTagged(key, CachedAnswer{Answer: Answer{Verdict: Yes, Proof: key}}, tags)
		}
		got := c.InvalidateMembers(tc.changed...)
		if got != len(tc.want) {
			t.Errorf("InvalidateMembers(%v) = %d, want %d", tc.changed, got, len(tc.want))
		}
		if n := reg.Counter("cache.footprint_invalidations").Value(); n != int64(got) {
			t.Errorf("InvalidateMembers(%v) returned %d but counted %d", tc.changed, got, n)
		}
		for key := range entries {
			a, ok := c.Get(key)
			if gone := slices.Contains(tc.want, key); ok == gone {
				t.Errorf("InvalidateMembers(%v): %s present=%t, want %t", tc.changed, key, ok, !gone)
			} else if ok && a.Answer.Proof != key {
				t.Errorf("InvalidateMembers(%v): survivor %s answers %q", tc.changed, key, a.Answer.Proof)
			}
		}
	}
	if !slices.Equal(unsorted, []string{"m5", "m4", "m3"}) {
		t.Errorf("PutTagged reordered the caller's tags: %v", unsorted)
	}
}

// TestAnswerCacheInvalidateRace mixes PutTagged, Get and
// InvalidateMembers from 16 goroutines (run it under -race): the cache
// never exceeds its capacity, and a final sweep of every tag leaves no
// tagged entry behind.
func TestAnswerCacheInvalidateRace(t *testing.T) {
	const capacity = 64
	c := NewAnswerCache(capacity, 0, obs.New())
	members := []string{"m0", "m1", "m2", "m3", "m4", "m5", "m6", "m7"}
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				k := fmt.Sprintf("key-%d", (w*7+i)%200)
				switch i % 4 {
				case 0:
					// Private tags, mostly unsorted: a member, then its predecessor.
					c.PutTagged(k, CachedAnswer{}, []string{members[(i+w)%8], members[(i+w+7)%8]})
				case 1:
					c.PutTagged(k, CachedAnswer{}, members[w%4:w%4+3])
				case 2:
					c.Get(k)
					if i%8 == 2 {
						c.Put(k, CachedAnswer{})
					}
				case 3:
					c.InvalidateMembers(members[(i+w)%8])
				}
				if n := c.Len(); n > capacity {
					t.Errorf("cache holds %d entries, capacity %d", n, capacity)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	c.InvalidateMembers(members...)
	for i := range c.shards {
		sh := &c.shards[i]
		for el := sh.lru.Front(); el != nil; el = el.Next() {
			if e := el.Value.(*cacheEntry); len(e.tags) > 0 {
				t.Errorf("entry %s survived a sweep of every member with tags %v", e.key, e.tags)
			}
		}
		if len(sh.entries) != sh.lru.Len() {
			t.Errorf("shard %d: map holds %d entries, LRU %d", i, len(sh.entries), sh.lru.Len())
		}
	}
}
