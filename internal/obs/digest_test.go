package obs

import (
	"fmt"
	"testing"
)

func TestDigestStoreAccumulates(t *testing.T) {
	reg := New()
	d := NewDigestStore(16, reg)
	for i := 0; i < 3; i++ {
		d.Observe(DigestObservation{
			Fingerprint: "fp1", Query: "R: A -> B",
			DurationNS: int64(1000 * (i + 1)),
		})
	}
	d.Observe(DigestObservation{Fingerprint: "fp1", DurationNS: 4000, Err: true})
	d.Observe(DigestObservation{Fingerprint: "fp1", DurationNS: 500, CacheHit: true})
	snaps := d.Snapshot(0)
	if len(snaps) != 1 {
		t.Fatalf("snapshot has %d digests, want 1", len(snaps))
	}
	s := snaps[0]
	if s.Count != 5 || s.Errors != 1 || s.CacheHits != 1 {
		t.Errorf("count/errors/hits = %d/%d/%d, want 5/1/1", s.Count, s.Errors, s.CacheHits)
	}
	if s.TotalNS != 10500 || s.MaxNS != 4000 || s.MeanNS != 2100 {
		t.Errorf("total/max/mean = %d/%d/%d", s.TotalNS, s.MaxNS, s.MeanNS)
	}
	if s.Query != "R: A -> B" {
		t.Errorf("query sample = %q (first observation's sample should be retained)", s.Query)
	}
	if s.LatencyUS.Count != 5 {
		t.Errorf("latency histogram count = %d, want 5", s.LatencyUS.Count)
	}
	if reg.Counter("obs.digest_observations").Value() != 5 {
		t.Errorf("obs.digest_observations = %d", reg.Counter("obs.digest_observations").Value())
	}
	if reg.Gauge("obs.digest_entries").Value() != 1 {
		t.Errorf("obs.digest_entries = %d", reg.Gauge("obs.digest_entries").Value())
	}
}

// TestDigestStoreBounded is the acceptance check: 10k distinct
// fingerprints must leave at most Cap() entries, with the overflow
// counted in obs.digest_evictions.
func TestDigestStoreBounded(t *testing.T) {
	reg := New()
	d := NewDigestStore(64, reg)
	const distinct = 10_000
	for i := 0; i < distinct; i++ {
		d.Observe(DigestObservation{
			Fingerprint: fmt.Sprintf("fp-%05d", i),
			DurationNS:  int64(i%97) * 1000,
		})
	}
	if d.Len() > d.Cap() {
		t.Fatalf("store holds %d digests, cap %d", d.Len(), d.Cap())
	}
	if got := len(d.Snapshot(0)); got > d.Cap() {
		t.Fatalf("snapshot has %d digests, cap %d", got, d.Cap())
	}
	evicted := reg.Counter("obs.digest_evictions").Value()
	if evicted != int64(distinct-d.Len()) {
		t.Errorf("obs.digest_evictions = %d, want %d (observed %d, retained %d)",
			evicted, distinct-d.Len(), distinct, d.Len())
	}
	if g := reg.Gauge("obs.digest_entries").Value(); g != int64(d.Len()) {
		t.Errorf("obs.digest_entries = %d, Len() = %d", g, d.Len())
	}
}

// TestDigestStoreSpaceSaving pins the admission guarantee: a heavy
// hitter that keeps being observed survives a stream of singletons,
// and an entry admitted over a victim carries the victim's total as
// its inherited error floor.
func TestDigestStoreSpaceSaving(t *testing.T) {
	// Two entries per shard: a singleton arriving at the hot entry's full
	// shard evicts the other slot's (smaller-total) singleton, never the
	// heavy hitter.
	d := NewDigestStore(16, New())
	hot := "the-hot-query"
	for i := 0; i < 2000; i++ {
		d.Observe(DigestObservation{Fingerprint: hot, DurationNS: 50_000})
		d.Observe(DigestObservation{Fingerprint: fmt.Sprintf("one-off-%d", i), DurationNS: 10})
	}
	var found *DigestSnapshot
	for _, s := range d.Snapshot(0) {
		if s.Fingerprint == hot {
			found = &s
			break
		}
	}
	if found == nil {
		t.Fatalf("heavy hitter evicted by singleton stream; snapshot: %+v", d.Snapshot(0))
	}
	// The hot entry's observations dominate: even if it was evicted and
	// re-admitted early on, nearly all of its 2000 observations count.
	if found.Count < 1000 {
		t.Errorf("heavy hitter count = %d, want most of 2000", found.Count)
	}
	if found.TotalNS-found.InheritedNS < found.Count*50_000 {
		t.Errorf("own total %d (inherited %d) below count*duration", found.TotalNS, found.InheritedNS)
	}
}

func TestDigestStoreInheritedFloor(t *testing.T) {
	d := NewDigestStore(8, New()) // 1 per shard
	// Two fingerprints in the same shard: the second admission evicts the
	// first and inherits its total.
	var a, b string
	base := d.shardFor("probe-a")
	for i := 0; ; i++ {
		fp := fmt.Sprintf("cand-%d", i)
		if d.shardFor(fp) == base {
			if a == "" {
				a = fp
			} else if fp != a {
				b = fp
				break
			}
		}
	}
	d.Observe(DigestObservation{Fingerprint: a, DurationNS: 7000})
	d.Observe(DigestObservation{Fingerprint: b, DurationNS: 1000})
	for _, s := range d.Snapshot(0) {
		if s.Fingerprint != b {
			continue
		}
		if s.InheritedNS != 7000 || s.TotalNS != 8000 {
			t.Errorf("inherited/total = %d/%d, want 7000/8000", s.InheritedNS, s.TotalNS)
		}
		if s.MeanNS != 1000 {
			t.Errorf("mean = %d, want 1000 (inherited floor excluded)", s.MeanNS)
		}
		return
	}
	t.Fatalf("fingerprint %q not admitted", b)
}

func TestDigestStoreHotDepsMergedAndBounded(t *testing.T) {
	d := NewDigestStore(16, New())
	for i := 0; i < 20; i++ {
		d.Observe(DigestObservation{
			Fingerprint: "fp", DurationNS: 1000,
			Profile: &DepProfile{Deps: []DepCost{
				{Dep: "R: A -> B", Kind: "fd", Firings: 1, ScanNS: 10},
				{Dep: fmt.Sprintf("R[X%d] <= S[Y]", i), Kind: "ind", Firings: 1, ScanNS: int64(i)},
				{Dep: "cold", Kind: "fd"},
			}},
		})
	}
	s := d.Snapshot(0)[0]
	if len(s.HotDeps) > digestHotDeps {
		t.Fatalf("hot deps = %d entries, cap %d", len(s.HotDeps), digestHotDeps)
	}
	// The recurring FD accumulates across merges and tops the list.
	if s.HotDeps[0].Dep != "R: A -> B" || s.HotDeps[0].Firings < 10 {
		t.Errorf("hottest merged dep = %+v", s.HotDeps[0])
	}
	for _, dc := range s.HotDeps {
		if dc.Dep == "cold" {
			t.Errorf("workless dep retained in hot list: %+v", s.HotDeps)
		}
	}
}

func TestDigestStoreSnapshotOrderAndLimit(t *testing.T) {
	d := NewDigestStore(16, New())
	d.Observe(DigestObservation{Fingerprint: "cool", DurationNS: 100})
	d.Observe(DigestObservation{Fingerprint: "hot", DurationNS: 9000})
	d.Observe(DigestObservation{Fingerprint: "warm", DurationNS: 5000})
	snaps := d.Snapshot(0)
	if len(snaps) != 3 || snaps[0].Fingerprint != "hot" || snaps[2].Fingerprint != "cool" {
		t.Errorf("snapshot order: %+v", snaps)
	}
	if got := d.Snapshot(2); len(got) != 2 || got[1].Fingerprint != "warm" {
		t.Errorf("Snapshot(2) = %+v", got)
	}
}

func TestDigestStoreOff(t *testing.T) {
	var d *DigestStore
	d.Observe(DigestObservation{Fingerprint: "fp", DurationNS: 1}) // no panic
	if d.Snapshot(0) != nil || d.Len() != 0 || d.Cap() != 0 {
		t.Errorf("nil store should be empty")
	}
	if NewDigestStore(0, New()) != nil || NewDigestStore(-1, New()) != nil {
		t.Errorf("k <= 0 should return the nil store")
	}
	// Empty fingerprints (digests off at the serve layer, or a request
	// that never reached fingerprinting) are dropped, not aggregated.
	reg := New()
	s := NewDigestStore(8, reg)
	s.Observe(DigestObservation{Fingerprint: "", DurationNS: 1})
	if s.Len() != 0 || reg.Counter("obs.digest_observations").Value() != 0 {
		t.Errorf("empty fingerprint should be a no-op")
	}
}

// TestDigestStoreNilObserveZeroAlloc pins the digests-off hot path:
// observing into a nil store must not allocate (the serve layer calls
// it unconditionally on every request).
func TestDigestStoreNilObserveZeroAlloc(t *testing.T) {
	var d *DigestStore
	o := DigestObservation{Fingerprint: "fp", DurationNS: 100}
	if n := testing.AllocsPerRun(100, func() { d.Observe(o) }); n != 0 {
		t.Errorf("nil DigestStore.Observe allocates %v per call", n)
	}
}

// sameShardFingerprints returns n distinct fingerprints that all land in
// the store's first shard.
func sameShardFingerprints(d *DigestStore, n int) []string {
	var out []string
	for i := 0; len(out) < n; i++ {
		if fp := fmt.Sprintf("fp-%d", i); d.shardFor(fp) == &d.shards[0] {
			out = append(out, fp)
		}
	}
	return out
}

// TestDigestAdmissionAllocFree pins admission into a full shard: the
// newcomer reuses the victim's entry, so Observe allocates nothing, and
// among equal totals the victim is the earliest-admitted entry (slot
// order, not map iteration order).
func TestDigestAdmissionAllocFree(t *testing.T) {
	d := NewDigestStore(256, New())
	fps := sameShardFingerprints(d, d.perShard+2)
	for _, fp := range fps[:d.perShard] {
		d.Observe(DigestObservation{Fingerprint: fp, DurationNS: 1000})
	}
	retained := func() map[string]bool {
		out := map[string]bool{}
		for _, s := range d.Snapshot(0) {
			out[s.Fingerprint] = true
		}
		return out
	}
	// Every total is 1000: the tie goes to the first slot.
	d.Observe(DigestObservation{Fingerprint: fps[d.perShard], DurationNS: 1000})
	if got := retained(); got[fps[0]] || !got[fps[1]] || !got[fps[d.perShard]] {
		t.Fatalf("equal-total admission evicted the wrong entry: want %s gone, %s and %s kept",
			fps[0], fps[1], fps[d.perShard])
	}
	// The newcomer now totals 2000 (its 1000 floor plus 1000), so the
	// earliest entry still at 1000 is next.
	d.Observe(DigestObservation{Fingerprint: fps[d.perShard+1], DurationNS: 1000})
	if got := retained(); got[fps[1]] || !got[fps[2]] || !got[fps[d.perShard]] {
		t.Fatalf("second admission evicted the wrong entry: want %s gone, %s and %s kept",
			fps[1], fps[2], fps[d.perShard])
	}

	if raceDetectorEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	fresh := sameShardFingerprints(d, 2*d.perShard+1000)[2*d.perShard:]
	next := 0
	allocs := testing.AllocsPerRun(len(fresh)-1, func() {
		d.Observe(DigestObservation{Fingerprint: fresh[next], Query: "R: A -> B", DurationNS: 1000})
		next++
	})
	if allocs != 0 {
		t.Errorf("Observe admitting into a full shard: %.0f allocs, want 0", allocs)
	}
}
