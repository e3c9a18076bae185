package intern

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

func TestInternDenseIDs(t *testing.T) {
	tb := New(2, 4)
	id0, fresh := tb.Intern([]int32{1, 2})
	if id0 != 0 || !fresh {
		t.Fatalf("first key: id=%d fresh=%v, want 0 true", id0, fresh)
	}
	id1, fresh := tb.Intern([]int32{2, 1})
	if id1 != 1 || !fresh {
		t.Fatalf("second key: id=%d fresh=%v, want 1 true", id1, fresh)
	}
	again, fresh := tb.Intern([]int32{1, 2})
	if again != 0 || fresh {
		t.Fatalf("re-intern: id=%d fresh=%v, want 0 false", again, fresh)
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tb.Len())
	}
	if k := tb.Key(1); !slices.Equal(k, []int32{2, 1}) {
		t.Fatalf("Key(1) = %v, want [2 1]", k)
	}
}

func TestLookupDoesNotInsert(t *testing.T) {
	tb := New(1, 0)
	if _, ok := tb.Lookup([]int32{7}); ok {
		t.Fatal("Lookup invented a key")
	}
	if tb.Len() != 0 {
		t.Fatalf("Lookup inserted: Len = %d", tb.Len())
	}
	tb.Intern([]int32{9})
	if id, ok := tb.Lookup([]int32{9}); !ok || id != 0 {
		t.Fatalf("Lookup(9) = %d %v, want 0 true", id, ok)
	}
}

func TestInternProbeAllocFree(t *testing.T) {
	tb := New(3, 8)
	key := []int32{4, -1, 1 << 20}
	tb.Intern(key)
	allocs := testing.AllocsPerRun(200, func() {
		if _, fresh := tb.Intern(key); fresh {
			t.Fatal("key turned fresh")
		}
		if _, ok := tb.Lookup(key); !ok {
			t.Fatal("key vanished")
		}
	})
	if allocs != 0 {
		t.Errorf("probing an existing key allocates %.1f times per run, want 0", allocs)
	}
}

func TestResetStartsNewEpoch(t *testing.T) {
	tb := New(2, 4)
	alpha, beta := []int32{0, 1}, []int32{1, 0}
	tb.Intern(alpha)
	tb.Intern(beta)
	tb.Reset()
	if tb.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", tb.Len())
	}
	if _, ok := tb.Lookup(alpha); ok {
		t.Fatal("pre-reset key visible after Reset")
	}
	// Re-interning in a fresh order re-mints dense IDs from 0.
	id, fresh := tb.Intern(beta)
	if id != 0 || !fresh {
		t.Fatalf("first post-reset key: id=%d fresh=%v, want 0 true", id, fresh)
	}
	id, fresh = tb.Intern(alpha)
	if id != 1 || !fresh {
		t.Fatalf("second post-reset key: id=%d fresh=%v, want 1 true", id, fresh)
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tb.Len())
	}
}

func TestResetWarmReplayAllocFree(t *testing.T) {
	tb := New(2, 8)
	keys := [][]int32{{1, 1}, {1, 2}, {2, 3}}
	for _, k := range keys {
		tb.Intern(k)
	}
	// A reset + replay of keys seen in any earlier epoch must not
	// allocate: the arena and the slots keep their capacity.
	allocs := testing.AllocsPerRun(200, func() {
		tb.Reset()
		for i, k := range keys {
			id, fresh := tb.Intern(k)
			if int(id) != i || !fresh {
				t.Fatalf("replay of %v: id=%d fresh=%v", k, id, fresh)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("warm replay allocates %.1f times per run, want 0", allocs)
	}
}

// TestResetAcrossEpochWrap: a slot stamped 2^32 resets ago must not read
// as live when the epoch counter comes round to its stamp again. The key
// stays in the arena (nothing overwrites it), so a stale slot that read
// as live would match it.
func TestResetAcrossEpochWrap(t *testing.T) {
	tb := New(2, 4)
	old := []int32{5, 6}
	tb.Intern(old) // stamped with the first epoch
	tb.Reset()
	tb.epoch = math.MaxUint32 - 1 // as if 2^32-4 more resets had happened
	// Reset through the wrap and past the first epochs' stamps.
	for i := 0; i < 4; i++ {
		tb.Reset()
		if id, ok := tb.Lookup(old); ok {
			t.Fatalf("reset %d, epoch %d: key %v of an earlier epoch visible, id %d", i, tb.epoch, old, id)
		}
		if tb.Len() != 0 {
			t.Fatalf("reset %d: Len = %d, want 0", i, tb.Len())
		}
	}
	if id, fresh := tb.Intern(old); id != 0 || !fresh {
		t.Errorf("re-interning %v after the wrap: id=%d fresh=%v, want 0 true", old, id, fresh)
	}
}

// TestResetDropsOversizedTable: a table that held more than resetDropCap
// keys gives its arena and slots back on the next Reset.
func TestResetDropsOversizedTable(t *testing.T) {
	tb := New(1, 0)
	for i := int32(0); i <= resetDropCap; i++ {
		tb.Intern([]int32{i})
	}
	tb.Reset()
	if len(tb.slots) != minSlots || cap(tb.keys) != 0 {
		t.Errorf("after Reset: %d slots, arena capacity %d; want %d and 0", len(tb.slots), cap(tb.keys), minSlots)
	}
	if id, fresh := tb.Intern([]int32{3}); id != 0 || !fresh {
		t.Errorf("first key after the drop: id=%d fresh=%v, want 0 true", id, fresh)
	}
}

// FuzzTable drives a table of a random width 0–6 through a random
// sequence of interns, lookups, resets and bursts that force growth,
// against a map model of the current epoch: IDs are dense in first-seen
// order, Key returns what was interned, Lookup never inserts, Len is the
// model's size, and no key of an earlier epoch is visible.
func FuzzTable(f *testing.F) {
	f.Add([]byte{2, 0, 1, 2, 0, 1, 2, 1, 1, 2, 2, 1, 1, 2})
	f.Add([]byte{0, 0, 0, 1, 2, 0, 1})
	f.Add([]byte{3, 3, 40, 2, 1, 0, 0, 4, 2, 2, 1, 0, 0})
	f.Add([]byte{6, 3, 200, 3, 200, 2, 3, 90, 1, 1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		width := int(in[0] % 7)
		in = in[1:]
		tb := New(width, int(len(in)%5))
		model := map[string]int32{}
		var earlier [][]int32 // keys of past epochs, not re-interned since
		next := func() byte {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return b
		}
		key := func() []int32 {
			k := make([]int32, width)
			for j := range k {
				k[j] = int32(next()%6) - 2
			}
			return k
		}
		name := func(k []int32) string { return fmt.Sprint(k) }
		intern := func(k []int32) {
			want, seen := model[name(k)]
			id, fresh := tb.Intern(k)
			if seen && (fresh || id != want) {
				t.Fatalf("Intern(%v) = %d fresh=%v, want %d not fresh", k, id, fresh, want)
			}
			if !seen {
				if !fresh || int(id) != len(model) {
					t.Fatalf("Intern(%v) = %d fresh=%v, want fresh %d", k, id, fresh, len(model))
				}
				model[name(k)] = id
			}
			if !slices.Equal(tb.Key(id), k) {
				t.Fatalf("Key(%d) = %v, want %v", id, tb.Key(id), k)
			}
		}
		for len(in) > 0 {
			switch next() % 5 {
			case 0:
				intern(key())
			case 1:
				k := key()
				want, seen := model[name(k)]
				id, ok := tb.Lookup(k)
				if ok != seen || (ok && id != want) {
					t.Fatalf("Lookup(%v) = %d %v, model %d %v", k, id, ok, want, seen)
				}
			case 2:
				for _, id := range model {
					earlier = append(earlier, slices.Clone(tb.Key(id)))
				}
				tb.Reset()
				clear(model)
			case 3:
				// A burst of distinct keys past the next growth.
				n := int(next())
				for i := 0; i < n; i++ {
					k := key()
					if width > 0 {
						k[0] = int32(i) + 100
					}
					intern(k)
				}
			case 4:
				// Jump ahead to one of the last epochs before the
				// counter wraps, as if that many resets had passed; only
				// an empty table may, and never backwards.
				if e := math.MaxUint32 - uint32(next()%3); tb.Len() == 0 && e > tb.epoch {
					tb.epoch = e
				}
			}
			if tb.Len() != len(model) {
				t.Fatalf("Len = %d, model holds %d", tb.Len(), len(model))
			}
		}
		for _, k := range earlier {
			if _, live := model[name(k)]; live {
				continue
			}
			if id, ok := tb.Lookup(k); ok {
				t.Fatalf("key %v of an earlier epoch visible with id %d", k, id)
			}
		}
	})
}
