// Package intern provides a tiny tuple interner: a table from
// fixed-width int32 tuples to dense int32 IDs, handed out in first-seen
// order.
//
// The pattern it packages drives the semi-naive chase (internal/chase),
// which keys tuples and projections by the union-find roots of their
// values, and the Corollary 3.2 IND frontier (internal/ind), which keys
// an expression by its relation and attribute IDs. Hot loops that
// repeatedly identify such composite values assemble the key into one
// caller-owned scratch slice and probe with it. The table copies a key
// into its flat arena only on first sight, so probing with
// already-seen keys costs no garbage at all, and hashing a few int32s
// is much cheaper than hashing their byte encoding as a string. Dense
// IDs mean callers can keep per-key state in flat slices indexed by ID
// instead of maps.
//
// Tables are resettable in O(1): Reset bumps an epoch instead of
// clearing the slots, so a pooled engine that replays the same keys
// after a reset re-interns them into the arena and slots it already
// owns — the warm steady state allocates nothing at all.
package intern

import "slices"

// resetDropCap bounds how many keys a reset keeps room for. A table
// that grew past this many keys in one epoch drops its arena and slots
// on the next Reset, trading one regrowth for bounded memory in pools
// fed by adversarial key streams.
const resetDropCap = 1 << 16

// minSlots is the smallest slot array, a power of two.
const minSlots = 8

// Table assigns dense IDs to int32 tuples of one fixed width. The zero
// value is not ready for use; call New.
//
// Slots are open-addressed with linear probing. A slot is live only if
// it carries the table's current epoch; every other slot is empty, which
// is what makes Reset O(1). Epoch 0 marks a slot never written, so the
// table's own epoch is never 0, and the slots are cleared when the epoch
// counter wraps.
type Table struct {
	width int
	keys  []int32 // the arena: the key with ID i is keys[i*width : (i+1)*width]
	slots []slot  // len is a power of two, at most 3/4 full
	epoch uint32
	next  int32 // keys interned in this epoch; the next fresh key gets this ID
}

// slot is one open-addressing cell: a key's hash, its ID, and the epoch
// that interned it.
type slot struct {
	hash  uint32
	id    int32
	epoch uint32
}

// New returns an empty table for keys of the given width, with room
// hinted for capHint keys.
func New(width, capHint int) *Table {
	n := minSlots
	for n*3 < capHint*4 {
		n <<= 1
	}
	return &Table{
		width: width,
		keys:  make([]int32, 0, capHint*width),
		slots: make([]slot, n),
		epoch: 1,
	}
}

// hash mixes a key into 32 bits: one multiply per element, then a
// finalizer so that the low bits, which pick the slot, depend on every
// element.
func hash(key []int32) uint32 {
	h := uint64(len(key))
	for _, v := range key {
		h = (h ^ uint64(uint32(v))) * 0x9e3779b97f4a7c15
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return uint32(h)
}

// find returns the slot index holding key, or the index of the empty
// slot where it would go.
func (t *Table) find(key []int32, h uint32) (i uint32, live bool) {
	mask := uint32(len(t.slots) - 1)
	for i = h & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.epoch != t.epoch {
			return i, false
		}
		if s.hash == h && slices.Equal(t.Key(s.id), key) {
			return i, true
		}
	}
}

// Intern returns the ID of key, minting the next dense ID on first
// sight. key must have the table's width; the table copies it, so the
// caller may reuse the slice. Only arena or slot growth allocates.
func (t *Table) Intern(key []int32) (id int32, fresh bool) {
	h := hash(key)
	i, live := t.find(key, h)
	if live {
		return t.slots[i].id, false
	}
	if int(t.next+1)*4 > len(t.slots)*3 {
		t.grow()
		i, _ = t.find(key, h)
	}
	id = t.next
	t.next++
	t.keys = append(t.keys, key...)
	t.slots[i] = slot{hash: h, id: id, epoch: t.epoch}
	return id, true
}

// Lookup probes without inserting; it never allocates.
func (t *Table) Lookup(key []int32) (int32, bool) {
	i, live := t.find(key, hash(key))
	if !live {
		return 0, false
	}
	return t.slots[i].id, true
}

// Key returns the key with the given ID, a view into the arena that
// stays valid until the next Intern or Reset.
func (t *Table) Key(id int32) []int32 {
	return t.keys[int(id)*t.width : int(id+1)*t.width]
}

// Len is the number of distinct keys interned in the current epoch; the
// next fresh key receives ID Len().
func (t *Table) Len() int { return int(t.next) }

// grow doubles the slot array and re-places every live key.
func (t *Table) grow() {
	t.slots = make([]slot, 2*len(t.slots))
	mask := uint32(len(t.slots) - 1)
	for id := int32(0); id < t.next; id++ {
		h := hash(t.Key(id))
		i := h & mask
		for t.slots[i].epoch == t.epoch {
			i = (i + 1) & mask
		}
		t.slots[i] = slot{hash: h, id: id, epoch: t.epoch}
	}
}

// Reset empties the table in O(1) by starting a new epoch. The arena
// and the slots keep their capacity, so re-interning after the reset
// allocates nothing, unless the table has grown past resetDropCap keys,
// in which case both are dropped.
func (t *Table) Reset() { t.ResetWidth(t.width) }

// ResetWidth is Reset for keys of a new width.
func (t *Table) ResetWidth(width int) {
	t.width = width
	if t.next > resetDropCap {
		t.keys, t.slots = nil, make([]slot, minSlots)
	}
	t.next = 0
	t.keys = t.keys[:0]
	t.epoch++
	if t.epoch == 0 {
		// A slot stamped 2^32 resets ago would read as live again.
		clear(t.slots)
		t.epoch = 1
	}
}
