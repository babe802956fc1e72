package statetable

// index is a shard's key → entry lookup: an open-addressed, linearly
// probed array of (tag, entry) slots. The tag is the upper half of the
// key's seeded hash (Table.tagOf); its low bits pick the home slot and a
// probe compares it before touching the entry, so a lookup that hits at
// home reads one slot and then the entry it was going to read anyway —
// where a string-keyed Go map reads a control word, a group of (string
// header, pointer) pairs and the key bytes first. Every tag match is still
// confirmed against the key byte for byte.
//
// The array is a power of two and at most half full (put doubles it), so
// probe runs stay short; del closes the hole by shifting the rest of the
// run back, so there are no tombstones and a table that churns forever
// probes no further than one that was filled once. The array never
// shrinks. Callers hold the shard lock.
type index[V any] struct {
	slots []slot[V] // len is a power of two; e == nil marks an empty slot
	n     int       // occupied slots
}

type slot[V any] struct {
	tag uint32
	e   *entry[V]
}

const minIndexSlots = 8

func newIndex[V any]() index[V] {
	return index[V]{slots: make([]slot[V], minIndexSlots)}
}

// get returns the entry stored for key, or nil.
func (ix *index[V]) get(tag uint32, key string) *entry[V] {
	mask := uint32(len(ix.slots) - 1)
	for i := tag & mask; ; i = (i + 1) & mask {
		s := &ix.slots[i]
		if s.e == nil {
			return nil
		}
		if s.tag == tag && s.e.key == key {
			return s.e
		}
	}
}

// getBytes is get for a byte-slice key; the comparison converts in place,
// without allocating.
func (ix *index[V]) getBytes(tag uint32, key []byte) *entry[V] {
	mask := uint32(len(ix.slots) - 1)
	for i := tag & mask; ; i = (i + 1) & mask {
		s := &ix.slots[i]
		if s.e == nil {
			return nil
		}
		if s.tag == tag && s.e.key == string(key) {
			return s.e
		}
	}
}

// put stores e, whose key the caller has checked is absent, under e.tag.
func (ix *index[V]) put(e *entry[V]) {
	if (ix.n+1)*2 > len(ix.slots) {
		old := ix.slots
		ix.slots = make([]slot[V], 2*len(old))
		for _, s := range old {
			if s.e != nil {
				ix.place(s)
			}
		}
	}
	ix.place(slot[V]{tag: e.tag, e: e})
	ix.n++
}

// place writes s into the first empty slot of its probe run.
func (ix *index[V]) place(s slot[V]) {
	mask := uint32(len(ix.slots) - 1)
	i := s.tag & mask
	for ix.slots[i].e != nil {
		i = (i + 1) & mask
	}
	ix.slots[i] = s
}

// del removes e, reporting whether it was present, and shifts the rest of
// its probe run back over the hole: a later slot moves up when the hole
// lies between its home and where it sits, so every remaining key stays
// reachable from its home without crossing an empty slot.
func (ix *index[V]) del(e *entry[V]) bool {
	mask := uint32(len(ix.slots) - 1)
	hole := e.tag & mask
	for ix.slots[hole].e != e {
		if ix.slots[hole].e == nil {
			return false
		}
		hole = (hole + 1) & mask
	}
	for j := (hole + 1) & mask; ix.slots[j].e != nil; j = (j + 1) & mask {
		if (j-ix.slots[j].tag)&mask >= (j-hole)&mask {
			ix.slots[hole] = ix.slots[j]
			hole = j
		}
	}
	ix.slots[hole] = slot[V]{}
	ix.n--
	return true
}
