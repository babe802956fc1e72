package statetable

// index is a shard's key → entry lookup: an open-addressed, linearly
// probed array of 8-byte (tag, entry id) slots. The tag is the upper half
// of the key's seeded hash (Table.tagOf); its low bits pick the home slot
// and a probe compares it before touching the entry, so a lookup that hits
// at home reads one slot and then the entry it was going to read anyway —
// where a string-keyed Go map reads a control word, a group of (string
// header, pointer) pairs and the key bytes first. Every tag match is still
// confirmed against the key byte for byte.
//
// The array is a power of two and at most half full (put doubles it), so
// probe runs stay short; del closes the hole by shifting the rest of the
// run back, so there are no tombstones and a table that churns forever
// probes no further than one that was filled once. The array never
// shrinks. Callers hold the shard lock.
type index struct {
	slots []slot // len is a power of two; id 0 marks an empty slot
	n     int    // occupied slots
}

type slot struct {
	tag uint32
	id  uint32
}

const minIndexSlots = 8

func newIndex() index {
	return index{slots: make([]slot, minIndexSlots)}
}

// find returns the id of the entry stored for key, and the entry, or 0 and
// nil.
func (sh *shard[V]) find(tag uint32, key string) (uint32, *entry[V]) {
	slots := sh.idx.slots
	mask := uint32(len(slots) - 1)
	for i := tag & mask; ; i = (i + 1) & mask {
		s := slots[i]
		if s.id == 0 {
			return 0, nil
		}
		if s.tag == tag {
			if e := sh.ents.at(s.id); e.key == key {
				return s.id, e
			}
		}
	}
}

// findBytes is find for a byte-slice key; the comparison converts in
// place, without allocating.
func (sh *shard[V]) findBytes(tag uint32, key []byte) (uint32, *entry[V]) {
	slots := sh.idx.slots
	mask := uint32(len(slots) - 1)
	for i := tag & mask; ; i = (i + 1) & mask {
		s := slots[i]
		if s.id == 0 {
			return 0, nil
		}
		if s.tag == tag {
			if e := sh.ents.at(s.id); e.key == string(key) {
				return s.id, e
			}
		}
	}
}

// put files id under tag; the caller has checked its key is absent.
func (ix *index) put(tag, id uint32) {
	if (ix.n+1)*2 > len(ix.slots) {
		old := ix.slots
		ix.slots = make([]slot, 2*len(old))
		for _, s := range old {
			if s.id != 0 {
				ix.place(s)
			}
		}
	}
	ix.place(slot{tag: tag, id: id})
	ix.n++
}

// place writes s into the first empty slot of its probe run.
func (ix *index) place(s slot) {
	mask := uint32(len(ix.slots) - 1)
	i := s.tag & mask
	for ix.slots[i].id != 0 {
		i = (i + 1) & mask
	}
	ix.slots[i] = s
}

// del removes id, filed under tag, reporting whether it was present, and
// shifts the rest of its probe run back over the hole: a later slot moves
// up when the hole lies between its home and where it sits, so every
// remaining key stays reachable from its home without crossing an empty
// slot.
func (ix *index) del(tag, id uint32) bool {
	mask := uint32(len(ix.slots) - 1)
	hole := tag & mask
	for ix.slots[hole].id != id {
		if ix.slots[hole].id == 0 {
			return false
		}
		hole = (hole + 1) & mask
	}
	for j := (hole + 1) & mask; ix.slots[j].id != 0; j = (j + 1) & mask {
		if (j-ix.slots[j].tag)&mask >= (j-hole)&mask {
			ix.slots[hole] = ix.slots[j]
			hole = j
		}
	}
	ix.slots[hole] = slot{}
	ix.n--
	return true
}
