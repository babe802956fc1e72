package statetable

// refIndex is the shard index as it was with 16-byte (tag, *entry) slots.
// FuzzIndex and TestIndexModel run it beside the id-slot index on the same
// script and require every key in the same slot — the order Range walks.
// It is a reference, not a second implementation: nothing outside the
// tests runs it.
type refIndex struct {
	slots []refSlot
	n     int
}

type refSlot struct {
	tag uint32
	e   *refEntry
}

type refEntry struct {
	key string
	tag uint32
}

func newRefIndex() refIndex {
	return refIndex{slots: make([]refSlot, minIndexSlots)}
}

func (ix *refIndex) put(e *refEntry) {
	if (ix.n+1)*2 > len(ix.slots) {
		old := ix.slots
		ix.slots = make([]refSlot, 2*len(old))
		for _, s := range old {
			if s.e != nil {
				ix.place(s)
			}
		}
	}
	ix.place(refSlot{tag: e.tag, e: e})
	ix.n++
}

func (ix *refIndex) place(s refSlot) {
	mask := uint32(len(ix.slots) - 1)
	i := s.tag & mask
	for ix.slots[i].e != nil {
		i = (i + 1) & mask
	}
	ix.slots[i] = s
}

func (ix *refIndex) del(e *refEntry) bool {
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
	ix.slots[hole] = refSlot{}
	ix.n--
	return true
}
