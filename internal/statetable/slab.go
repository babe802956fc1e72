package statetable

import "unsafe"

// A shard keeps its entries in chunks: arrays of entries that are
// allocated once and never move, so the *V a callback is handed stays put,
// and everything that links entries — index slots, wheel buckets — names an
// entry by a 32-bit id instead of a pointer. An id is 1 + the entry's chunk
// << chunkBits + its place in the chunk, so 0 names no entry and zeroed
// memory is empty. A deleted entry's slot is zeroed, so it pins neither
// its key nor its value, and goes on a free list the next insert takes
// from first.
//
// A chunk holds as many entries as fit in chunkBytes less the 8-byte type
// header Go puts before a pointerful object larger than 512 bytes: a chunk
// of exactly 4 KB would take the next size class up, 12 % more. Big enough
// that the chunk list costs a fraction of a byte per entry, small enough
// that a shard's partly filled last chunk wastes under 4 KB.

const (
	chunkBytes = 4096 - 8
	chunkBits  = 6 // at most 64 entries a chunk
	chunkMask  = 1<<chunkBits - 1
	// maxEntries caps a shard's ids so that a timer node's id (nodeID)
	// never reaches bucketRef's flag bit; a shard this full would hold
	// over 80 GB.
	maxEntries = 1<<30 - 1
)

type slab[V any] struct {
	chunks [][]entry[V]
	fill   uint32 // entries handed out from the last chunk
	free   uint32 // the most recently freed id (0: none); its tag names the next
}

// chunkLen is how many entries of V a chunk holds.
func chunkLen[V any]() uint32 {
	return uint32(max(1, min(chunkMask+1, chunkBytes/unsafe.Sizeof(entry[V]{}))))
}

// at returns the entry with the given id (nonzero).
func (s *slab[V]) at(id uint32) *entry[V] {
	id--
	return &s.chunks[id>>chunkBits][id&chunkMask]
}

// alloc returns a zeroed entry and its id, reusing a freed slot if there
// is one.
func (s *slab[V]) alloc() (uint32, *entry[V]) {
	if id := s.free; id != 0 {
		e := s.at(id)
		s.free, e.tag = e.tag, 0
		return id, e
	}
	last := len(s.chunks) - 1
	if last < 0 || int(s.fill) == len(s.chunks[last]) {
		if uint64(len(s.chunks))<<chunkBits >= maxEntries {
			panic("statetable: shard full")
		}
		s.chunks = append(s.chunks, make([]entry[V], chunkLen[V]()))
		last++
		s.fill = 0
	}
	id := uint32(last)<<chunkBits | s.fill
	s.fill++
	return id + 1, &s.chunks[last][id&chunkMask]
}

// release zeroes e, whose id is id, and puts its slot on the free list.
// Its timers must be idle.
func (s *slab[V]) release(id uint32, e *entry[V]) {
	*e = entry[V]{tag: s.free}
	s.free = id
}
