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
//
// A table that keeps digests gives each entry chunk a side chunk of
// 12-byte digest cells, allocated with it; one that keeps none allocates
// no cell at all. An entry's timer nodes live in the wheel (wheel.go).

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
	chunks  [][]entry[V]
	digs    [][]digCell // digs[c]: entry chunk c's digest cells (digests only)
	digests bool        // the table keeps digests: allocate digs with chunks
	fill    uint32      // entries handed out from the last chunk
	free    uint32      // the most recently freed id (0: none); its tag names the next
}

// digCell is an entry's cached digest contribution: its bucket and its
// 64-bit sum, held as two halves so the cell is 12 bytes, not 16. A zero
// cell contributes nothing.
type digCell struct {
	bucket       uint32
	sumLo, sumHi uint32
}

func (c *digCell) sum() uint64 { return uint64(c.sumHi)<<32 | uint64(c.sumLo) }

func (c *digCell) set(bucket uint32, sum uint64) {
	c.bucket, c.sumLo, c.sumHi = bucket, uint32(sum), uint32(sum>>32)
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

// dig returns the digest cell of the entry with the given id (nonzero);
// only a table that keeps digests has one.
func (s *slab[V]) dig(id uint32) *digCell {
	id--
	return &s.digs[id>>chunkBits][id&chunkMask]
}

// alloc returns a zeroed entry and its id, reusing a freed slot if there
// is one. Its digest cell, if the table keeps digests, is zero too.
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
		if s.digests {
			s.digs = append(s.digs, make([]digCell, chunkLen[V]()))
		}
		last++
		s.fill = 0
	}
	id := uint32(last)<<chunkBits | s.fill
	s.fill++
	return id + 1, &s.chunks[last][id&chunkMask]
}

// release zeroes e, whose id is id, and its digest cell, and puts its slot
// on the free list. Its timers must be released (wheel.release).
func (s *slab[V]) release(id uint32, e *entry[V]) {
	*e = entry[V]{tag: s.free}
	if s.digests {
		*s.dig(id) = digCell{}
	}
	s.free = id
}
