package statetable

import "unsafe"

// A shard keeps its entries in chunks: arrays of entries that are
// allocated once and never move, so the *V a callback is handed stays put,
// and everything that links entries — index slots, wheel buckets — names an
// entry by a 32-bit id instead of a pointer. An id is 1 + the entry's chunk
// << chunkBits + its place in the chunk, so 0 names no entry and zeroed
// memory is empty. A deleted entry's slot is zeroed, so it pins neither
// its key nor its value, and goes on a free list the next insert takes
// from first. An entry's timer nodes live in the wheel (wheel.go).
//
// A shard's first chunks are small and its later ones full, so a shard
// holding a few dozen entries pays for about that many. Chunk k takes at
// most 512·2^⌊k/2⌋ bytes, up to 4 KB from chunk 6 on, less the 8-byte type
// header Go puts before a pointerful object larger than 512 bytes: each
// budget is a size class, and a chunk one entry larger would take the next
// class up. A chunk is never grown or copied; an id keeps a stride of
// chunkMask+1 per chunk whatever the chunk holds. A shard's last chunk is
// never larger than the chunks before it together, nor than 4 KB, so it
// wastes under half of what the shard allocates, and the chunk list costs
// a fraction of a byte per entry.

const (
	chunkBits = 6 // at most 64 entries a chunk
	chunkMask = 1<<chunkBits - 1
	// firstChunkBytes is the size class of a shard's first two chunks;
	// every two chunks double it, chunkDoublings times.
	firstChunkBytes = 512
	chunkDoublings  = 3
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

// entrySize is the size of an entry of V, which sizes its chunks.
func entrySize[V any]() uint32 { return uint32(unsafe.Sizeof(entry[V]{})) }

// chunkCap is how many entries of size bytes chunk k holds: the wheel sizes
// node chunk k by it too.
func chunkCap(size, k uint32) uint32 {
	budget := uint32(firstChunkBytes)<<min(k/2, chunkDoublings) - 8
	return max(1, min(chunkMask+1, budget/size))
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
		s.chunks = append(s.chunks, make([]entry[V], chunkCap(entrySize[V](), uint32(last+1))))
		last++
		s.fill = 0
	}
	id := uint32(last)<<chunkBits | s.fill
	s.fill++
	return id + 1, &s.chunks[last][id&chunkMask]
}

// release zeroes e, whose id is id, and puts its slot on the free list.
// Its timers must be released (wheel.release).
func (s *slab[V]) release(id uint32, e *entry[V]) {
	*e = entry[V]{tag: s.free}
	s.free = id
}
