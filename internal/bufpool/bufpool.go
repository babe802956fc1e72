// Package bufpool is a tiny size-capped buffer pool shared by the
// datagram hot paths: wire-message encode buffers in internal/signal and
// frame buffers in internal/transport's stream conns. Steady-state refresh
// traffic recycles the same few buffers instead of allocating one per
// datagram, which is most of what kept the virtual-time experiment
// harness GC-bound.
//
// The pool hands out *Buf wrappers rather than raw slices so that
// returning a buffer never allocates a slice header: the wrapper is the
// pooled object, and the byte slice it carries grows to the workload's
// datagram size and then stays.
package bufpool

import "sync"

// maxPooled caps the capacity of recycled buffers. Anything larger (no
// signaling datagram is) is dropped on Free so one giant buffer cannot
// pin memory in the pool.
const maxPooled = 64 << 10

// Buf is one pooled buffer. Use B freely (typically via append onto
// B[:0]), store the result back into B, and call Free when done.
type Buf struct{ B []byte }

var pool = sync.Pool{New: func() any { return new(Buf) }}

// Get returns a buffer wrapper; its B has unspecified length and
// contents.
func Get() *Buf { return pool.Get().(*Buf) }

// Free recycles b. Callers must not touch b or b.B afterwards.
func (b *Buf) Free() {
	if cap(b.B) > maxPooled {
		b.B = nil
	}
	pool.Put(b)
}
