package statetable

import "hash/maphash"

// Cursor follows one caller's renewals through one table. A soft-state
// sender sweeps its keys in the same order every refresh interval, so the
// entry a receiver renews next is almost always the one it renewed next
// last time: every entry carries that successor as a hint (entry.next),
// and UpdateBytesAfter tries the hint of the cursor's last entry before it
// hashes anything. The hint is only ever a guess — a hit is confirmed by
// comparing the whole key and checking, under the entry's shard lock, that
// the entry is still in the table — so a wrong or stale one costs a pointer
// load and a failed compare, and the lookup that follows rewrites it.
//
// The zero Cursor is ready to use. A cursor belongs to one goroutine and
// one table; any number of cursors may walk a table at once.
type Cursor[V any] struct {
	last    *entry[V] // the entry this cursor's previous hit or lookup resolved to
	lookups uint64
}

// Reset forgets the cursor's position: the next UpdateBytesAfter goes
// through the index. Callers reset between streams that do not continue
// one another (a receiver does when the source of its datagrams changes),
// so the last key of one stream is not taught to expect the first of the
// next.
func (c *Cursor[V]) Reset() { c.last = nil }

// Cold reports whether the cursor has no position: its next UpdateBytesAfter
// goes through the index whatever the order, and teaches no hint.
func (c *Cursor[V]) Cold() bool { return c.last == nil }

// Follow moves the cursor to where o rests, as if it had just renewed what
// o last renewed. A caller that knows a run of renewals happened without
// walking it (a receiver extending a datagram lease) keeps its place in the
// sweep order this way. The index-lookup count stays the cursor's own.
func (c *Cursor[V]) Follow(o *Cursor[V]) { c.last = o.last }

// IndexLookups counts the UpdateBytesAfter calls on this cursor that went
// through the index — every call the hint did not answer, found or not.
func (c *Cursor[V]) IndexLookups() uint64 { return c.lookups }

// UpdateBytesAfter is UpdateBytes for a caller that renews keys in a
// recurring order: same arguments, same result, same work under the same
// shard lock, but the entry is reached through the hint left on the
// cursor's previous entry when that hint names key, and through the index
// (which then corrects the hint) when it does not.
//
// A hint cannot resolve to the wrong entry: a key is immutable, a live
// entry with that key is the one the index holds (the table has at most
// one), and liveness is read under the lock every drop takes. dropLocked
// points a dropped entry's hint at the entry itself, and the write below
// skips an entry found so marked, so dropped entries never chain: each is
// reachable from at most its live predecessor, until that one is renewed
// or dropped, and from cursors resting on it.
func (t *Table[V]) UpdateBytesAfter(c *Cursor[V], key []byte, fn func(v *V, tc TimerControl[V])) bool {
	last := c.last
	var hint, e *entry[V]
	var sh *shard[V]
	if last != nil {
		hint = last.next.Load()
	}
	if hint != nil && hint.key == string(key) {
		sh = &t.shards[hint.shard]
		sh.mu.Lock()
		if hint.digBucket != digDropped {
			e = hint
		} else {
			sh.mu.Unlock()
		}
	}
	if e == nil {
		c.lookups++
		sh = &t.shards[Hash32Bytes(key)&t.mask]
		tag := uint32(maphash.Bytes(t.seed, key) >> 32) // tagOf, without the string
		sh.mu.Lock()
		if e = sh.idx.getBytes(tag, key); e == nil {
			sh.mu.Unlock()
			return false
		}
		// hint == last is the dropped mark; e == last (one key renewed twice
		// running) must not forge it.
		if last != nil && hint != last && e != last {
			last.next.CompareAndSwap(hint, e)
		}
	}
	c.last = e
	if fn != nil {
		fn(&e.value, TimerControl[V]{t: t, sh: sh, e: e})
		if sh.digDirty {
			t.refreshDigestLocked(sh, e)
		}
	}
	t.unlockAndPoke(sh)
	return true
}
