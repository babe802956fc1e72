// Package statetable is a sharded, concurrent soft-state key table with a
// hierarchical timing wheel per shard. It is the scaling substrate for
// internal/signal: where the naive runtime kept one mutex and one
// time.Timer per key per endpoint, the table hashes keys (FNV-1a) across a
// power-of-two number of shards, guards each shard with its own lock, finds
// a key through the shard's open-addressed index, and multiplexes every
// refresh/timeout/retransmit deadline of a shard onto a timing wheel driven
// by one clock.Timer — millions of keys cost millions of index slots, not
// millions of timers, and a table at rest owns no goroutine at all.
//
// Each entry owns NumTimerKinds independently schedulable timers. Their
// nodes live in the shard's wheel, in chunks allocated by the first timer
// of a kind armed in an entry chunk, so rearming and expiry never allocate
// and a kind a table never arms costs it nothing. Entries live in per-shard
// chunks that never move (slab.go), and the index and the wheel name them
// by 32-bit id, not by pointer. Expiry callbacks and the closures passed to
// Upsert and Update run with the entry's shard locked; they mutate the
// entry and its timers through the TimerControl handle and must not call
// other Table methods (that would deadlock on the same shard).
package statetable

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
	"time"

	"softstate/internal/clock"
)

// TimerKind selects one of an entry's independent timer slots.
type TimerKind uint8

// NumTimerKinds is how many timers each entry owns (kinds 0 and 1). Two
// covers every endpoint in internal/signal: a sender arms refresh and
// retransmit, a receiver arms state-timeout.
const NumTimerKinds = 2

// DefaultShards is the shard count used when Config.Shards is 0.
const DefaultShards = 16

// DefaultTick is the wheel granularity used when Config.Tick is 0: timers
// fire within about one tick of their deadline.
const DefaultTick = time.Millisecond

// ExpireFunc is called when a timer fires. It runs on the shard's clock
// timer callback with the shard locked; use tc to reschedule, cancel, or
// delete, and do not call Table methods from inside it.
type ExpireFunc[V any] func(key string, kind TimerKind, v *V, tc TimerControl[V])

// Config parameterizes a Table.
type Config[V any] struct {
	// Shards is the shard count, rounded up to a power of two
	// (DefaultShards when 0). Each shard has one lock, one wheel, and one
	// clock timer, so it bounds lock contention and how many expiry
	// callbacks can run at once.
	Shards int
	// Tick is the timing-wheel granularity (DefaultTick when 0).
	Tick time.Duration
	// OnExpire handles timer expiry. A Table without it still works as a
	// plain sharded map, but scheduled timers fire into nothing.
	OnExpire ExpireFunc[V]
	// Clock is the time source driving the wheels (clock.System when nil).
	// Each wheel advance is a callback of the shard's clock timer, armed
	// for the shard's earliest deadline: a time.AfterFunc goroutine under
	// clock.System, an event on the simulation driver under a virtual
	// clock. Either way an idle shard has nothing armed and nothing
	// running.
	Clock clock.Clock
}

// entry is one key's record: the caller's value and the index tag it is
// filed under, so removing it never rehashes the key. It adds 24 bytes to
// the value (TestEntryOverhead); its timer nodes live in the wheel. key
// never changes while the entry is filed; everything is guarded by the
// shard's lock.
type entry[V any] struct {
	key   string
	value V
	tag   uint32 // on the free list: the id of the next free slot
	// dropped marks an entry removed from its shard whose slot is not yet
	// released: a second delete does nothing, and the closure that deleted
	// it can still read its value.
	dropped bool
}

// shard is one lock domain: its entries, an index of their keys, and its
// timing wheel.
type shard[V any] struct {
	mu       sync.Mutex
	ents     slab[V]
	idx      index
	wheel    wheel
	nextWake int64       // absolute tick the timer is armed for
	needPoke bool        // a deadline earlier than nextWake was scheduled
	pokeTick int64       // earliest such deadline (the timer is re-armed to it)
	timer    clock.Timer // drives this shard's wheel advances (fireShard)
}

// Table is the sharded soft-state table. All methods are safe for
// concurrent use.
type Table[V any] struct {
	cfg    Config[V]
	seed   maphash.Seed // per table, so slot placement cannot be precomputed
	clk    clock.Clock
	tick   time.Duration
	start  time.Time
	shards []shard[V]
	mask   uint32
	size   atomic.Int64
	closed atomic.Bool
}

// New creates a table. Nothing runs until a deadline is scheduled.
func New[V any](cfg Config[V]) *Table[V] {
	n := cfg.Shards
	if n <= 0 {
		n = DefaultShards
	}
	shards := 1
	for shards < n {
		shards <<= 1
	}
	tick := cfg.Tick
	if tick <= 0 {
		tick = DefaultTick
	}
	clk := clock.Or(cfg.Clock)
	t := &Table[V]{
		cfg:    cfg,
		seed:   maphash.MakeSeed(),
		clk:    clk,
		tick:   tick,
		start:  clk.Now(),
		shards: make([]shard[V], shards),
		mask:   uint32(shards - 1),
	}
	for i := range t.shards {
		sh := &t.shards[i]
		sh.idx = newIndex()
		sh.wheel.chunkLen = chunkLen[V]()
		sh.nextWake = int64(1)<<62 - 1
		// The clock calls fireShard at each due tick; unlockAndPoke arms
		// the timer the first time a deadline is scheduled.
		sh.timer = clk.NewTimer(func() { t.fireShard(sh) })
	}
	return t
}

// NumShards returns the (power-of-two) shard count.
func (t *Table[V]) NumShards() int { return len(t.shards) }

// Len returns the number of entries.
func (t *Table[V]) Len() int { return int(t.size.Load()) }

// WheelDepth returns the number of armed timers on shard i's wheel — the
// load metric telemetry exposes per shard. It takes the shard lock
// briefly; scrape-time use only.
func (t *Table[V]) WheelDepth(i int) int {
	sh := &t.shards[i]
	sh.mu.Lock()
	n := sh.wheel.count
	sh.mu.Unlock()
	return n
}

// WheelRebuckets counts the renewed timers shard i's wheel reached before
// their deadline and re-bucketed instead of firing. Scrape-time use only.
func (t *Table[V]) WheelRebuckets(i int) uint64 {
	sh := &t.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.wheel.rebuckets
}

// Close stops the shard timers and waits for in-flight expiry callbacks
// to finish. Timers never fire after Close returns; the table contents
// remain readable. Stopping a clock timer does not recall a callback the
// clock already dispatched, so the guarantee rests on the shard lock:
// Close passes through each one after setting the closed flag, and
// fireShard and unlockAndPoke re-check the flag under it — a dispatched
// callback has either finished by then or will find the table closed.
// Under a virtual clock Close must run on the clock's driver goroutine.
func (t *Table[V]) Close() {
	if t.closed.Swap(true) {
		return
	}
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		sh.timer.Stop()
		sh.mu.Unlock()
	}
}

// Hash32 is the allocation-free FNV-1a hash used to pick a shard; other
// sharded structures in the runtime (e.g. the per-destination peer table
// in internal/signal) reuse it so the repo has one string hash. It is
// deterministic, which keeps a key on the same shard — and so its timers in
// the same fire order — from run to run; it is also computable by anyone,
// which is why it picks only the shard and never a slot inside it (tagOf).
func Hash32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Hash32Bytes is Hash32 for a byte-slice key.
func Hash32Bytes(s []byte) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func (t *Table[V]) shardOf(key string) *shard[V] {
	return &t.shards[Hash32(key)&t.mask]
}

// tagOf is a key's index tag: the upper half of its hash under the table's
// seed. A peer that crafts keys to collide under FNV-1a lands them all on
// one shard, but cannot aim them at one slot of that shard's index.
func (t *Table[V]) tagOf(key string) uint32 {
	return uint32(maphash.String(t.seed, key) >> 32)
}

// tickNow converts clock progress to wheel ticks.
func (t *Table[V]) tickNow() int64 {
	return int64(t.clk.Since(t.start) / t.tick)
}

// DeadlineTick converts a relative delay to an absolute tick, rounding up
// so timers never fire early: the argument of TimerControl.ScheduleAt.
func (t *Table[V]) DeadlineTick(delay time.Duration) int64 {
	if delay < 0 {
		delay = 0
	}
	return int64((t.clk.Since(t.start) + delay + t.tick - 1) / t.tick)
}

// Upsert locks the key's shard and calls fn with the entry's value,
// creating the entry first if absent (created reports which). fn may be
// nil to just ensure presence.
func (t *Table[V]) Upsert(key string, fn func(v *V, created bool, tc TimerControl[V])) {
	sh, tag := t.shardOf(key), t.tagOf(key)
	sh.mu.Lock()
	id, e := sh.find(tag, key)
	created := e == nil
	if created {
		id, e = sh.ents.alloc()
		e.key, e.tag = key, tag
		sh.idx.put(tag, id)
		t.size.Add(1)
	}
	if fn != nil {
		fn(&e.value, created, TimerControl[V]{t: t, sh: sh, e: e, id: id})
	}
	t.settleLocked(sh, id, e)
	t.unlockAndPoke(sh)
}

// Update locks the key's shard and calls fn if the entry exists, reporting
// whether it did.
func (t *Table[V]) Update(key string, fn func(v *V, tc TimerControl[V])) bool {
	sh, tag := t.shardOf(key), t.tagOf(key)
	sh.mu.Lock()
	id, e := sh.find(tag, key)
	ok := e != nil
	if ok && fn != nil {
		fn(&e.value, TimerControl[V]{t: t, sh: sh, e: e, id: id})
		t.settleLocked(sh, id, e)
	}
	t.unlockAndPoke(sh)
	return ok
}

// UpdateBytes is Update for a byte-slice key: the lookup hashes and
// compares key in place (no string allocation), so decode paths that renew
// existing entries straight out of a datagram buffer — a receiver
// absorbing summary refreshes — touch the table allocation-free. It never
// inserts.
func (t *Table[V]) UpdateBytes(key []byte, fn func(v *V, tc TimerControl[V])) bool {
	sh := &t.shards[Hash32Bytes(key)&t.mask]
	tag := uint32(maphash.Bytes(t.seed, key) >> 32) // tagOf, without the string
	sh.mu.Lock()
	id, e := sh.findBytes(tag, key)
	ok := e != nil
	if ok && fn != nil {
		fn(&e.value, TimerControl[V]{t: t, sh: sh, e: e, id: id})
		t.settleLocked(sh, id, e)
	}
	t.unlockAndPoke(sh)
	return ok
}

// Get returns a copy of the value stored for key.
func (t *Table[V]) Get(key string) (V, bool) {
	sh := t.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, e := sh.find(t.tagOf(key), key); e != nil {
		return e.value, true
	}
	var zero V
	return zero, false
}

// Delete removes key, cancelling its timers, and reports whether it
// existed.
func (t *Table[V]) Delete(key string) bool {
	sh := t.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	id, e := sh.find(t.tagOf(key), key)
	if e == nil {
		return false
	}
	t.dropLocked(sh, id, e)
	sh.release(id, e)
	return true
}

// Schedule arms the kind timer of key to fire after delay, reporting
// whether the key exists. Rearming an armed timer moves its deadline.
func (t *Table[V]) Schedule(key string, kind TimerKind, delay time.Duration) bool {
	return t.Update(key, func(_ *V, tc TimerControl[V]) { tc.Schedule(kind, delay) })
}

// Cancel disarms the kind timer of key, reporting whether the key exists.
// After Cancel returns, the timer's callback either already completed or
// will never run.
func (t *Table[V]) Cancel(key string, kind TimerKind) bool {
	return t.Update(key, func(_ *V, tc TimerControl[V]) { tc.Cancel(kind) })
}

// Range calls fn for every entry until fn returns false, locking one shard
// at a time. fn must not call Table methods. Entries added or removed
// concurrently in other shards may or may not be seen.
func (t *Table[V]) Range(fn func(key string, v *V) bool) {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for _, s := range sh.idx.slots {
			if s.id == 0 {
				continue
			}
			if e := sh.ents.at(s.id); !fn(e.key, &e.value) {
				sh.mu.Unlock()
				return
			}
		}
		sh.mu.Unlock()
	}
}

// Armed reports how many kind timers are currently armed (scheduled and
// not yet fired or cancelled) across all shards. It walks every entry one
// shard lock at a time, so it is a diagnostic — tests use it to prove a
// retransmission engine left no stale timers behind after convergence —
// not a hot-path counter.
func (t *Table[V]) Armed(kind TimerKind) int {
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for _, s := range sh.idx.slots {
			if s.id != 0 && sh.wheel.state(nodeID(s.id, kind)) != timerIdle {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// TimersArmed counts the armed timers of every kind in a single walk —
// the same diagnostic traversal as Armed, but one pass returns the whole
// audit, which is what invariant checkers run after every adversarial
// step want.
func (t *Table[V]) TimersArmed() [NumTimerKinds]int {
	var n [NumTimerKinds]int
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for _, s := range sh.idx.slots {
			if s.id == 0 {
				continue
			}
			for k := range n {
				if sh.wheel.state(nodeID(s.id, TimerKind(k))) != timerIdle {
					n[k]++
				}
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// Keys returns all keys in no particular order.
func (t *Table[V]) Keys() []string {
	out := make([]string, 0, t.Len())
	t.Range(func(key string, _ *V) bool {
		out = append(out, key)
		return true
	})
	return out
}

// dropLocked removes e, whose id is id, from its shard's index and wheel,
// leaving the slot to release; callers hold sh.mu. Dropping an
// entry a second time (a closure that calls Delete twice) does nothing.
func (t *Table[V]) dropLocked(sh *shard[V], id uint32, e *entry[V]) {
	if e.dropped {
		return
	}
	sh.idx.del(e.tag, id)
	for k := TimerKind(0); k < NumTimerKinds; k++ {
		sh.wheel.cancel(nodeID(id, k))
	}
	e.dropped = true
	t.size.Add(-1)
}

// settleLocked ends a closure's or an expiry callback's turn on e: it
// releases e's slot if the callback deleted it — only now, since the
// callback could read its value until it returned.
func (t *Table[V]) settleLocked(sh *shard[V], id uint32, e *entry[V]) {
	if e.dropped {
		sh.release(id, e)
	}
}

// release returns a dropped entry's slot to the free list. A timer the
// deleting callback re-armed after the delete is cancelled with it.
func (sh *shard[V]) release(id uint32, e *entry[V]) {
	sh.wheel.release(id)
	sh.ents.release(id, e)
}

// unlockAndPoke releases the shard, first pulling its timer in to the new
// earliest tick if a deadline earlier than the armed one was scheduled
// while the lock was held. A closed table arms nothing.
func (t *Table[V]) unlockAndPoke(sh *shard[V]) {
	if sh.needPoke {
		sh.needPoke = false
		if !t.closed.Load() {
			sh.nextWake = sh.pokeTick
			sh.timer.Reset(t.start.Add(time.Duration(sh.pokeTick) * t.tick).Sub(t.clk.Now()))
		}
	}
	sh.mu.Unlock()
}

// TimerControl mutates one entry's timers and lifetime. It is only valid
// inside the closure or expiry callback it was passed to, while the shard
// lock is held.
type TimerControl[V any] struct {
	t  *Table[V]
	sh *shard[V]
	e  *entry[V]
	id uint32 // e's id
}

// Key returns the entry's key.
func (tc TimerControl[V]) Key() string { return tc.e.key }

// Schedule arms the kind timer to fire after delay, replacing any earlier
// deadline. A non-positive delay fires on the next wheel tick.
func (tc TimerControl[V]) Schedule(kind TimerKind, delay time.Duration) {
	tc.ScheduleAt(kind, tc.t.DeadlineTick(delay))
}

// ScheduleAt is Schedule for a tick from Table.DeadlineTick, which a caller
// arming many timers with one delay at one instant converts once.
func (tc TimerControl[V]) ScheduleAt(kind TimerKind, tick int64) {
	if tc.sh.wheel.count == 0 {
		// An empty wheel's clock goes stale while the shard idles; re-sync
		// it here so advance never replays the whole idle gap tick by tick
		// under the shard lock. Safe because no armed timer can be skipped.
		if now := tc.t.tickNow(); now > tc.sh.wheel.now {
			tc.sh.wheel.now = now
		}
	}
	n := tc.sh.wheel.schedule(nodeID(tc.id, kind), tick)
	if n.deadline < tc.sh.nextWake {
		if !tc.sh.needPoke || n.deadline < tc.sh.pokeTick {
			tc.sh.pokeTick = n.deadline
		}
		tc.sh.needPoke = true
	}
}

// Ahead reports whether tick is still ahead of the shard's wheel: a timer
// scheduled at it would wait, where one at or behind the wheel is due. An
// expiry callback that learns its entry's lifetime was extended elsewhere
// re-arms only for a tick that is ahead.
func (tc TimerControl[V]) Ahead(tick int64) bool { return tick > tc.sh.wheel.now }

// Cancel disarms the kind timer and suppresses any pending fire.
func (tc TimerControl[V]) Cancel(kind TimerKind) {
	tc.sh.wheel.cancel(nodeID(tc.id, kind))
}

// Delete removes the entry, cancelling all its timers.
func (tc TimerControl[V]) Delete() {
	tc.t.dropLocked(tc.sh, tc.id, tc.e)
}

// advanceLocked moves the shard's wheel to the current tick and runs the
// expiry callbacks of everything due; callers hold sh.mu. It then records
// the shard's next wake tick and returns the clock wait until it (0 when
// idle, reported separately).
func (t *Table[V]) advanceLocked(sh *shard[V]) (wait time.Duration, idle bool) {
	for _, nid := range sh.wheel.advance(t.tickNow()) {
		n := sh.wheel.node(nid)
		if n.state != timerQueued {
			continue // cancelled, rescheduled or released while queued
		}
		n.state = timerIdle
		if t.cfg.OnExpire != nil {
			id, kind := nid/NumTimerKinds, TimerKind(nid%NumTimerKinds)
			e := sh.ents.at(id)
			t.cfg.OnExpire(e.key, kind, &e.value, TimerControl[V]{t: t, sh: sh, e: e, id: id})
			t.settleLocked(sh, id, e)
		}
	}
	idle = sh.wheel.count == 0
	if idle {
		sh.nextWake = int64(1)<<62 - 1
	} else {
		next := sh.wheel.nextEventTick()
		sh.nextWake = next
		wait = t.start.Add(time.Duration(next) * t.tick).Sub(t.clk.Now())
	}
	sh.needPoke = false
	return wait, idle
}

// fireShard is the wheel driver, the callback of the shard's clock timer:
// it advances the wheel to the present and arms the timer for the next
// event. An idle shard arms nothing — the next Schedule re-arms via
// unlockAndPoke. It is idempotent: a callback the wall clock dispatched
// just before a Reset moved the deadline finds nothing due and re-arms
// for the same next event a punctual one would have.
func (t *Table[V]) fireShard(sh *shard[V]) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if t.closed.Load() {
		return // Close raced a callback the clock had already dispatched
	}
	wait, idle := t.advanceLocked(sh)
	if !idle {
		sh.timer.Reset(wait)
	}
}
