package statetable

// The hierarchical timing wheel multiplexes every deadline of a shard onto
// one expiry scan, replacing one time.Timer (and its runtime heap entry)
// per key. Level l has wheelSlots buckets of wheelSlots^l ticks each, so
// four levels of 256 cover 2^32 ticks — 49 days at the 1 ms default tick.
// A timer is bucketed at the lowest level whose span still contains its
// delta; when the clock crosses a level boundary the matching upper bucket
// cascades down, and insert/cancel/expire are all O(1).
//
// Moving an armed deadline later — what every refresh does — relinks
// nothing: schedule stores the deadline and leaves the node in the bucket
// chosen for the earlier one, whose tick is never after the deadline, and
// advance re-buckets the node by its current deadline on reaching it, so
// nothing fires early or late. A node linked by deadline d is relinked at
// most wheelLevels-1 times before the clock reaches d: a timer of lifetime
// T renewed every R costs at most wheelLevels links per T-R ticks, however
// many renewals fall in between.
//
// All wheel methods require the owning shard's lock.

const (
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 4
	// wheelSpan is the horizon in ticks; farther deadlines are clamped to
	// it and simply rehash on the way in.
	wheelSpan = int64(1) << (wheelBits * wheelLevels)
)

// Timer lifecycle states.
const (
	timerIdle   uint8 = iota // not scheduled
	timerArmed               // linked into a wheel bucket
	timerQueued              // collected for firing, callback pending
)

// timerNode is one schedulable deadline, embedded in its entry so arming a
// timer never allocates. Bucket membership is kernel-hlist style: pprev
// points at the previous node's next field (or the bucket head), making
// unlink O(1) with no per-bucket sentinels. qnext is separate linkage for
// the expired chain, so a callback rescheduling a still-queued node cannot
// corrupt the chain being drained. slack sits in the padding after state:
// the node is 48 bytes (TestTimerNodeSize), and every entry embeds two.
type timerNode[V any] struct {
	next     *timerNode[V]
	pprev    **timerNode[V]
	qnext    *timerNode[V]
	owner    *entry[V]
	deadline int64 // absolute tick
	kind     TimerKind
	state    uint8
	slack    uint32 // deadline minus the tick the bucket was chosen for; < wheelSpan
}

// wheel is the per-shard hierarchical timing wheel.
type wheel[V any] struct {
	now   int64 // last tick advanced to
	count int   // armed timers
	slots [wheelLevels][wheelSlots]*timerNode[V]

	rebuckets uint64 // renewed nodes advance reached early and put back
}

// schedule (re)arms n for the given absolute tick. Past deadlines are
// pulled to the next tick so they fire on the next advance. An armed node
// stays linked unless the deadline moves before its bucket's tick.
func (w *wheel[V]) schedule(n *timerNode[V], deadline int64) {
	if deadline <= w.now {
		deadline = w.now + 1
	}
	if deadline-w.now >= wheelSpan {
		deadline = w.now + wheelSpan - 1
	}
	if slack := deadline - (n.deadline - int64(n.slack)); n.state == timerArmed && slack >= 0 {
		n.deadline, n.slack = deadline, uint32(slack)
		return
	}
	w.cancel(n)
	n.deadline = deadline
	w.insert(n)
	n.state = timerArmed
	w.count++
}

// cancel disarms n: an armed node is unlinked from its bucket, a queued
// node's pending fire is suppressed.
func (w *wheel[V]) cancel(n *timerNode[V]) {
	switch n.state {
	case timerArmed:
		w.unlink(n)
		w.count--
	case timerQueued:
		// Still on the expired chain being drained; the drain loop skips
		// non-queued nodes, so flipping the state is enough.
	}
	n.state = timerIdle
}

// insert buckets n by its deadline. delta ≥ 0 relative to w.now; delta 0
// (only reachable while cascading) lands in the level-0 bucket the current
// advance step is about to expire.
func (w *wheel[V]) insert(n *timerNode[V]) {
	n.slack = 0
	delta := n.deadline - w.now
	level := 0
	for level < wheelLevels-1 && delta >= int64(1)<<(wheelBits*(level+1)) {
		level++
	}
	head := &w.slots[level][(n.deadline>>(wheelBits*level))&wheelMask]
	n.next = *head
	if n.next != nil {
		n.next.pprev = &n.next
	}
	*head = n
	n.pprev = head
}

func (w *wheel[V]) unlink(n *timerNode[V]) {
	*n.pprev = n.next
	if n.next != nil {
		n.next.pprev = n.pprev
	}
	n.next = nil
	n.pprev = nil
}

// advance moves the wheel to the target tick and returns the chain (via
// qnext, in expiry order) of nodes whose deadlines passed. Returned nodes
// are in state timerQueued; the caller fires each one that is still queued
// when its turn comes. Spans that provably hold no deadline and no
// occupied cascade are crossed in one step, so catching up after a long
// sleep costs O(events), not O(ticks elapsed).
func (w *wheel[V]) advance(target int64) *timerNode[V] {
	var head, tail *timerNode[V]
	for w.now < target {
		if w.count == 0 {
			w.now = target // nothing armed: the rest of the span is empty
			break
		}
		if target-w.now >= wheelSlots {
			// Catching up over a rotation or more: jump straight to the
			// next tick holding a deadline or an occupied cascade.
			next := w.nextEventTick()
			if next > target {
				w.now = target
				break
			}
			if next-1 > w.now {
				w.now = next - 1
			}
		}
		w.now++
		// Cascade every level whose period boundary this tick crosses,
		// highest first so re-buckets settle in one pass.
		for l := wheelLevels - 1; l >= 1; l-- {
			if w.now&(int64(1)<<(wheelBits*l)-1) != 0 {
				continue
			}
			slot := &w.slots[l][(w.now>>(wheelBits*l))&wheelMask]
			n := *slot
			*slot = nil
			for n != nil {
				next := n.next
				w.insert(n)
				n = next
			}
		}
		// Expire the level-0 bucket for this tick.
		slot := &w.slots[0][w.now&wheelMask]
		for n := *slot; n != nil; {
			next := n.next
			if n.deadline > w.now {
				// Pushed later since it was bucketed: back in by deadline,
				// never into this bucket (a full rotation away by now).
				w.insert(n)
				w.rebuckets++
				n = next
				continue
			}
			n.next = nil
			n.pprev = nil
			n.state = timerQueued
			n.qnext = nil
			if tail == nil {
				head, tail = n, n
			} else {
				tail.qnext = n
				tail = n
			}
			w.count--
			n = next
		}
		*slot = nil
	}
	return head
}

// nextEventTick returns the next absolute tick at which advance has work:
// the first occupied level-0 bucket within the current rotation, or the
// earliest cascade that drains an occupied upper-level bucket. Boundaries
// with nothing to cascade are skipped, so a shard holding only far-future
// timers sleeps until the cascade that actually moves them instead of
// waking every rotation. Only meaningful when count > 0.
//
// The upper-level scan is exact: a level-l node's delta was below
// wheelSlots^(l+1) ticks when bucketed and only shrinks afterwards, so its
// bucket index is within one rotation of the current position and the
// first occupied bucket ahead is the one that cascades soonest, at tick
// index<<(wheelBits·l).
func (w *wheel[V]) nextEventTick() int64 {
	best := int64(0)
	for i := int64(1); i < wheelSlots; i++ {
		tick := w.now + i
		if w.slots[0][tick&wheelMask] != nil {
			best = tick
			break
		}
	}
	for l := 1; l < wheelLevels; l++ {
		shift := uint(wheelBits * l)
		cur := w.now >> shift
		if best != 0 && best <= (cur+1)<<shift {
			break // best precedes any cascade at this level or above
		}
		for i := int64(1); i <= wheelSlots; i++ {
			idx := cur + i
			if w.slots[l][idx&wheelMask] != nil {
				if t := idx << shift; best == 0 || t < best {
					best = t
				}
				break
			}
		}
	}
	if best == 0 {
		return w.now + wheelSpan // unreachable while count > 0
	}
	return best
}
