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
// Nodes live in their entries and are linked by node id (nodeID), so a
// bucket head is a uint32 and the wheel holds no pointers into the heap.
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
	// bucketRef flags a pprev that names a bucket head, level<<wheelBits |
	// slot, rather than a node. Node ids stay below it (maxEntries).
	bucketRef = 1 << 31
	// firedKeep bounds the fired-id buffer a wheel keeps between advances,
	// so one mass expiry does not pin its peak.
	firedKeep = 1024
)

// Timer lifecycle states.
const (
	timerIdle   uint8 = iota // not scheduled
	timerArmed               // linked into a wheel bucket
	timerQueued              // collected for firing, callback pending
)

// nodeID names timer kind of the entry with id eid: the wheel's link value.
func nodeID(eid uint32, kind TimerKind) uint32 { return eid*NumTimerKinds + uint32(kind) }

// timerNode is one schedulable deadline, embedded in its entry so arming a
// timer never allocates. Bucket membership is kernel-hlist style: pprev
// names the previous node, or the bucket whose head this node is, making
// unlink O(1) with no per-bucket sentinels. The node is 24 bytes
// (TestTimerNodeSize), and every entry embeds two.
type timerNode struct {
	next     uint32 // next node in the bucket; 0 ends it
	pprev    uint32 // previous node, or bucketRef|level<<wheelBits|slot
	deadline int64  // absolute tick
	slack    uint32 // deadline minus the tick the bucket was chosen for; < wheelSpan
	state    uint8
}

// wheel is the per-shard hierarchical timing wheel over the nodes of the
// shard's entries.
type wheel[V any] struct {
	now       int64 // last tick advanced to
	count     int   // armed timers
	slots     [wheelLevels][wheelSlots]uint32
	fired     []uint32 // advance's result, reused
	ents      *slab[V] // the shard's entries, which hold the nodes
	rebuckets uint64   // renewed nodes advance reached early and put back
}

// node resolves a node id.
func (w *wheel[V]) node(id uint32) *timerNode {
	return &w.ents.at(id / NumTimerKinds).timers[id%NumTimerKinds]
}

// schedule (re)arms n, whose id is id, for the given absolute tick. Past
// deadlines are pulled to the next tick so they fire on the next advance.
// An armed node stays linked unless the deadline moves before its bucket's
// tick.
func (w *wheel[V]) schedule(id uint32, n *timerNode, deadline int64) {
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
	w.insert(id, n)
	n.state = timerArmed
	w.count++
}

// cancel disarms n: an armed node is unlinked from its bucket, a queued
// node's pending fire is suppressed.
func (w *wheel[V]) cancel(n *timerNode) {
	switch n.state {
	case timerArmed:
		w.unlink(n)
		w.count--
	case timerQueued:
		// Still in the fired list being drained; the drain loop skips
		// non-queued nodes, so flipping the state is enough.
	}
	n.state = timerIdle
}

// insert buckets n, whose id is id, by its deadline. delta ≥ 0 relative to
// w.now; delta 0 (only reachable while cascading) lands in the level-0
// bucket the current advance step is about to expire.
func (w *wheel[V]) insert(id uint32, n *timerNode) {
	n.slack = 0
	delta := n.deadline - w.now
	level := 0
	for level < wheelLevels-1 && delta >= int64(1)<<(wheelBits*(level+1)) {
		level++
	}
	slot := uint32(n.deadline>>(wheelBits*level)) & wheelMask
	head := &w.slots[level][slot]
	n.next = *head
	if n.next != 0 {
		w.node(n.next).pprev = id
	}
	*head = id
	n.pprev = bucketRef | uint32(level)<<wheelBits | slot
}

func (w *wheel[V]) unlink(n *timerNode) {
	if n.pprev&bucketRef != 0 {
		w.slots[n.pprev>>wheelBits&(wheelLevels-1)][n.pprev&wheelMask] = n.next
	} else {
		w.node(n.pprev).next = n.next
	}
	if n.next != 0 {
		w.node(n.next).pprev = n.pprev
	}
	n.next = 0
	n.pprev = 0
}

// advance moves the wheel to the target tick and returns the ids of the
// nodes whose deadlines passed, in expiry order. Returned nodes are in
// state timerQueued; the caller fires each one that is still queued when
// its turn comes. The slice is the wheel's own and is reused by the next
// advance. Spans that provably hold no deadline and no occupied cascade are
// crossed in one step, so catching up after a long sleep costs O(events),
// not O(ticks elapsed).
func (w *wheel[V]) advance(target int64) []uint32 {
	if cap(w.fired) > firedKeep {
		w.fired = nil
	}
	w.fired = w.fired[:0]
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
			id := *slot
			*slot = 0
			for id != 0 {
				n := w.node(id)
				next := n.next
				w.insert(id, n)
				id = next
			}
		}
		// Expire the level-0 bucket for this tick.
		slot := &w.slots[0][w.now&wheelMask]
		for id := *slot; id != 0; {
			n := w.node(id)
			next := n.next
			if n.deadline > w.now {
				// Pushed later since it was bucketed: back in by deadline,
				// never into this bucket (a full rotation away by now).
				w.insert(id, n)
				w.rebuckets++
				id = next
				continue
			}
			n.next = 0
			n.pprev = 0
			n.state = timerQueued
			w.fired = append(w.fired, id)
			w.count--
			id = next
		}
		*slot = 0
	}
	return w.fired
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
		if w.slots[0][tick&wheelMask] != 0 {
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
			if w.slots[l][idx&wheelMask] != 0 {
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
