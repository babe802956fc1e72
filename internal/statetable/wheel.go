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
// The wheel owns its nodes, in chunks parallel to the shard's entry chunks:
// nodes[kind][c] holds kind's node for every entry of entry chunk c (as many
// as the entry chunk holds, chunkCap), and is allocated by the first
// schedule of that kind for any entry in the chunk. A kind the shard never
// arms in a chunk costs it nothing, and a node whose chunk was never
// allocated is idle. Nodes are linked by node id (nodeID), so a bucket head
// is a uint32 and the wheel holds no pointers into the heap. A level's 1 KB
// of heads is allocated by the first node bucketed there and then kept: a
// shard that arms nothing holds no heads, one whose deadlines stay under
// wheelSlots ticks away holds one level's.
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

// timerNode is one schedulable deadline. Bucket membership is kernel-hlist
// style: pprev names the previous node, or the bucket whose head this node
// is, making unlink O(1) with no per-bucket sentinels. The node is 24 bytes
// (TestTimerNodeSize); an entry pays one for each kind armed in its chunk.
type timerNode struct {
	next     uint32 // next node in the bucket; 0 ends it
	pprev    uint32 // previous node, or bucketRef|level<<wheelBits|slot
	deadline int64  // absolute tick
	slack    uint32 // deadline minus the tick the bucket was chosen for; < wheelSpan
	state    uint8
}

// wheel is the per-shard hierarchical timing wheel over the nodes of the
// shard's entries.
type wheel struct {
	now   int64 // last tick advanced to
	count int   // armed timers
	// slots[l] is level l's bucket heads, nil until a node is bucketed there.
	slots     [wheelLevels]*[wheelSlots]uint32
	fired     []uint32                     // advance's result, reused
	nodes     [NumTimerKinds][][]timerNode // nodes[kind][c]: entry chunk c's; nil until one is armed
	entrySize uint32                       // bytes in one of the shard's entries (chunkCap)
	rebuckets uint64                       // renewed nodes advance reached early and put back
}

// node resolves the id of a node whose chunk exists: a linked or queued one.
func (w *wheel) node(id uint32) *timerNode {
	e := id/NumTimerKinds - 1
	return &w.nodes[id%NumTimerKinds][e>>chunkBits][e&chunkMask]
}

// lookup resolves a node id, or returns nil when the node's chunk was never
// allocated: the node is idle.
func (w *wheel) lookup(id uint32) *timerNode {
	e := id/NumTimerKinds - 1
	chunks := w.nodes[id%NumTimerKinds]
	if c := e >> chunkBits; c < uint32(len(chunks)) && chunks[c] != nil {
		return &chunks[c][e&chunkMask]
	}
	return nil
}

// alloc allocates the node chunk holding the given id, on the first
// schedule of its kind for any entry of the entry chunk, and returns the
// node.
func (w *wheel) alloc(id uint32) *timerNode {
	c := (id/NumTimerKinds - 1) >> chunkBits
	chunks := w.nodes[id%NumTimerKinds]
	for uint32(len(chunks)) <= c {
		chunks = append(chunks, nil)
	}
	chunks[c] = make([]timerNode, chunkCap(w.entrySize, c))
	w.nodes[id%NumTimerKinds] = chunks
	return w.node(id)
}

// schedule (re)arms the node with the given id for the given absolute tick
// and returns it. Past deadlines are pulled to the next tick so they fire
// on the next advance. An armed node stays linked unless the deadline moves
// before its bucket's tick.
func (w *wheel) schedule(id uint32, deadline int64) *timerNode {
	n := w.lookup(id)
	if n == nil {
		n = w.alloc(id)
	}
	if deadline <= w.now {
		deadline = w.now + 1
	}
	if deadline-w.now >= wheelSpan {
		deadline = w.now + wheelSpan - 1
	}
	if slack := deadline - (n.deadline - int64(n.slack)); n.state == timerArmed && slack >= 0 {
		n.deadline, n.slack = deadline, uint32(slack)
		return n
	}
	w.disarm(n)
	n.deadline = deadline
	w.insert(id, n)
	n.state = timerArmed
	w.count++
	return n
}

// cancel disarms the node with the given id; one whose chunk was never
// allocated is idle already.
func (w *wheel) cancel(id uint32) {
	if n := w.lookup(id); n != nil {
		w.disarm(n)
	}
}

// release disarms and zeroes the nodes of entry eid, whose slot is being
// freed, so the next entry given its id starts with every timer idle.
func (w *wheel) release(eid uint32) {
	for k := TimerKind(0); k < NumTimerKinds; k++ {
		if n := w.lookup(nodeID(eid, k)); n != nil {
			w.disarm(n)
			*n = timerNode{}
		}
	}
}

// state is the state of the node with the given id.
func (w *wheel) state(id uint32) uint8 {
	if n := w.lookup(id); n != nil {
		return n.state
	}
	return timerIdle
}

// disarm idles n: an armed node is unlinked from its bucket, a queued
// node's pending fire is suppressed.
func (w *wheel) disarm(n *timerNode) {
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
func (w *wheel) insert(id uint32, n *timerNode) {
	n.slack = 0
	delta := n.deadline - w.now
	level := 0
	for level < wheelLevels-1 && delta >= int64(1)<<(wheelBits*(level+1)) {
		level++
	}
	slot := uint32(n.deadline>>(wheelBits*level)) & wheelMask
	if w.slots[level] == nil {
		w.slots[level] = new([wheelSlots]uint32)
	}
	head := &w.slots[level][slot]
	n.next = *head
	if n.next != 0 {
		w.node(n.next).pprev = id
	}
	*head = id
	n.pprev = bucketRef | uint32(level)<<wheelBits | slot
}

func (w *wheel) unlink(n *timerNode) {
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
func (w *wheel) advance(target int64) []uint32 {
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
			if w.now&(int64(1)<<(wheelBits*l)-1) != 0 || w.slots[l] == nil {
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
		if w.slots[0] == nil {
			continue
		}
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
func (w *wheel) nextEventTick() int64 {
	best := int64(0)
	for i := int64(1); w.slots[0] != nil && i < wheelSlots; i++ {
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
		heads := w.slots[l]
		if heads == nil {
			continue // nothing was ever bucketed here
		}
		for i := int64(1); i <= wheelSlots; i++ {
			idx := cur + i
			if heads[idx&wheelMask] != 0 {
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
