package statetable

// refWheel is the timing wheel as it was with pointer links: each 48-byte
// node held its bucket links as pointers, a pointer to its owner and a
// second link for the expired chain. TestWheelModel and FuzzWheel drive it
// beside the id-linked wheel from the same script and require the same
// buckets holding the same nodes in the same order, and the same fires in
// the same order, cascades included. It is a reference, not a second
// implementation: nothing outside the tests runs it.
type refWheel struct {
	now       int64
	count     int
	slots     [wheelLevels][wheelSlots]*refNode
	rebuckets uint64
	used      [wheelLevels]bool // some node was ever bucketed at the level
}

type refNode struct {
	next     *refNode
	pprev    **refNode
	qnext    *refNode
	idx      int // the model node it mirrors
	deadline int64
	state    uint8
	slack    uint32
}

func (w *refWheel) schedule(n *refNode, deadline int64) {
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

func (w *refWheel) cancel(n *refNode) {
	if n.state == timerArmed {
		w.unlink(n)
		w.count--
	}
	n.state = timerIdle
}

func (w *refWheel) insert(n *refNode) {
	n.slack = 0
	delta := n.deadline - w.now
	level := 0
	for level < wheelLevels-1 && delta >= int64(1)<<(wheelBits*(level+1)) {
		level++
	}
	w.used[level] = true
	head := &w.slots[level][(n.deadline>>(wheelBits*level))&wheelMask]
	n.next = *head
	if n.next != nil {
		n.next.pprev = &n.next
	}
	*head = n
	n.pprev = head
}

func (w *refWheel) unlink(n *refNode) {
	*n.pprev = n.next
	if n.next != nil {
		n.next.pprev = n.pprev
	}
	n.next = nil
	n.pprev = nil
}

func (w *refWheel) advance(target int64) *refNode {
	var head, tail *refNode
	for w.now < target {
		if w.count == 0 {
			w.now = target
			break
		}
		if target-w.now >= wheelSlots {
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
		slot := &w.slots[0][w.now&wheelMask]
		for n := *slot; n != nil; {
			next := n.next
			if n.deadline > w.now {
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

func (w *refWheel) nextEventTick() int64 {
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
			break
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
		return w.now + wheelSpan
	}
	return best
}
