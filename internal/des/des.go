// Package des implements a small discrete-event simulation kernel: a
// virtual clock, an event heap with stable FIFO ordering for simultaneous
// events, cancellable event handles, and restartable timers.
//
// Time is a float64 in seconds to match the analytic models. Determinism
// is absolute: given the same schedule of callbacks and random streams,
// two runs produce identical event orders, which the experiment harness
// relies on for reproducible figures.
package des

import "fmt"

// Event is a scheduled callback. The zero value is meaningless; events are
// created through Kernel.Schedule or Kernel.At.
type Event struct {
	time      float64
	seq       uint64
	fn        func()
	cancelled bool
	index     int // position in heap, -1 when popped
}

// Cancel prevents the event from firing. Cancelling an already fired or
// already cancelled event is a no-op, so callers need not track state.
func (e *Event) Cancel() { e.cancelled = true }

// Kernel is the simulation executive. The zero value is ready to use.
// A Kernel must be driven from a single goroutine.
type Kernel struct {
	now   float64
	seq   uint64
	heap  []*Event
	fired uint64
}

// New returns a fresh kernel at time 0.
func New() *Kernel { return &Kernel{} }

// Now returns the current virtual time.
func (k *Kernel) Now() float64 { return k.now }

// Fired returns the number of events executed so far (cancelled events are
// not counted). Exposed for engine benchmarks and diagnostics.
func (k *Kernel) Fired() uint64 { return k.fired }

// Schedule runs fn after delay units of virtual time. Negative delays
// panic: the simulation cannot travel backwards.
func (k *Kernel) Schedule(delay float64, fn func()) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("des: negative delay %v", delay))
	}
	return k.At(k.now+delay, fn)
}

// At runs fn at absolute virtual time t, which must not precede Now.
func (k *Kernel) At(t float64, fn func()) *Event {
	if t < k.now {
		panic(fmt.Sprintf("des: scheduling at %v before now %v", t, k.now))
	}
	if fn == nil {
		panic("des: nil event callback")
	}
	e := &Event{time: t, seq: k.seq, fn: fn}
	k.seq++
	k.push(e)
	return e
}

// Rearm reschedules e to fire at absolute time t, reusing the event
// object: if e is still pending its heap node is resifted in place, and if
// it already fired (or was removed) it is pushed back. Either way e gets a
// fresh sequence number, so it orders against same-time events exactly as
// a newly created event would. This is the allocation-free form of
// Cancel-then-At that restartable timers use: no cancelled tombstone is
// left to bloat the heap, and no new Event is allocated.
//
// The caller must own e exclusively (it is the only holder of the
// pointer); events handed to third parties must not be rearmed.
func (k *Kernel) Rearm(e *Event, t float64) {
	if t < k.now {
		panic(fmt.Sprintf("des: rearming at %v before now %v", t, k.now))
	}
	e.time = t
	e.seq = k.seq
	k.seq++
	e.cancelled = false
	if e.index >= 0 {
		k.fix(e.index)
		return
	}
	k.push(e)
}

// Remove detaches e from the heap immediately if it is still pending —
// unlike Cancel, which leaves a tombstone for lazy discard — and marks it
// cancelled either way. Removing a fired or already removed event is a
// no-op. Like Rearm, it requires exclusive ownership of e.
func (k *Kernel) Remove(e *Event) {
	e.cancelled = true
	if e.index < 0 {
		return
	}
	i := e.index
	n := len(k.heap) - 1
	k.swap(i, n)
	k.heap[n] = nil
	k.heap = k.heap[:n]
	e.index = -1
	if i < n {
		k.fix(i)
	}
}

// PopDue removes the next pending event if its time is ≤ horizon, advances
// the clock to it, and returns its callback without running it. Callers
// that need to release locks around event execution (the virtual clock in
// internal/clock) use this instead of Step.
func (k *Kernel) PopDue(horizon float64) func() {
	for {
		e := k.peek()
		if e == nil || e.time > horizon {
			return nil
		}
		k.pop()
		if e.cancelled {
			continue
		}
		k.now = e.time
		k.fired++
		return e.fn
	}
}

// Step executes the next pending event, if any, and reports whether one
// was executed. Cancelled events are discarded without executing.
func (k *Kernel) Step() bool {
	for {
		e := k.pop()
		if e == nil {
			return false
		}
		if e.cancelled {
			continue
		}
		k.now = e.time
		k.fired++
		e.fn()
		return true
	}
}

// RunUntil executes events with time ≤ horizon, then advances the clock to
// exactly horizon. Events scheduled beyond the horizon stay queued.
func (k *Kernel) RunUntil(horizon float64) {
	for {
		e := k.peek()
		if e == nil || e.time > horizon {
			break
		}
		k.Step()
	}
	if horizon > k.now {
		k.now = horizon
	}
}

// --- binary heap keyed on (time, seq) ---

func (k *Kernel) less(i, j int) bool {
	a, b := k.heap[i], k.heap[j]
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

func (k *Kernel) swap(i, j int) {
	k.heap[i], k.heap[j] = k.heap[j], k.heap[i]
	k.heap[i].index = i
	k.heap[j].index = j
}

func (k *Kernel) push(e *Event) {
	e.index = len(k.heap)
	k.heap = append(k.heap, e)
	k.up(e.index)
}

func (k *Kernel) peek() *Event {
	for len(k.heap) > 0 && k.heap[0].cancelled {
		k.removeTop()
	}
	if len(k.heap) == 0 {
		return nil
	}
	return k.heap[0]
}

func (k *Kernel) pop() *Event {
	if len(k.heap) == 0 {
		return nil
	}
	e := k.heap[0]
	k.removeTop()
	return e
}

func (k *Kernel) removeTop() {
	n := len(k.heap) - 1
	top := k.heap[0]
	k.swap(0, n)
	k.heap[n] = nil
	k.heap = k.heap[:n]
	if n > 0 {
		k.down(0)
	}
	top.index = -1
}

func (k *Kernel) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !k.less(i, parent) {
			break
		}
		k.swap(i, parent)
		i = parent
	}
}

// fix restores the heap invariant after the key at index i changed in
// place (container/heap.Fix equivalent).
func (k *Kernel) fix(i int) {
	if !k.down(i) {
		k.up(i)
	}
}

// down sinks the element at index i and reports whether it moved.
func (k *Kernel) down(i int) bool {
	n := len(k.heap)
	start := i
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && k.less(l, smallest) {
			smallest = l
		}
		if r < n && k.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return i != start
		}
		k.swap(i, smallest)
		i = smallest
	}
}
