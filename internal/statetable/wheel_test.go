package statetable

import (
	"testing"
)

// testWheel is a wheel over entries of its own, without a table around
// it, so it can be driven deterministically.
type testWheel struct {
	wheel
	ents slab[int]
}

func newTestWheel() *testWheel {
	return &testWheel{wheel: wheel{entrySize: entrySize[int]()}}
}

// newNode adds an entry named key the way Upsert does and returns the id
// of its kind-0 timer.
func (w *testWheel) newNode(key string) uint32 {
	id, e := w.ents.alloc()
	e.key = key
	return nodeID(id, 0)
}

func (w *testWheel) key(id uint32) string { return w.ents.at(id / NumTimerKinds).key }

// drain lists the keys of the fired nodes still queued.
func (w *testWheel) drain(fired []uint32) []string {
	var out []string
	for _, id := range fired {
		if w.node(id).state == timerQueued {
			out = append(out, w.key(id))
		}
	}
	return out
}

// TestWheelFiresAtExactTick schedules deltas that land in every level of
// the hierarchy and verifies each fires at its deadline tick, never early.
func TestWheelFiresAtExactTick(t *testing.T) {
	deltas := []int64{1, 2, 100, 255, 256, 257, 300, 511, 512,
		wheelSlots*wheelSlots - 1, wheelSlots * wheelSlots, wheelSlots*wheelSlots + 70000}
	for _, delta := range deltas {
		w := newTestWheel()
		n := w.newNode("k")
		w.schedule(n, delta)
		if w.count != 1 {
			t.Fatalf("delta %d: count = %d", delta, w.count)
		}
		if fired := w.advance(delta - 1); len(fired) != 0 {
			t.Fatalf("delta %d: fired %v early at tick %d", delta, w.drain(fired), w.now)
		}
		fired := w.advance(delta)
		if got := w.drain(fired); len(got) != 1 || got[0] != "k" {
			t.Fatalf("delta %d: fired = %v at deadline", delta, got)
		}
		if w.count != 0 {
			t.Fatalf("delta %d: count = %d after fire", delta, w.count)
		}
	}
}

// TestWheelFiresMidRotation covers deadlines inserted mid-rotation whose
// level-0 slot index wraps past the rotation boundary.
func TestWheelFiresMidRotation(t *testing.T) {
	w := newTestWheel()
	w.advance(0x80) // park the wheel mid-rotation
	n := w.newNode("wrap")
	w.schedule(n, 0x130) // delta 0xB0 < 256, slot 0x30 is behind now&mask
	if fired := w.advance(0x12F); len(fired) != 0 {
		t.Fatalf("fired early: %v", w.drain(fired))
	}
	if got := w.drain(w.advance(0x130)); len(got) != 1 {
		t.Fatalf("fired = %v", got)
	}
}

// TestWheelPastDeadlineFiresNextTick: a deadline at or before now is
// pulled to now+1 rather than lost.
func TestWheelPastDeadlineFiresNextTick(t *testing.T) {
	w := newTestWheel()
	w.advance(50)
	for _, deadline := range []int64{0, 49, 50} {
		n := w.newNode("past")
		w.schedule(n, deadline)
		if got := w.drain(w.advance(51)); len(got) != 1 {
			t.Fatalf("deadline %d: fired = %v", deadline, got)
		}
		w.now = 50 // rewind for the next case
	}
}

// TestWheelBeyondHorizonClamps: deadlines past the wheel span still fire,
// at the clamped horizon.
func TestWheelBeyondHorizonClamps(t *testing.T) {
	w := newTestWheel()
	n := w.newNode("far")
	w.schedule(n, wheelSpan*3)
	if d := w.node(n).deadline; d != wheelSpan-1 {
		t.Fatalf("clamped deadline = %d, want %d", d, wheelSpan-1)
	}
}

// TestWheelCancelArmed: cancelling an armed timer unlinks it and it never
// fires.
func TestWheelCancelArmed(t *testing.T) {
	w := newTestWheel()
	a, b := w.newNode("a"), w.newNode("b")
	w.schedule(a, 10)
	w.schedule(b, 10) // same bucket, exercises mid-list unlink
	w.cancel(a)
	if w.count != 1 {
		t.Fatalf("count = %d after cancel", w.count)
	}
	if got := w.drain(w.advance(10)); len(got) != 1 || got[0] != "b" {
		t.Fatalf("fired = %v, want [b]", got)
	}
	w.cancel(b) // cancelling an idle node is a no-op
	if w.count != 0 {
		t.Fatalf("count = %d", w.count)
	}
}

// TestWheelCancelQueued: a node already collected for firing is suppressed
// by cancel — the stop-vs-fire race resolved in favour of stop.
func TestWheelCancelQueued(t *testing.T) {
	w := newTestWheel()
	a, b := w.newNode("a"), w.newNode("b")
	w.schedule(a, 5)
	w.schedule(b, 5)
	fired := w.advance(5)
	// Both queued; cancel one before the drain loop reaches it.
	w.cancel(a)
	got := w.drain(fired)
	if len(got) != 1 || got[0] != "b" {
		t.Fatalf("fired = %v, want [b]", got)
	}
}

// TestWheelRescheduleQueued: rescheduling a queued node suppresses the
// stale fire and arms the new deadline.
func TestWheelRescheduleQueued(t *testing.T) {
	w := newTestWheel()
	n := w.newNode("n")
	w.schedule(n, 5)
	fired := w.advance(5)
	w.schedule(n, 20) // reschedule before the drain loop fires it
	if got := w.drain(fired); len(got) != 0 {
		t.Fatalf("stale fire not suppressed: %v", got)
	}
	if got := w.drain(w.advance(20)); len(got) != 1 {
		t.Fatalf("rescheduled fire = %v", got)
	}
}

// TestWheelRescheduleMovesDeadline: rearming an armed timer replaces the
// old deadline entirely.
func TestWheelRescheduleMovesDeadline(t *testing.T) {
	w := newTestWheel()
	n := w.newNode("n")
	w.schedule(n, 10)
	w.schedule(n, 500)
	if w.count != 1 {
		t.Fatalf("count = %d after reschedule", w.count)
	}
	if fired := w.advance(499); len(fired) != 0 {
		t.Fatalf("old deadline fired: %v", w.drain(fired))
	}
	if got := w.drain(w.advance(500)); len(got) != 1 {
		t.Fatalf("fired = %v", got)
	}
}

// TestWheelExpiryOrder: deadlines fire in tick order within one advance.
func TestWheelExpiryOrder(t *testing.T) {
	w := newTestWheel()
	keys := []string{"c", "a", "b"}
	ticks := []int64{30, 10, 20}
	for i, k := range keys {
		w.schedule(w.newNode(k), ticks[i])
	}
	got := w.drain(w.advance(100))
	want := []string{"a", "b", "c"}
	if len(got) != 3 {
		t.Fatalf("fired = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired = %v, want %v", got, want)
		}
	}
}

// TestWheelMassExpiryOneTick: 100k timers on the same tick all fire in a
// single advance.
func TestWheelMassExpiryOneTick(t *testing.T) {
	w := newTestWheel()
	const n = 100_000
	for i := 0; i < n; i++ {
		w.schedule(w.newNode("k"), 7)
	}
	if w.count != n {
		t.Fatalf("count = %d", w.count)
	}
	if got := w.drain(w.advance(7)); len(got) != n {
		t.Fatalf("fired %d of %d", len(got), n)
	}
	if w.count != 0 {
		t.Fatalf("count = %d after mass expiry", w.count)
	}
}

// TestWheelNextEventTickSkipsEmptyBoundaries: a wheel holding only a
// far-future timer sleeps straight to the cascade that moves it, not to
// every 256-tick rotation boundary in between.
func TestWheelNextEventTickSkipsEmptyBoundaries(t *testing.T) {
	w := newTestWheel()
	n := w.newNode("far")
	w.schedule(n, 70000) // level 2: 65536 ≤ delta < 65536·256
	if got := w.nextEventTick(); got != 65536 {
		t.Fatalf("nextEventTick = %d, want 65536 (level-2 cascade)", got)
	}
	if fired := w.advance(65536); len(fired) != 0 { // cascades down to level 1
		t.Fatalf("fired early: %v", w.drain(fired))
	}
	if got := w.nextEventTick(); got != 69888 {
		t.Fatalf("nextEventTick = %d, want 69888 (level-1 cascade)", got)
	}
	if fired := w.advance(69888); len(fired) != 0 { // cascades down to level 0
		t.Fatalf("fired early: %v", w.drain(fired))
	}
	if got := w.nextEventTick(); got != 70000 {
		t.Fatalf("nextEventTick = %d, want the deadline 70000", got)
	}
}

// TestWheelNextEventTickLevelZeroAcrossBoundary: with no upper-level
// timers, a level-0 deadline past the rotation boundary is reported
// directly — the empty boundary itself is not a wakeup.
func TestWheelNextEventTickLevelZeroAcrossBoundary(t *testing.T) {
	w := newTestWheel()
	w.advance(0x80)
	n := w.newNode("wrap")
	w.schedule(n, 0x130) // delta 0xB0 < 256, slot beyond the 0x100 boundary
	if got := w.nextEventTick(); got != 0x130 {
		t.Fatalf("nextEventTick = %d, want 0x130", got)
	}
}

// TestWheelAdvanceSkipsEmptySpans: catching up across a huge empty span
// costs O(events); without the jump this advance replays ~2^32 ticks one
// by one and the test times out.
func TestWheelAdvanceSkipsEmptySpans(t *testing.T) {
	w := newTestWheel()
	n := w.newNode("far")
	w.schedule(n, wheelSpan*2) // clamped to wheelSpan-1, parked in level 3
	if fired := w.advance(wheelSpan - 2); len(fired) != 0 {
		t.Fatalf("fired early: %v", w.drain(fired))
	}
	if got := w.drain(w.advance(wheelSpan - 1)); len(got) != 1 {
		t.Fatalf("fired = %v at the clamped horizon", got)
	}
	if w.count != 0 {
		t.Fatalf("count = %d after fire", w.count)
	}
}

// TestWheelFiredBufferBound: advance keeps a fired buffer of exactly
// firedKeep ids for the next advance and gives a larger one back.
func TestWheelFiredBufferBound(t *testing.T) {
	w := newTestWheel()
	w.fired = make([]uint32, 0, firedKeep)
	w.advance(1)
	if got := cap(w.fired); got != firedKeep {
		t.Fatalf("a %d-id buffer came back with capacity %d, want it kept", firedKeep, got)
	}
	w.fired = make([]uint32, 0, firedKeep+1)
	w.advance(2)
	if got := cap(w.fired); got != 0 {
		t.Fatalf("a %d-id buffer came back with capacity %d, want it given back", firedKeep+1, got)
	}
}

// TestWheelNextEventTickNearestWins: the earliest event across levels is
// reported, whether it is a level-0 deadline or an upper-level cascade.
func TestWheelNextEventTickNearestWins(t *testing.T) {
	w := newTestWheel()
	w.schedule(w.newNode("far"), 70000)
	w.schedule(w.newNode("near"), 200)
	if got := w.nextEventTick(); got != 200 {
		t.Fatalf("nextEventTick = %d, want 200", got)
	}
}

// TestWheelCascadePreservesManyTimers: timers spread over several levels
// all fire exactly once at the right tick as cascades rehash them.
func TestWheelCascadePreservesManyTimers(t *testing.T) {
	w := newTestWheel()
	type arm struct {
		node     uint32
		deadline int64
	}
	var arms []arm
	for d := int64(1); d < 200_000; d = d*3 + 7 {
		n := w.newNode("k")
		w.schedule(n, d)
		arms = append(arms, arm{n, d})
	}
	firedAt := make(map[uint32]int64)
	for now := int64(1); now <= 200_000; now += 97 {
		for _, n := range w.advance(now) {
			if w.node(n).state != timerQueued {
				continue
			}
			if _, dup := firedAt[n]; dup {
				t.Fatal("timer fired twice")
			}
			firedAt[n] = w.now
		}
	}
	for _, a := range arms {
		at, ok := firedAt[a.node]
		if !ok {
			t.Fatalf("deadline %d never fired", a.deadline)
		}
		// advance is batched 97 ticks at a time, so the observed w.now is
		// the batch target; the node must not have outlived its batch.
		if at < a.deadline || at >= a.deadline+97 {
			t.Fatalf("deadline %d fired in batch ending %d", a.deadline, at)
		}
	}
}
