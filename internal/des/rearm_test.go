package des

import "testing"

func TestRearmMovesPendingEventInPlace(t *testing.T) {
	k := New()
	var order []string
	a := k.At(5, func() { order = append(order, "a") })
	k.At(3, func() { order = append(order, "b") })
	k.Rearm(a, 1) // a should now fire before b
	if pending := len(k.heap); pending != 2 {
		t.Fatalf("Rearm grew the heap: %d events", pending)
	}
	run(k)
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("order = %v, want [a b]", order)
	}
}

func TestRearmRefreshesFIFOOrder(t *testing.T) {
	// A rearmed event must order after existing events at the same time,
	// exactly as a freshly scheduled one would.
	k := New()
	var order []string
	a := k.At(1, func() { order = append(order, "a") })
	k.At(4, func() { order = append(order, "b") })
	k.Rearm(a, 4)
	run(k)
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Fatalf("order = %v, want [b a] (rearm takes a fresh seq)", order)
	}
}

func TestRearmReusesFiredEvent(t *testing.T) {
	k := New()
	fired := 0
	e := k.At(1, func() { fired++ })
	run(k)
	if fired != 1 {
		t.Fatalf("fired = %d", fired)
	}
	k.Rearm(e, k.Now()+1) // push the same object back
	run(k)
	if fired != 2 {
		t.Fatalf("rearmed event did not fire again: fired = %d", fired)
	}
	if len(k.heap) != 0 {
		t.Fatalf("heap not empty: %d", len(k.heap))
	}
}

func TestRemoveDetachesImmediately(t *testing.T) {
	k := New()
	fired := false
	e := k.Schedule(1, func() { fired = true })
	k.Schedule(2, func() {})
	k.Remove(e)
	if pending := len(k.heap); pending != 1 {
		t.Fatalf("Remove left a tombstone: %d events pending", pending)
	}
	run(k)
	if fired {
		t.Fatal("removed event fired")
	}
	k.Remove(e) // removing again is a no-op
}

func TestTimerResetDoesNotBloatHeap(t *testing.T) {
	k := New()
	tm := k.NewTimer(func() {})
	for i := 0; i < 10000; i++ {
		tm.Reset(float64(i + 1))
	}
	if pending := len(k.heap); pending != 1 {
		t.Fatalf("10k resets left %d heap events, want 1", pending)
	}
	tm.Stop()
	if pending := len(k.heap); pending != 0 {
		t.Fatalf("Stop left %d heap events, want 0", pending)
	}
	if tm.Active() {
		t.Fatal("stopped timer reports active")
	}
}
