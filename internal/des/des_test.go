package des

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	k := New()
	var got []int
	k.Schedule(3, func() { got = append(got, 3) })
	k.Schedule(1, func() { got = append(got, 1) })
	k.Schedule(2, func() { got = append(got, 2) })
	run(k)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != 3 {
		t.Fatalf("Now = %v, want 3", k.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	k := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(5, func() { got = append(got, i) })
	}
	run(k)
	for i := range got {
		if got[i] != i {
			t.Fatalf("simultaneous events fired out of order: %v", got)
		}
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	k := New()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	k.Schedule(-1, func() {})
}

func TestAtBeforeNowPanics(t *testing.T) {
	k := New()
	k.Schedule(5, func() {})
	run(k)
	defer func() {
		if recover() == nil {
			t.Fatal("At before now did not panic")
		}
	}()
	k.At(1, func() {})
}

func TestNilCallbackPanics(t *testing.T) {
	k := New()
	defer func() {
		if recover() == nil {
			t.Fatal("nil callback did not panic")
		}
	}()
	k.Schedule(1, nil)
}

func TestCancel(t *testing.T) {
	k := New()
	fired := false
	e := k.Schedule(1, func() { fired = true })
	e.Cancel()
	run(k)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if k.Fired() != 0 {
		t.Fatalf("Fired = %d, want 0", k.Fired())
	}
	e.Cancel() // double cancel is a no-op
}

func TestCancelDuringRun(t *testing.T) {
	k := New()
	fired := false
	var later *Event
	k.Schedule(1, func() { later.Cancel() })
	later = k.Schedule(2, func() { fired = true })
	run(k)
	if fired {
		t.Fatal("event cancelled by an earlier event still fired")
	}
}

func TestScheduleFromCallback(t *testing.T) {
	k := New()
	var times []float64
	k.Schedule(1, func() {
		k.Schedule(1.5, func() { times = append(times, k.Now()) })
	})
	run(k)
	if len(times) != 1 || times[0] != 2.5 {
		t.Fatalf("times = %v, want [2.5]", times)
	}
}

func TestRunUntil(t *testing.T) {
	k := New()
	var fired []float64
	for _, d := range []float64{1, 2, 3, 4} {
		d := d
		k.Schedule(d, func() { fired = append(fired, d) })
	}
	k.RunUntil(2.5)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 1 and 2 only", fired)
	}
	if k.Now() != 2.5 {
		t.Fatalf("Now = %v, want 2.5", k.Now())
	}
	if len(k.heap) != 2 {
		t.Fatalf("Pending = %d, want 2", len(k.heap))
	}
	run(k)
	if len(fired) != 4 {
		t.Fatalf("after Run fired = %v", fired)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	k := New()
	k.RunUntil(100)
	if k.Now() != 100 {
		t.Fatalf("Now = %v, want 100", k.Now())
	}
	// Horizon before now is a no-op, not a regression.
	k.RunUntil(50)
	if k.Now() != 100 {
		t.Fatalf("Now = %v after earlier horizon, want 100", k.Now())
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	k := New()
	if k.Step() {
		t.Fatal("Step on empty kernel returned true")
	}
}

func TestEventTime(t *testing.T) {
	k := New()
	e := k.Schedule(4.5, func() {})
	if e.time != 4.5 {
		t.Fatalf("time = %v, want 4.5", e.time)
	}
}

func TestMonotoneClockProperty(t *testing.T) {
	// Property: with random delays and random cancellations, observed
	// callback times are sorted and the clock never regresses.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := New()
		var observed []float64
		n := rng.Intn(200) + 1
		events := make([]*Event, 0, n)
		for i := 0; i < n; i++ {
			events = append(events, k.Schedule(rng.Float64()*100, func() {
				observed = append(observed, k.Now())
			}))
		}
		for _, e := range events {
			if rng.Intn(4) == 0 {
				e.Cancel()
			}
		}
		run(k)
		return sort.Float64sAreSorted(observed)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTimerResetReplacesPending(t *testing.T) {
	k := New()
	count := 0
	tm := k.NewTimer(func() { count++ })
	tm.Reset(10)
	tm.Reset(1) // earlier deadline replaces the pending one
	run(k)
	if count != 1 {
		t.Fatalf("timer fired %d times, want 1", count)
	}
	if k.Now() != 1 {
		t.Fatalf("fired at %v, want 1", k.Now())
	}
}

func TestTimerStop(t *testing.T) {
	k := New()
	count := 0
	tm := k.NewTimer(func() { count++ })
	tm.Reset(1)
	if !tm.Active() {
		t.Fatal("timer should be active after Reset")
	}
	tm.Stop()
	if tm.Active() {
		t.Fatal("timer should be inactive after Stop")
	}
	run(k)
	if count != 0 {
		t.Fatal("stopped timer fired")
	}
	tm.Stop() // idempotent
}

func TestTimerRearmFromCallback(t *testing.T) {
	k := New()
	count := 0
	var tm *Timer
	tm = k.NewTimer(func() {
		count++
		if count < 3 {
			tm.Reset(2)
		}
	})
	tm.Reset(2)
	run(k)
	if count != 3 {
		t.Fatalf("periodic timer fired %d times, want 3", count)
	}
	if k.Now() != 6 {
		t.Fatalf("Now = %v, want 6", k.Now())
	}
	if tm.Active() {
		t.Fatal("timer should be idle after final firing")
	}
}

func TestTimerDeadline(t *testing.T) {
	k := New()
	tm := k.NewTimer(func() {})
	if tm.Active() {
		t.Fatal("a new timer is armed")
	}
	tm.Reset(3)
	if !tm.Active() || tm.ev.time != 3 {
		t.Fatalf("armed %v at %v, want true at 3", tm.Active(), tm.ev.time)
	}
}

func TestNilTimerCallbackPanics(t *testing.T) {
	k := New()
	defer func() {
		if recover() == nil {
			t.Fatal("nil timer callback did not panic")
		}
	}()
	k.NewTimer(nil)
}

func BenchmarkKernelThroughput(b *testing.B) {
	k := New()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Schedule(rng.Float64(), func() {})
		k.Step()
	}
}

// run executes events until the queue drains.
func run(k *Kernel) {
	for k.Step() {
	}
}
