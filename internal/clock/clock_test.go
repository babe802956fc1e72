package clock

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestSystemBasics(t *testing.T) {
	if Or(nil) != System {
		t.Fatal("Or(nil) != System")
	}
	v := NewVirtual()
	if Or(v) != Clock(v) {
		t.Fatal("Or(v) != v")
	}
	fired := make(chan struct{})
	tm := System.AfterFunc(time.Millisecond, func() { close(fired) })
	defer tm.Stop()
	select {
	case <-fired:
	case <-time.After(3 * time.Second):
		t.Fatal("system timer never fired")
	}
}

func TestSystemNewTimerUnarmed(t *testing.T) {
	var fired atomic.Bool
	tm := System.NewTimer(func() { fired.Store(true) })
	time.Sleep(5 * time.Millisecond)
	if fired.Load() {
		t.Fatal("unarmed system timer fired")
	}
	tm.Reset(time.Millisecond)
	deadline := time.Now().Add(3 * time.Second)
	for !fired.Load() {
		if time.Now().After(deadline) {
			t.Fatal("reset system timer never fired")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSystemTimerStopReleasesCallback: the runtime keeps a stopped
// AfterFunc timer in its heap until the old deadline, so a stopped system
// timer must not leave its callback — and the closed table or endpoint
// behind it — reachable from there. It must also stay restartable.
func TestSystemTimerStopReleasesCallback(t *testing.T) {
	// The runtime sweeps stopped timers out of a heap once they are over a
	// quarter of it; a populated heap, as in a running daemon, keeps them.
	for i := 0; i < 64; i++ {
		defer time.AfterFunc(time.Hour, func() {}).Stop()
	}
	type owner struct{ big [1 << 16]byte }
	freed := make(chan struct{})
	var fired atomic.Int32
	tm := func() Timer {
		o := &owner{}
		runtime.SetFinalizer(o, func(*owner) { close(freed) })
		return System.AfterFunc(time.Hour, func() { fired.Add(int32(o.big[0])) })
	}()
	tm.Stop()
	tm = nil // the owner goes away with its timer, as a closed table does
	// One collection, then wait for the finalizer without timers or further
	// collections: either would prompt the runtime to tidy its timer heap
	// and hide the leak, as it never would for an idle daemon.
	runtime.GC()
	for start := time.Now(); ; runtime.Gosched() {
		select {
		case <-freed:
			return
		default:
		}
		if time.Since(start) > 2*time.Second {
			t.Fatal("callback still reachable after Stop: the stopped runtime timer pins it")
		}
	}
}

// TestSystemTimerRestartsAfterStop: Stop drops the runtime timer; the next
// Reset arms a fresh one with the same callback, and a stopped expiry
// never fires.
func TestSystemTimerRestartsAfterStop(t *testing.T) {
	var fired atomic.Int32
	tm := System.AfterFunc(5*time.Millisecond, func() { fired.Add(1) })
	tm.Stop()
	tm.Stop() // stopping a stopped timer is a no-op
	time.Sleep(20 * time.Millisecond)
	if fired.Load() != 0 {
		t.Fatal("stopped system timer fired")
	}
	tm.Reset(time.Millisecond)
	deadline := time.Now().Add(3 * time.Second)
	for fired.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("system timer never fired after Stop then Reset")
		}
		time.Sleep(time.Millisecond)
	}
	tm.Reset(time.Millisecond) // and again after it has fired
	for fired.Load() == 1 {
		if time.Now().After(deadline) {
			t.Fatal("system timer never fired on its second Reset")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestVirtualTimeOnlyAdvancesWhenRun(t *testing.T) {
	v := NewVirtual()
	start := v.Now()
	if v.Since(start) != 0 {
		t.Fatal("virtual time moved on its own")
	}
	v.Run(42 * time.Second)
	if got := v.Since(start); got != 42*time.Second {
		t.Fatalf("elapsed = %v, want 42s", got)
	}
	if v.Elapsed() != 42*time.Second {
		t.Fatalf("Elapsed = %v", v.Elapsed())
	}
}

func TestVirtualTimerOrderAndReset(t *testing.T) {
	v := NewVirtual()
	var order []int
	v.AfterFunc(30*time.Millisecond, func() { order = append(order, 3) })
	v.AfterFunc(10*time.Millisecond, func() { order = append(order, 1) })
	second := v.AfterFunc(15*time.Millisecond, func() { order = append(order, 2) })
	second.Reset(20 * time.Millisecond) // still between 1 and 3
	stopped := v.AfterFunc(25*time.Millisecond, func() { order = append(order, 99) })
	stopped.Stop()
	v.Run(time.Second)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("fire order = %v", order)
	}
}

func TestVirtualSameTimeFIFO(t *testing.T) {
	v := NewVirtual()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		v.AfterFunc(time.Millisecond, func() { order = append(order, i) })
	}
	v.Run(time.Millisecond)
	for i, got := range order {
		if got != i {
			t.Fatalf("same-time events fired out of order: %v", order)
		}
	}
}

func TestVirtualRearmFromCallback(t *testing.T) {
	v := NewVirtual()
	count := 0
	var tick Timer
	tick = v.AfterFunc(time.Second, func() {
		count++
		if count < 5 {
			tick.Reset(time.Second)
		}
	})
	v.Run(10 * time.Second)
	if count != 5 {
		t.Fatalf("periodic rearm fired %d times, want 5", count)
	}
}

// TestVirtualGateBlocksAdvance: an event handing work to another goroutine
// must hold the clock until the goroutine retires it, so induced work
// always completes at the virtual time that caused it.
func TestVirtualGateBlocksAdvance(t *testing.T) {
	v := NewVirtual()
	worker := make(chan time.Time, 1)
	var sawAt atomic.Int64
	go func() {
		for range worker {
			sawAt.Store(int64(v.Since(epoch))) // time when the work ran
			v.Exit()
		}
	}()
	v.AfterFunc(time.Second, func() {
		v.Enter()
		worker <- v.Now()
	})
	v.AfterFunc(2*time.Second, func() {})
	v.Run(time.Hour)
	if got := time.Duration(sawAt.Load()); got != time.Second {
		t.Fatalf("induced work observed virtual time %v, want 1s", got)
	}
}

func TestVirtualDeterministicAcrossRuns(t *testing.T) {
	run := func() []time.Duration {
		v := NewVirtual()
		var fires []time.Duration
		var rearm Timer
		rearm = v.AfterFunc(7*time.Millisecond, func() {
			fires = append(fires, v.Elapsed())
			if len(fires) < 20 {
				rearm.Reset(time.Duration(len(fires)) * time.Millisecond)
			}
		})
		v.AfterFunc(13*time.Millisecond, func() { fires = append(fires, -v.Elapsed()) })
		v.Run(5 * time.Second)
		return fires
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRunUntil(t *testing.T) {
	v := NewVirtual()
	done := false
	v.AfterFunc(300*time.Millisecond, func() { done = true })
	if !v.RunUntil(func() bool { return done }, 10*time.Millisecond, time.Second) {
		t.Fatal("RunUntil missed the condition")
	}
	if v.RunUntil(func() bool { return false }, 10*time.Millisecond, 50*time.Millisecond) {
		t.Fatal("RunUntil invented a condition")
	}
}
