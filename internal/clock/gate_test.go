package clock

import (
	"sync"
	"testing"
	"time"
)

// TestVirtualTimerResetNoHeapBloat pins the in-place reschedule: a timer
// reset on every poke (the statetable pattern) must not leave cancelled
// events accumulating in the kernel.
func TestVirtualTimerResetNoHeapBloat(t *testing.T) {
	v := NewVirtual()
	fired := 0
	tm := v.NewTimer(func() { fired++ })
	// A reset that left a cancelled event behind would allocate its
	// successor, and the kernel heap would grow to hold both.
	if allocs := testing.AllocsPerRun(100000, func() { tm.Reset(time.Millisecond) }); allocs != 0 {
		t.Fatalf("a reset allocates %v times, want 0", allocs)
	}
	v.Run(2 * time.Millisecond)
	if fired != 1 {
		t.Fatalf("timer fired %d times, want 1", fired)
	}
}

// TestGateFastPathBalance hammers Enter/Exit from many goroutines while a
// driver repeatedly quiesces, proving the atomic gate neither loses
// wakeups nor miscounts.
func TestGateFastPathBalance(t *testing.T) {
	v := NewVirtual()
	const workers, rounds = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				v.Enter()
				v.Exit()
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		for i := 0; i < 200; i++ {
			v.Run(time.Microsecond)
		}
		close(done)
	}()
	wg.Wait()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("driver stalled: lost gate wakeup")
	}
	if busy := v.busy.Load(); busy != 0 {
		t.Fatalf("gate unbalanced: busy=%d", busy)
	}
}

// TestRunWaitsForGate proves Run still quiesces before firing each event:
// work induced by one event (tracked by Enter/Exit from another
// goroutine) completes before the next event fires.
func TestRunWaitsForGate(t *testing.T) {
	v := NewVirtual()
	release := make(chan struct{})
	var order []string
	var mu sync.Mutex
	v.AfterFunc(time.Millisecond, func() {
		v.Enter()
		go func() {
			<-release
			mu.Lock()
			order = append(order, "worker")
			mu.Unlock()
			v.Exit()
		}()
	})
	v.AfterFunc(2*time.Millisecond, func() {
		mu.Lock()
		order = append(order, "second-event")
		mu.Unlock()
	})
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(release)
	}()
	v.Run(5 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "worker" || order[1] != "second-event" {
		t.Fatalf("order = %v: clock advanced past an un-quiesced gate", order)
	}
}
