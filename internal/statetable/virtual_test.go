package statetable

import (
	"fmt"
	"testing"
	"time"

	"softstate/internal/clock"
)

// TestVirtualExpiry: under a virtual clock no goroutines run; expirations
// fire exactly when the driver advances past the deadline.
func TestVirtualExpiry(t *testing.T) {
	v := clock.NewVirtual()
	var fired []string
	tbl := New(Config[int]{
		Shards: 4,
		Clock:  v,
		OnExpire: func(key string, kind TimerKind, val *int, tc TimerControl[int]) {
			fired = append(fired, fmt.Sprintf("%s/%d@%v", key, kind, v.Elapsed()))
			tc.Delete()
		},
	})
	defer tbl.Close()
	for i := 0; i < 16; i++ {
		key := fmt.Sprintf("k%02d", i)
		delay := time.Duration(i+1) * 10 * time.Millisecond
		tbl.Upsert(key, func(val *int, _ bool, tc TimerControl[int]) {
			*val = i
			tc.Schedule(0, delay)
		})
	}
	v.Run(5 * time.Millisecond)
	if len(fired) != 0 {
		t.Fatalf("timers fired before their deadlines: %v", fired)
	}
	v.Run(55 * time.Millisecond) // now at 60ms: keys 0..5 due
	if len(fired) != 6 {
		t.Fatalf("fired %d timers at 60ms, want 6: %v", len(fired), fired)
	}
	v.Run(time.Second)
	if len(fired) != 16 || tbl.Len() != 0 {
		t.Fatalf("fired %d timers, %d entries left", len(fired), tbl.Len())
	}
}

// TestVirtualReschedule: rearming and cancelling under virtual time follow
// the same semantics as the wall wheels.
func TestVirtualReschedule(t *testing.T) {
	v := clock.NewVirtual()
	count := 0
	tbl := New(Config[int]{
		Clock: v,
		OnExpire: func(key string, _ TimerKind, _ *int, tc TimerControl[int]) {
			count++
			if count < 3 {
				tc.Schedule(0, 10*time.Millisecond) // periodic rearm
			}
		},
	})
	defer tbl.Close()
	tbl.Upsert("k", func(_ *int, _ bool, tc TimerControl[int]) {
		tc.Schedule(0, 10*time.Millisecond)
	})
	v.Run(100 * time.Millisecond)
	if count != 3 {
		t.Fatalf("periodic expiry fired %d times, want 3", count)
	}
	tbl.Upsert("k", func(_ *int, _ bool, tc TimerControl[int]) {
		tc.Schedule(0, 10*time.Millisecond)
	})
	tbl.Cancel("k", 0)
	v.Run(100 * time.Millisecond)
	if count != 3 {
		t.Fatal("cancelled virtual timer fired")
	}
}

// TestVirtualEarlierDeadlinePokes: scheduling a deadline earlier than the
// shard's armed wake must pull the wake earlier (the virtual analogue of
// the wall-mode poke channel).
func TestVirtualEarlierDeadlinePokes(t *testing.T) {
	v := clock.NewVirtual()
	var fired []string
	tbl := New(Config[string]{
		Shards: 1, // one shard so both keys share a wake deadline
		Clock:  v,
		OnExpire: func(key string, _ TimerKind, _ *string, tc TimerControl[string]) {
			fired = append(fired, key)
		},
	})
	defer tbl.Close()
	tbl.Upsert("late", func(_ *string, _ bool, tc TimerControl[string]) {
		tc.Schedule(0, time.Hour)
	})
	tbl.Upsert("early", func(_ *string, _ bool, tc TimerControl[string]) {
		tc.Schedule(0, 10*time.Millisecond)
	})
	v.Run(time.Second)
	if len(fired) != 1 || fired[0] != "early" {
		t.Fatalf("fired = %v, want just early", fired)
	}
	v.Run(time.Hour)
	if len(fired) != 2 || fired[1] != "late" {
		t.Fatalf("fired = %v, want early then late", fired)
	}
}
