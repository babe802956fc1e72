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
	tbl.cancel("k", 0)
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

// TestVirtualRenewalDefersRelink is the soft-state receiver's steady state
// at the table surface: keys renewed every R with lifetime T = 3R never
// expire, the wheel re-buckets each at most once per T−R of clock progress
// (not once per renewal) and says so in WheelRebuckets, and when renewals
// stop every key fires exactly T after its last one. ScheduleAt with one
// DeadlineTick per sweep arms every key of a sweep for the same tick.
func TestVirtualRenewalDefersRelink(t *testing.T) {
	const (
		keys   = 64
		R      = 100 * time.Millisecond
		T      = 3 * R
		sweeps = 50
	)
	v := clock.NewVirtual()
	firedAt := map[string]time.Duration{}
	tbl := New(Config[int]{
		Shards: 1,
		Clock:  v,
		OnExpire: func(key string, _ TimerKind, _ *int, tc TimerControl[int]) {
			firedAt[key] = v.Elapsed()
			tc.Delete()
		},
	})
	defer tbl.Close()
	name := func(i int) string { return fmt.Sprintf("k%02d", i) }
	for i := 0; i < keys; i++ {
		tbl.Upsert(name(i), func(_ *int, _ bool, tc TimerControl[int]) { tc.Schedule(0, T) })
	}
	for s := 0; s < sweeps; s++ {
		v.Run(R)
		tick := tbl.DeadlineTick(T)
		for i := 0; i < keys; i++ {
			tbl.UpdateBytes([]byte(name(i)), func(_ *int, tc TimerControl[int]) { tc.ScheduleAt(0, tick) })
		}
	}
	if len(firedAt) != 0 || tbl.Len() != keys {
		t.Fatalf("renewed keys expired: %v", firedAt)
	}
	got := tbl.WheelRebuckets(0)
	// One level-0 re-bucket per key per T−R at most: the bucket it is met
	// in was chosen for a deadline at least T−R after the previous one.
	if most := uint64(keys * sweeps * int(R) / int(T-R)); got == 0 || got > most {
		t.Fatalf("WheelRebuckets = %d over %d renewals, want 1…%d", got, keys*sweeps, most)
	}
	last := v.Elapsed()
	v.Run(T - time.Millisecond)
	if len(firedAt) != 0 {
		t.Fatalf("fired before T after the last renewal: %v", firedAt)
	}
	v.Run(time.Millisecond)
	if len(firedAt) != keys || tbl.Len() != 0 {
		t.Fatalf("%d of %d keys fired at T after the last renewal", len(firedAt), keys)
	}
	for key, at := range firedAt {
		if at != last+T {
			t.Fatalf("%s fired at %v, want %v", key, at, last+T)
		}
	}
}
