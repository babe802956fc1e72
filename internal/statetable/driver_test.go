package statetable

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"softstate/internal/clock"
)

// testDriver runs one test body under one clock. The table code has a
// single wheel driver; what differs is only who calls it — time.AfterFunc
// goroutines under clock.System, the Run loop under a virtual clock — so
// tests that pin driver behaviour run as one row per clock.
type testDriver struct {
	name string
	clk  clock.Clock
	// pass lets d of clock time go by.
	pass func(d time.Duration)
	// until lets clock time go by until cond holds, failing the test after
	// a generous budget.
	until func(t *testing.T, what string, cond func() bool)
}

func testDrivers() []testDriver {
	v := clock.NewVirtual()
	return []testDriver{
		{
			name:  "system",
			clk:   clock.System,
			pass:  time.Sleep,
			until: eventually,
		},
		{
			name: "virtual",
			clk:  v,
			pass: v.Run,
			until: func(t *testing.T, what string, cond func() bool) {
				t.Helper()
				if !v.RunUntil(cond, time.Millisecond, 5*time.Second) {
					t.Fatalf("virtual time ran out waiting for %s", what)
				}
			},
		},
	}
}

// fireLog records expiries per key, in order, from whatever goroutine the
// clock runs callbacks on.
type fireLog struct {
	mu    sync.Mutex
	byKey map[string][]TimerKind
	order []string
}

func (l *fireLog) add(key string, kind TimerKind) {
	l.mu.Lock()
	if l.byKey == nil {
		l.byKey = make(map[string][]TimerKind)
	}
	l.byKey[key] = append(l.byKey[key], kind)
	l.order = append(l.order, fmt.Sprintf("%s/%d", key, kind))
	l.mu.Unlock()
}

func (l *fireLog) fires(key string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.byKey[key])
}

func (l *fireLog) snapshot() (map[string][]TimerKind, []string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	byKey := make(map[string][]TimerKind, len(l.byKey))
	for k, v := range l.byKey {
		byKey[k] = append([]TimerKind(nil), v...)
	}
	return byKey, append([]string(nil), l.order...)
}

// TestDriverParity runs one script — schedule, reschedule earlier, cancel,
// delete inside the callback, re-arm inside the callback, idle then re-arm
// — through the same table code under the wall clock and the virtual
// clock, on one shard (every deadline shares one timer) and on several,
// and requires the same expiries in the same order from each. The
// deadlines sit 40 ms or more apart so scheduler jitter cannot reorder
// them on the wall clock.
func TestDriverParity(t *testing.T) {
	want := map[string][]TimerKind{
		"a": {0, 1, 0}, // two kinds in deadline order, then the callback's own re-arm
		"b": {0},       // armed for an hour, pulled in to 120 ms
		"d": {1},       // deleted by its own callback
		"c": {1},       // cancelled first; re-armed after the wheel sat idle
	}
	wantOrder := []string{"a/0", "a/1", "b/0", "a/0", "d/1", "c/1"}
	for _, shards := range []int{1, 4} {
		for _, d := range testDrivers() {
			t.Run(fmt.Sprintf("%s/shards=%d", d.name, shards), func(t *testing.T) {
				var log fireLog
				tbl := New(Config[int]{
					Shards: shards,
					Clock:  d.clk,
					OnExpire: func(key string, kind TimerKind, v *int, tc TimerControl[int]) {
						log.add(key, kind)
						*v++
						switch {
						case key == "a" && kind == 1:
							tc.Schedule(0, 80*time.Millisecond) // re-arm from the callback: due at 160 ms
						case key == "d":
							tc.Delete()
						}
					},
				})
				defer tbl.Close()
				tbl.Upsert("a", func(_ *int, _ bool, tc TimerControl[int]) {
					tc.Schedule(0, 40*time.Millisecond)
					tc.Schedule(1, 80*time.Millisecond)
				})
				tbl.Upsert("b", func(_ *int, _ bool, tc TimerControl[int]) { tc.Schedule(0, time.Hour) })
				tbl.schedule("b", 0, 120*time.Millisecond) // earlier than anything its shard may be armed for
				tbl.Upsert("c", func(_ *int, _ bool, tc TimerControl[int]) { tc.Schedule(0, 60*time.Millisecond) })
				tbl.cancel("c", 0)
				tbl.Upsert("d", func(_ *int, _ bool, tc TimerControl[int]) { tc.Schedule(1, 200*time.Millisecond) })

				d.until(t, "the scripted expiries", func() bool {
					return log.fires("a") == 3 && log.fires("b") == 1 && log.fires("d") == 1
				})
				if _, ok := tbl.Get("d"); ok || tbl.Len() != 3 {
					t.Fatalf("delete-in-callback left d behind (Len %d)", tbl.Len())
				}
				if n := tbl.TimersArmed(); n != [NumTimerKinds]int{} {
					t.Fatalf("timers still armed after the script drained: %v", n)
				}

				// Every wheel is empty now: nothing is armed, nothing runs. A
				// deadline scheduled after the idle gap must still fire.
				d.pass(40 * time.Millisecond)
				if log.fires("c") != 0 {
					t.Fatal("cancelled timer fired")
				}
				tbl.schedule("c", 1, 25*time.Millisecond)
				d.until(t, "the re-armed expiry", func() bool { return log.fires("c") == 1 })

				byKey, order := log.snapshot()
				if !reflect.DeepEqual(byKey, want) {
					t.Errorf("per-key fire order = %v, want %v", byKey, want)
				}
				if !reflect.DeepEqual(order, wantOrder) {
					t.Errorf("fire order = %v, want %v", order, wantOrder)
				}
				if v, _ := tbl.Get("a"); v != 3 {
					t.Errorf("a's value = %d, want one increment per expiry", v)
				}
			})
		}
	}
}

// TestCloseWithCallbackInFlight is the regression test for the window the
// wall clock opens: stopping a time.AfterFunc timer does not recall a
// callback already dispatched. Close must wait for one that is inside
// OnExpire, and one that was dispatched but is still waiting for the shard
// lock must find the table closed; in both cases nothing fires once Close
// has returned. Run under -race.
func TestCloseWithCallbackInFlight(t *testing.T) {
	t.Run("inside OnExpire", func(t *testing.T) {
		var fired atomic.Int32
		entered := make(chan struct{})
		release := make(chan struct{})
		tbl := New(Config[int]{
			Shards: 1,
			OnExpire: func(key string, _ TimerKind, _ *int, _ TimerControl[int]) {
				if fired.Add(1) == 1 {
					close(entered)
					<-release
				}
			},
		})
		for i := 0; i < 50; i++ {
			tbl.Upsert(fmt.Sprintf("k%d", i), func(_ *int, _ bool, tc TimerControl[int]) {
				tc.Schedule(0, time.Duration(1+i)*time.Millisecond)
			})
		}
		<-entered
		closed := make(chan struct{})
		go func() {
			tbl.Close()
			close(closed)
		}()
		select {
		case <-closed:
			t.Fatal("Close returned while an expiry callback was still running")
		case <-time.After(20 * time.Millisecond):
		}
		close(release)
		<-closed
		settled := fired.Load()
		time.Sleep(80 * time.Millisecond) // the other 49 deadlines all pass
		if got := fired.Load(); got != settled {
			t.Fatalf("OnExpire ran after Close returned (%d -> %d)", settled, got)
		}
	})

	t.Run("dispatched, waiting for the shard lock", func(t *testing.T) {
		for round := 0; round < 20; round++ {
			var fired atomic.Int32
			tbl := New(Config[int]{
				Shards:   1,
				OnExpire: func(string, TimerKind, *int, TimerControl[int]) { fired.Add(1) },
			})
			closed := make(chan struct{})
			// Hold the shard lock across the deadline, so the clock
			// dispatches fireShard into a wait for it, and start Close
			// while it waits.
			tbl.Upsert("k", func(_ *int, _ bool, tc TimerControl[int]) {
				tc.Schedule(0, 2*DefaultTick)
			})
			var before int32
			tbl.Update("k", func(*int, TimerControl[int]) {
				// An expiry that beat the Update to the lock is legitimate.
				// From here on the only one possible is the dispatched
				// fireShard, and the closed flag must refuse it, whether it
				// takes the lock before Close or after.
				before = fired.Load()
				time.Sleep(5 * DefaultTick)
				go func() {
					tbl.Close()
					close(closed)
				}()
				for !tbl.closed.Load() {
					time.Sleep(50 * time.Microsecond)
				}
			})
			<-closed
			time.Sleep(5 * DefaultTick)
			if got := fired.Load(); got != before {
				t.Fatalf("round %d: OnExpire ran after Close began (%d -> %d)", round, before, got)
			}
		}
	})
}
