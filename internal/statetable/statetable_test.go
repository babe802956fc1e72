package statetable

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"softstate/internal/clock"
)

// TestEntryOverhead pins what an entry adds to the caller's value at 24
// bytes: the key's string header, and the tag and dropped flag sharing a
// word. Timer nodes live beside the chunk, paid for only when used
// (TestUnarmedKindsCostNothing). internal/signal keeps its values
// small against this (TestEntrySizes there).
func TestEntryOverhead(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("size pinned for 64-bit targets")
	}
	type v struct{ a, b uint64 }
	if got := unsafe.Sizeof(entry[v]{}) - unsafe.Sizeof(v{}); got != 24 {
		t.Fatalf("entry adds %d bytes to its value, want 24", got)
	}
}

// heapVal is a 48-byte value, a receiver entry's size, whose pointer lets
// the test see whether a freed slot still pins what it pointed at.
type heapVal struct {
	ref *[64]byte
	pad [5]uint64
}

// heapKeys names n (peer, key)s the way a receiver's table keys them.
func heapKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("127.0.0.1:%d\x00flow/%07d", 7000+i>>10, i&1023)
	}
	return keys
}

// heapGrowth returns the live heap build leaves behind.
func heapGrowth(build func()) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return float64(after.HeapAlloc) - float64(before.HeapAlloc)
}

// heapPerEntry builds a table from cfg, installs every key with a value
// pointing at ref and handed to arm, and returns the table and the heap it
// takes per entry — chunks, timer nodes, index, shards —
// the keys' bytes excluded.
func heapPerEntry(cfg Config[heapVal], keys []string, ref *[64]byte, arm func(TimerControl[heapVal])) (*Table[heapVal], float64) {
	var tbl *Table[heapVal]
	grown := heapGrowth(func() {
		tbl = New(cfg)
		for _, k := range keys {
			tbl.Upsert(k, func(hv *heapVal, _ bool, tc TimerControl[heapVal]) {
				hv.ref = ref
				arm(tc)
			})
		}
	})
	return tbl, grown / float64(len(keys))
}

// TestIdleTableHoldsLittle: a shard pays for what it holds, so a 16-shard
// table holding nothing takes at most 8 KB — per shard its lock, an empty
// index and a clock timer, and neither wheel heads nor entry chunks. With
// every shard's 4 KB of heads allocated up front it took about 75 KB.
func TestIdleTableHoldsLittle(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes pinned for 64-bit targets")
	}
	v := clock.NewVirtual()
	var tbl *Table[heapVal]
	grown := heapGrowth(func() { tbl = New(Config[heapVal]{Shards: 16, Clock: v}) })
	defer tbl.Close()
	t.Logf("an idle %d-shard table takes %.0f B", tbl.NumShards(), grown)
	if grown > 8<<10 {
		t.Fatalf("an idle %d-shard table takes %.0f B, want at most 8 KB", tbl.NumShards(), grown)
	}
}

// TestSmallShardsPayForWhatTheyHold: 16 shards of about 64 entries each
// with no timer armed — a hard-state receiver's table — cost each entry its
// value, the 24 bytes the table adds, at most four index slots and 16 B of
// chunk slack, chunk lists and shards. No shard holds wheel heads, and each
// entry chunk is as long as chunkCap says. With 4 KB chunks and every
// shard's wheel heads allocated up front each entry took about 225 B.
func TestSmallShardsPayForWhatTheyHold(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes pinned for 64-bit targets")
	}
	keys := heapKeys(16 * 64)
	cfg := Config[heapVal]{Shards: 16, Clock: clock.NewVirtual()}
	tbl, perEntry := heapPerEntry(cfg, keys, new([64]byte), func(TimerControl[heapVal]) {})
	defer tbl.Close()
	t.Logf("%.1f B per entry with a %d-byte value", perEntry, unsafe.Sizeof(heapVal{}))
	if bound := float64(unsafe.Sizeof(heapVal{})) + 24 + 4*8 + 16; perEntry > bound {
		t.Fatalf("%.1f B per entry, want at most %.0f", perEntry, bound)
	}
	for i := range tbl.shards {
		sh := &tbl.shards[i]
		if sh.wheel.slots != [wheelLevels]*[wheelSlots]uint32{} {
			t.Fatalf("shard %d holds wheel heads with nothing armed", i)
		}
		for c, chunk := range sh.ents.chunks {
			if want := chunkCap(entrySize[heapVal](), uint32(c)); uint32(len(chunk)) != want {
				t.Fatalf("shard %d: chunk %d holds %d entries, want %d", i, c, len(chunk), want)
			}
		}
	}
}

// TestTableHeapPerEntry holds 65,536 entries with a 48-byte value and an
// armed timer and bounds the heap they take: the value, the 24 bytes an
// entry adds, its 24-byte timer node, at most four 8-byte index slots (the
// index doubles past half full) and a few bytes of chunk list, partial
// chunks and wheel heads. Entries carrying both nodes and a digest cache
// whether used or not once took 159. Then it deletes every entry — inside
// Update and expiry callbacks, which still read the value after the
// delete, and through Delete — and requires every freed slot to hold
// nothing: no key, no value, no armed timer.
func TestTableHeapPerEntry(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes pinned for 64-bit targets")
	}
	const n = 1 << 16
	keys := heapKeys(n)
	shared := new([64]byte)
	v := clock.NewVirtual()
	tbl, perEntry := heapPerEntry(Config[heapVal]{
		Clock: v,
		OnExpire: func(_ string, _ TimerKind, hv *heapVal, tc TimerControl[heapVal]) {
			tc.Delete()
			if hv.ref != shared {
				t.Error("an expiry callback lost its value to its own delete")
			}
		},
	}, keys, shared, func(tc TimerControl[heapVal]) { tc.Schedule(0, time.Hour) })
	defer tbl.Close()
	t.Logf("%.1f B per entry with a %d-byte value", perEntry, unsafe.Sizeof(heapVal{}))
	if bound := float64(unsafe.Sizeof(heapVal{})) + 24 + 24 + 4*8 + 8; perEntry > bound {
		t.Fatalf("%.1f B per entry, want at most %.0f", perEntry, bound)
	}

	for i, k := range keys {
		switch i % 3 {
		case 0:
			tbl.Update(k, func(hv *heapVal, tc TimerControl[heapVal]) {
				tc.Delete()
				if hv.ref != shared {
					t.Fatal("an Update closure lost its value to its own delete")
				}
			})
		case 1:
			tbl.Delete(k)
		case 2:
			tbl.schedule(k, 0, time.Millisecond)
		}
	}
	v.Run(time.Second)
	if tbl.Len() != 0 {
		t.Fatalf("%d entries left", tbl.Len())
	}
	for i := range tbl.shards {
		sh := &tbl.shards[i]
		free, used := 0, 0
		for id := sh.ents.free; id != 0; id = sh.ents.at(id).tag {
			free++
		}
		for c, chunk := range sh.ents.chunks {
			if c == len(sh.ents.chunks)-1 {
				chunk = chunk[:sh.ents.fill]
			}
			for _, e := range chunk {
				if e != (entry[heapVal]{tag: e.tag}) {
					t.Fatalf("shard %d: a freed slot still holds key %q, value %v", i, e.key, e.value)
				}
				used++
			}
		}
		if free != used {
			t.Fatalf("shard %d: %d of %d slots on the free list", i, free, used)
		}
		for k, chunks := range sh.wheel.nodes {
			for _, chunk := range chunks {
				for _, tn := range chunk {
					if tn != (timerNode{}) {
						t.Fatalf("shard %d: a freed slot's kind %d node is %+v", i, k, tn)
					}
				}
			}
		}
		if sh.wheel.count != 0 {
			t.Fatalf("shard %d: %d timers armed on an empty table", i, sh.wheel.count)
		}
	}
}

// TestUnarmedKindsCostNothing: a table pays for the timer kinds it arms,
// and for nothing it does not use. Each case holds 65,536 entries with a
// 48-byte value and bounds their heap as TestTableHeapPerEntry does; with
// both nodes in every entry whether used or not, each took over 150 B. Cancel and
// TimersArmed on kinds never armed find them idle and allocate
// nothing.
func TestUnarmedKindsCostNothing(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes pinned for 64-bit targets")
	}
	const n = 1 << 16
	keys := heapKeys(n)
	val := float64(unsafe.Sizeof(heapVal{}))
	for _, c := range []struct {
		name  string
		kinds [NumTimerKinds]bool // armed on every entry
		bound float64             // entry, nodes, four index slots, slack
	}{
		{"kind 0 armed", [NumTimerKinds]bool{true, false}, val + 24 + 24 + 4*8 + 8},
		{"nothing armed", [NumTimerKinds]bool{}, val + 24 + 4*8 + 8},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config[heapVal]{Clock: clock.NewVirtual()}
			tbl, perEntry := heapPerEntry(cfg, keys, new([64]byte), func(tc TimerControl[heapVal]) {
				for k, armed := range c.kinds {
					if armed {
						tc.Schedule(TimerKind(k), time.Hour)
					}
				}
			})
			defer tbl.Close()
			t.Logf("%.1f B per entry with a %d-byte value", perEntry, unsafe.Sizeof(heapVal{}))
			if perEntry > c.bound {
				t.Fatalf("%.1f B per entry, want at most %.0f", perEntry, c.bound)
			}
			for k, armed := range c.kinds {
				if !armed {
					tbl.cancel(keys[k], TimerKind(k))
				}
			}
			want := [NumTimerKinds]int{}
			for k, armed := range c.kinds {
				if armed {
					want[k] = n
				}
			}
			if got := tbl.TimersArmed(); got != want {
				t.Errorf("TimersArmed = %v, want %v", got, want)
			}
			for i := range tbl.shards {
				sh := &tbl.shards[i]
				for k, armed := range c.kinds {
					if chunks := len(sh.wheel.nodes[k]); armed != (chunks != 0) {
						t.Fatalf("shard %d: %d kind-%d node chunks, kind armed: %v", i, chunks, k, armed)
					}
				}
			}
		})
	}
}

// eventually polls cond until it holds or the deadline passes.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestScheduleAfterIdleResyncsWheel: scheduling into a shard whose wheel
// sat empty must snap the wheel clock to the present instead of leaving
// advance to replay the whole idle gap tick by tick under the shard lock.
func TestScheduleAfterIdleResyncsWheel(t *testing.T) {
	v := clock.NewVirtual()
	tbl := New(Config[int]{Shards: 1, Clock: v})
	defer tbl.Close()
	const idle = 20_000 // ticks of idle gap
	v.Run(idle * DefaultTick)
	tbl.Upsert("k", func(_ *int, _ bool, tc TimerControl[int]) {
		tc.Schedule(0, DefaultTick)
		if now := tc.sh.wheel.now; now != idle {
			t.Errorf("wheel clock %d ticks, want %d: resynced past the idle gap", now, idle)
		}
	})
}

func TestTableBasics(t *testing.T) {
	tbl := New(Config[string]{Shards: 4})
	defer tbl.Close()
	tbl.Upsert("a", func(v *string, created bool, _ TimerControl[string]) {
		if !created {
			t.Fatal("first upsert not created")
		}
		*v = "1"
	})
	tbl.Upsert("a", func(v *string, created bool, _ TimerControl[string]) {
		if created {
			t.Fatal("second upsert created")
		}
		*v = "2"
	})
	if v, ok := tbl.Get("a"); !ok || v != "2" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if _, ok := tbl.Get("missing"); ok {
		t.Fatal("Get invented a key")
	}
	if tbl.Update("missing", nil) {
		t.Fatal("Update invented a key")
	}
	tbl.Upsert("b", func(v *string, _ bool, _ TimerControl[string]) { *v = "3" })
	if tbl.Len() != 2 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	keys := tbl.keys()
	if len(keys) != 2 {
		t.Fatalf("Keys = %v", keys)
	}
	seen := map[string]string{}
	tbl.Range(func(k string, v *string) bool {
		seen[k] = *v
		return true
	})
	if seen["a"] != "2" || seen["b"] != "3" {
		t.Fatalf("Range saw %v", seen)
	}
	if !tbl.Delete("a") || tbl.Delete("a") {
		t.Fatal("Delete bookkeeping wrong")
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len after delete = %d", tbl.Len())
	}
}

func TestTableRangeEarlyStop(t *testing.T) {
	tbl := New(Config[int]{Shards: 8})
	defer tbl.Close()
	for i := 0; i < 100; i++ {
		tbl.Upsert(fmt.Sprintf("k%d", i), nil)
	}
	n := 0
	tbl.Range(func(string, *int) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Fatalf("Range visited %d entries after early stop", n)
	}
}

func TestShardCountRounding(t *testing.T) {
	for _, c := range []struct{ in, want int }{{0, DefaultShards}, {1, 1}, {3, 4}, {16, 16}, {33, 64}} {
		tbl := New(Config[int]{Shards: c.in})
		if got := tbl.NumShards(); got != c.want {
			t.Fatalf("Shards %d rounded to %d, want %d", c.in, got, c.want)
		}
		tbl.Close()
	}
}

func TestExpireFires(t *testing.T) {
	var fired atomic.Int32
	tbl := New(Config[int]{
		Shards: 2,
		OnExpire: func(key string, kind TimerKind, v *int, tc TimerControl[int]) {
			if key != "k" || kind != 1 || *v != 42 {
				t.Errorf("expire key=%q kind=%d v=%d", key, kind, *v)
			}
			fired.Add(1)
		},
	})
	defer tbl.Close()
	tbl.Upsert("k", func(v *int, _ bool, tc TimerControl[int]) {
		*v = 42
		tc.Schedule(1, 20*time.Millisecond)
	})
	eventually(t, "expiry", func() bool { return fired.Load() == 1 })
	time.Sleep(50 * time.Millisecond)
	if fired.Load() != 1 {
		t.Fatalf("timer fired %d times", fired.Load())
	}
}

// TestPastDeadlineFiresImmediately: a zero or negative delay fires on the
// next tick, not never.
func TestPastDeadlineFiresImmediately(t *testing.T) {
	var fired atomic.Int32
	tbl := New(Config[int]{
		OnExpire: func(string, TimerKind, *int, TimerControl[int]) { fired.Add(1) },
	})
	defer tbl.Close()
	tbl.Upsert("zero", func(_ *int, _ bool, tc TimerControl[int]) { tc.Schedule(0, 0) })
	tbl.Upsert("negative", func(_ *int, _ bool, tc TimerControl[int]) { tc.Schedule(0, -time.Hour) })
	start := time.Now()
	eventually(t, "immediate expiry", func() bool { return fired.Load() == 2 })
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("past deadlines took %v to fire", elapsed)
	}
}

// TestRescheduleWhileFiring: the expiry callback rearming its own timer
// produces a steady periodic stream, and an external reschedule racing the
// fire is honoured (the timer keeps running on the new cadence).
func TestRescheduleWhileFiring(t *testing.T) {
	var fired atomic.Int32
	tbl := New(Config[int]{
		OnExpire: func(_ string, _ TimerKind, _ *int, tc TimerControl[int]) {
			fired.Add(1)
			tc.Schedule(0, 5*time.Millisecond)
		},
	})
	defer tbl.Close()
	tbl.Upsert("periodic", func(_ *int, _ bool, tc TimerControl[int]) {
		tc.Schedule(0, 5*time.Millisecond)
	})
	eventually(t, "five periodic fires", func() bool { return fired.Load() >= 5 })
	// Race external reschedules against in-callback reschedules.
	for i := 0; i < 100; i++ {
		tbl.schedule("periodic", 0, time.Millisecond)
	}
	before := fired.Load()
	eventually(t, "fires continue after racing reschedules", func() bool {
		return fired.Load() >= before+5
	})
}

// TestReschedulePushesDeadlineOut: rearming with a later deadline replaces
// the earlier one; the timer must not fire at the original time.
func TestReschedulePushesDeadlineOut(t *testing.T) {
	var fired atomic.Int32
	var firedAt atomic.Int64
	tbl := New(Config[int]{
		OnExpire: func(string, TimerKind, *int, TimerControl[int]) {
			fired.Add(1)
			firedAt.Store(time.Now().UnixNano())
		},
	})
	defer tbl.Close()
	start := time.Now()
	tbl.Upsert("k", func(_ *int, _ bool, tc TimerControl[int]) { tc.Schedule(0, 30*time.Millisecond) })
	tbl.schedule("k", 0, 150*time.Millisecond)
	eventually(t, "rescheduled expiry", func() bool { return fired.Load() == 1 })
	if elapsed := time.Duration(firedAt.Load() - start.UnixNano()); elapsed < 100*time.Millisecond {
		t.Fatalf("fired after %v despite reschedule to 150ms", elapsed)
	}
}

// TestStopVsFireRace: once Cancel returns, the callback either already ran
// or never will. Hammered to catch ordering bugs under -race.
func TestStopVsFireRace(t *testing.T) {
	var fired atomic.Int32
	tbl := New(Config[int]{
		OnExpire: func(string, TimerKind, *int, TimerControl[int]) { fired.Add(1) },
	})
	defer tbl.Close()
	tbl.Upsert("k", nil)
	for i := 0; i < 300; i++ {
		tbl.schedule("k", 0, 2*DefaultTick)
		time.Sleep(time.Duration(i%3) * DefaultTick)
		tbl.cancel("k", 0)
		settled := fired.Load()
		time.Sleep(3 * DefaultTick)
		if got := fired.Load(); got != settled {
			t.Fatalf("iteration %d: timer fired after Cancel returned (%d -> %d)", i, settled, got)
		}
	}
}

// TestCancelUnknownKindSafe: cancelling a never-scheduled timer and
// deleting entries with armed timers must not disturb the wheel.
func TestCancelAndDeleteArmed(t *testing.T) {
	var fired atomic.Int32
	tbl := New(Config[int]{
		OnExpire: func(string, TimerKind, *int, TimerControl[int]) { fired.Add(1) },
	})
	defer tbl.Close()
	tbl.Upsert("keep", func(_ *int, _ bool, tc TimerControl[int]) { tc.Schedule(0, 20*time.Millisecond) })
	tbl.Upsert("drop", func(_ *int, _ bool, tc TimerControl[int]) {
		tc.Schedule(0, 20*time.Millisecond)
		tc.Schedule(1, 20*time.Millisecond)
	})
	tbl.cancel("keep", 1) // never armed; no-op
	tbl.Delete("drop")    // cancels both armed timers
	eventually(t, "surviving timer", func() bool { return fired.Load() == 1 })
	time.Sleep(50 * time.Millisecond)
	if fired.Load() != 1 {
		t.Fatalf("fired %d times; deleted entry's timers leaked", fired.Load())
	}
}

// TestDeleteFromCallback: tc.Delete inside OnExpire removes the entry —
// the receiver state-timeout pattern.
func TestDeleteFromCallback(t *testing.T) {
	tbl := New(Config[int]{
		OnExpire: func(_ string, _ TimerKind, _ *int, tc TimerControl[int]) { tc.Delete() },
	})
	defer tbl.Close()
	for i := 0; i < 50; i++ {
		tbl.Upsert(fmt.Sprintf("k%d", i), func(_ *int, _ bool, tc TimerControl[int]) {
			tc.Schedule(0, 10*time.Millisecond)
		})
	}
	eventually(t, "all entries expired away", func() bool { return tbl.Len() == 0 })
}

// TestTableAtRestOwnsNoGoroutines: a wall-clock table with deadlines armed
// and none due runs nothing — its wheels are driven by clock timer
// callbacks, which exist only while they run — and neither does one whose
// timers have all fired.
func TestTableAtRestOwnsNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	var fired atomic.Int32
	tbl := New(Config[int]{
		Shards:   8,
		OnExpire: func(string, TimerKind, *int, TimerControl[int]) { fired.Add(1) },
	})
	defer tbl.Close()
	for i := 0; i < 10_000; i++ {
		tbl.Upsert(fmt.Sprintf("key/%d", i), func(_ *int, _ bool, tc TimerControl[int]) {
			tc.Schedule(0, time.Hour)
			if i%100 == 0 {
				tc.Schedule(1, time.Millisecond)
			}
		})
	}
	eventually(t, "the near deadlines", func() bool { return fired.Load() == 100 })
	eventually(t, "the expiry callbacks to return", func() bool { return runtime.NumGoroutine() <= before })
	time.Sleep(20 * time.Millisecond)
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("table at rest owns %d goroutines (%d before New, %d with %d timers armed)",
			g-before, before, g, tbl.TimersArmed()[0])
	}
}

// TestMassExpiry100kOneTick: 100k keys with identical deadlines all fire,
// and once they have the table is back to owning no goroutine.
func TestMassExpiry100kOneTick(t *testing.T) {
	const n = 100_000
	before := runtime.NumGoroutine()
	var fired atomic.Int32
	tbl := New(Config[int]{
		Shards:   8,
		OnExpire: func(_ string, _ TimerKind, _ *int, tc TimerControl[int]) { fired.Add(1) },
	})
	defer tbl.Close()
	deadline := 100 * time.Millisecond
	for i := 0; i < n; i++ {
		tbl.Upsert(fmt.Sprintf("key/%d", i), func(_ *int, _ bool, tc TimerControl[int]) {
			tc.Schedule(0, deadline)
		})
	}
	eventually(t, "mass expiry", func() bool { return fired.Load() == n })
	eventually(t, "the expiry callbacks to return", func() bool { return runtime.NumGoroutine() <= before })
}

// TestCloseStopsFiring: no callback runs after Close returns, under either
// clock, and the map stays readable.
func TestCloseStopsFiring(t *testing.T) {
	for _, d := range testDrivers() {
		t.Run(d.name, func(t *testing.T) {
			var fired atomic.Int32
			tbl := New(Config[int]{
				Clock:    d.clk,
				OnExpire: func(string, TimerKind, *int, TimerControl[int]) { fired.Add(1) },
			})
			for i := 0; i < 100; i++ {
				tbl.Upsert(fmt.Sprintf("k%d", i), func(v *int, _ bool, tc TimerControl[int]) {
					*v = i
					tc.Schedule(0, time.Duration(i)*5*time.Millisecond)
				})
			}
			d.pass(10 * time.Millisecond) // close mid-stream: a few fired, most armed
			tbl.Close()
			settled := fired.Load()
			d.pass(150 * time.Millisecond)
			if got := fired.Load(); got != settled {
				t.Fatalf("timers fired after Close (%d -> %d)", settled, got)
			}
			if settled == 100 {
				t.Fatal("every timer fired before Close; the test closed nothing armed")
			}
			if tbl.Len() != 100 {
				t.Fatalf("Len after close = %d", tbl.Len())
			}
			if got, ok := tbl.Get("k7"); !ok || got != 7 {
				t.Fatalf("closed table unreadable: %d %v", got, ok)
			}
			tbl.Upsert("k7", func(_ *int, _ bool, tc TimerControl[int]) { tc.Schedule(0, 0) })
			d.pass(20 * time.Millisecond)
			if got := fired.Load(); got != settled {
				t.Fatal("a deadline scheduled after Close fired")
			}
			tbl.Close() // double close is a no-op
		})
	}
}

// TestConcurrentChurn hammers every operation from many goroutines; run
// with -race this is the table's memory-model test.
func TestConcurrentChurn(t *testing.T) {
	tbl := New(Config[int]{
		Shards: 8,
		OnExpire: func(_ string, kind TimerKind, v *int, tc TimerControl[int]) {
			*v++
			if *v%3 == 0 {
				tc.Delete()
			} else {
				tc.Schedule(kind, time.Millisecond)
			}
		},
	})
	defer tbl.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				key := fmt.Sprintf("k%d", (g*31+i)%64)
				switch i % 5 {
				case 0:
					tbl.Upsert(key, func(_ *int, _ bool, tc TimerControl[int]) {
						tc.Schedule(TimerKind(i%NumTimerKinds), time.Duration(i%4)*time.Millisecond)
					})
				case 1:
					tbl.Get(key)
				case 2:
					tbl.schedule(key, TimerKind(i%NumTimerKinds), time.Millisecond)
				case 3:
					tbl.cancel(key, TimerKind(i%NumTimerKinds))
				case 4:
					tbl.Delete(key)
				}
			}
		}(g)
	}
	wg.Wait()
}

// schedule arms the kind timer of key to fire after delay, reporting
// whether the key exists. Rearming an armed timer moves its deadline.
func (t *Table[V]) schedule(key string, kind TimerKind, delay time.Duration) bool {
	return t.Update(key, func(_ *V, tc TimerControl[V]) { tc.Schedule(kind, delay) })
}

// cancel disarms the kind timer of key, reporting whether the key exists.
// After cancel returns, the timer's callback either already completed or
// will never run.
func (t *Table[V]) cancel(key string, kind TimerKind) bool {
	return t.Update(key, func(_ *V, tc TimerControl[V]) { tc.Cancel(kind) })
}

// keys returns all keys in no particular order.
func (t *Table[V]) keys() []string {
	out := make([]string, 0, t.Len())
	t.Range(func(key string, _ *V) bool {
		out = append(out, key)
		return true
	})
	return out
}
