package statetable

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkStateTable_1MKeys installs one million keys, each with an armed
// refresh-style timer, into one table. One op is the full 1M-key fill. It
// reports per-key memory, and fails if the table runs anything while it
// merely holds deadlines: the wheels multiplex a million of them onto one
// clock timer per shard, and a timer that is not firing is not a goroutine.
func BenchmarkStateTable_1MKeys(b *testing.B) {
	const n = 1_000_000
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("flow/%07d", i)
	}
	var fired atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	for iter := 0; iter < b.N; iter++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		g0 := runtime.NumGoroutine()
		tbl := New(Config[uint64]{
			Shards: 64,
			OnExpire: func(_ string, _ TimerKind, _ *uint64, tc TimerControl[uint64]) {
				fired.Add(1)
				tc.Schedule(0, time.Hour)
			},
		})
		for i, k := range keys {
			v := uint64(i)
			tbl.Upsert(k, func(slot *uint64, _ bool, tc TimerControl[uint64]) {
				*slot = v
				tc.Schedule(0, time.Hour) // far deadline: lives in an upper wheel level
			})
		}
		if got := tbl.Len(); got != n {
			b.Fatalf("Len = %d, want %d", got, n)
		}
		if g := runtime.NumGoroutine(); g > g0 {
			b.Fatalf("table at rest owns %d goroutines for %d armed keys", g-g0, n)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/n, "B/key")
		b.StopTimer()
		tbl.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(n), "keys/op")
}

// BenchmarkStateTableRenew measures the steady state of a soft-state
// receiver: 65,536 installed (peer, key) entries, each with an armed
// timeout, renewed through the byte-key path — every op pushes one
// deadline later, nothing else. One op is one renewal. In random order
// each lookup misses the cache and that chain of misses is the whole
// cost; in install order (a sweep's order: the order the wheel's bucket
// lists were built in) the lookups are cheap and what the wheel itself
// does per renewal shows.
func BenchmarkStateTableRenew(b *testing.B) {
	const n = 1 << 16
	for _, order := range []string{"random", "install-order"} {
		b.Run(order, func(b *testing.B) {
			tbl := New(Config[uint64]{Shards: 64})
			defer tbl.Close()
			keys := make([][]byte, n)
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("127.0.0.1:%d\x00flow/%07d", 7000+i>>10, i&1023))
				tbl.Upsert(string(keys[i]), func(_ *uint64, _ bool, tc TimerControl[uint64]) {
					tc.Schedule(0, time.Hour)
				})
			}
			if order == "random" {
				rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
			}
			renew := func(_ *uint64, tc TimerControl[uint64]) { tc.Schedule(0, time.Hour) }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !tbl.UpdateBytes(keys[i&(n-1)], renew) {
					b.Fatal("renewed key missing")
				}
			}
		})
	}
}

// BenchmarkStateTablePut measures steady-state upsert+schedule throughput
// across all CPUs.
func BenchmarkStateTablePut(b *testing.B) {
	tbl := New(Config[int]{Shards: 64})
	defer tbl.Close()
	var ctr atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := ctr.Add(1)
			key := fmt.Sprintf("k%d", i&0xFFFFF)
			tbl.Upsert(key, func(_ *int, _ bool, tc TimerControl[int]) {
				tc.Schedule(0, time.Minute)
			})
		}
	})
}

// BenchmarkStateTableGet measures read throughput on a warm table.
func BenchmarkStateTableGet(b *testing.B) {
	tbl := New(Config[int]{Shards: 64})
	defer tbl.Close()
	const warm = 1 << 16
	for i := 0; i < warm; i++ {
		tbl.Upsert(fmt.Sprintf("k%d", i), nil)
	}
	var ctr atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := ctr.Add(1)
			tbl.Get(fmt.Sprintf("k%d", i&(warm-1)))
		}
	})
}

// BenchmarkWheelScheduleCancel measures the raw arm/disarm cost: two O(1)
// list operations, no allocation.
func BenchmarkWheelScheduleCancel(b *testing.B) {
	w := newTestWheel()
	id := w.newNode("k")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.schedule(id, int64(i%100_000)+w.now+1)
		w.cancel(id)
	}
}
