package statetable

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"softstate/internal/clock"
)

// digVal is the test payload: the digest folds (key, value, seq), which
// mirrors how internal/signal digests its sender and receiver entries.
type digVal struct {
	value []byte
	seq   uint64
	// skip models entries excluded from the digest (a sender entry whose
	// removal is in flight).
	skip bool
}

const digTestBuckets = 8

func digTestFunc(key string, v *digVal) (uint32, uint64) {
	if v.skip {
		return 0, 0
	}
	return DigestBucketOf(key, digTestBuckets), DigestKV(key, v.value, v.seq)
}

// scratchSums recomputes the digest from a full table walk — the ground
// truth the incremental maintenance must match.
func scratchSums(tbl *Table[digVal]) []uint64 {
	out := make([]uint64, digTestBuckets)
	tbl.Range(func(key string, v *digVal) bool {
		if !v.skip {
			out[DigestBucketOf(key, digTestBuckets)] ^= DigestKV(key, v.value, v.seq)
		}
		return true
	})
	return out
}

func sumsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDigestIncrementalMatchesScratch churns a digest-maintaining table
// through inserts, payload updates, skip transitions, and deletes, and
// checks after every step that the incrementally maintained sums equal a
// from-scratch recompute. Deletes free slots the next inserts reuse, and a
// reused id must start with a zero digest cell: a stale one would XOR a
// dead entry's contribution back out of its bucket.
func TestDigestIncrementalMatchesScratch(t *testing.T) {
	tbl := New(Config[digVal]{
		Shards:        4,
		DigestFunc:    digTestFunc,
		DigestBuckets: digTestBuckets,
	})
	defer tbl.Close()

	rng := rand.New(rand.NewSource(1))
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("flow/%05d", i)
	}
	type slotID struct {
		sh *shard[digVal]
		id uint32
	}
	used := map[slotID]bool{}
	reused := 0
	for step := 0; step < 2000; step++ {
		key := keys[rng.Intn(len(keys))]
		switch rng.Intn(5) {
		case 0, 1: // install / re-install
			val := []byte(fmt.Sprintf("v%d", rng.Intn(10)))
			seq := uint64(rng.Intn(1000))
			var fresh digCell // a created entry's cell, read before it is derived
			tbl.Upsert(key, func(v *digVal, created bool, tc TimerControl[digVal]) {
				if created {
					fresh = *tc.sh.ents.dig(tc.id)
					if used[slotID{tc.sh, tc.id}] {
						reused++
					}
					used[slotID{tc.sh, tc.id}] = true
				}
				v.value, v.seq, v.skip = val, seq, false
				if !created {
					tc.MarkDigestDirty()
				}
			})
			if fresh != (digCell{}) {
				t.Fatalf("step %d: %q starts with digest cell %+v", step, key, fresh)
			}
		case 2: // payload update
			tbl.Update(key, func(v *digVal, tc TimerControl[digVal]) {
				v.seq++
				tc.MarkDigestDirty()
			})
		case 3: // skip transition (removal in flight)
			tbl.Update(key, func(v *digVal, tc TimerControl[digVal]) {
				v.skip = !v.skip
				tc.MarkDigestDirty()
			})
		case 4: // delete, from outside or inside a closure
			if rng.Intn(2) == 0 {
				tbl.Delete(key)
			} else {
				tbl.Update(key, func(_ *digVal, tc TimerControl[digVal]) { tc.Delete() })
			}
		}
		if step%50 == 0 {
			if got, want := tbl.DigestSums(), scratchSums(tbl); !sumsEqual(got, want) {
				t.Fatalf("step %d: incremental %v != scratch %v", step, got, want)
			}
		}
	}
	if got, want := tbl.DigestSums(), scratchSums(tbl); !sumsEqual(got, want) {
		t.Fatalf("final: incremental %v != scratch %v", got, want)
	}
	if reused == 0 {
		t.Fatal("no insert reused a freed id")
	}
}

// TestDigestUpdateNeedsDirtyMark documents the contract: a payload
// change without MarkDigestDirty leaves the cached contribution stale,
// and the next marked mutation re-derives it from the current payload.
func TestDigestUpdateNeedsDirtyMark(t *testing.T) {
	tbl := New(Config[digVal]{DigestFunc: digTestFunc, DigestBuckets: digTestBuckets})
	defer tbl.Close()
	tbl.Upsert("k", func(v *digVal, _ bool, _ TimerControl[digVal]) {
		v.value, v.seq = []byte("a"), 1
	})
	before := tbl.DigestSums()
	tbl.Update("k", func(v *digVal, _ TimerControl[digVal]) { v.seq = 2 })
	if got := tbl.DigestSums(); !sumsEqual(got, before) {
		t.Fatalf("unmarked update changed digest: %v -> %v", before, got)
	}
	tbl.Update("k", func(v *digVal, tc TimerControl[digVal]) { tc.MarkDigestDirty() })
	if got, want := tbl.DigestSums(), scratchSums(tbl); !sumsEqual(got, want) {
		t.Fatalf("marked update did not re-derive digest: %v, want %v", got, want)
	}
}

// TestDigestExpiryAndBytesPaths covers the two remaining mutation paths:
// timer expiry (drop and payload change inside OnExpire) and the
// byte-key renewal path, under the virtual clock.
func TestDigestExpiryAndBytesPaths(t *testing.T) {
	v := clock.NewVirtual()
	tbl := New(Config[digVal]{
		Shards:        2,
		Clock:         v,
		DigestFunc:    digTestFunc,
		DigestBuckets: digTestBuckets,
		OnExpire: func(key string, kind TimerKind, val *digVal, tc TimerControl[digVal]) {
			if kind == 0 {
				tc.Delete()
				return
			}
			val.seq += 100
			tc.MarkDigestDirty()
		},
	})
	defer tbl.Close()

	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("k%02d", i)
		tbl.Upsert(key, func(dv *digVal, _ bool, tc TimerControl[digVal]) {
			dv.value, dv.seq = []byte("x"), uint64(i)
			if i%2 == 0 {
				tc.Schedule(0, 10*time.Millisecond) // drop
			} else {
				tc.Schedule(1, 10*time.Millisecond) // payload bump
			}
		})
	}
	// Byte-key renewal with a payload change.
	tbl.UpdateBytes([]byte("k01"), func(dv *digVal, tc TimerControl[digVal]) {
		dv.seq = 999
		tc.MarkDigestDirty()
	})
	if got, want := tbl.DigestSums(), scratchSums(tbl); !sumsEqual(got, want) {
		t.Fatalf("pre-expiry: incremental %v != scratch %v", got, want)
	}
	v.Run(20 * time.Millisecond)
	if tbl.Len() != 4 {
		t.Fatalf("after expiry: %d entries, want 4", tbl.Len())
	}
	if got, want := tbl.DigestSums(), scratchSums(tbl); !sumsEqual(got, want) {
		t.Fatalf("post-expiry: incremental %v != scratch %v", got, want)
	}

	// RangeDigest lists exactly the contributing entries.
	n := 0
	tbl.RangeDigest(func(key string, dv *digVal, bucket uint32, sum uint64) bool {
		if want := DigestKV(key, dv.value, dv.seq); sum != want {
			t.Fatalf("RangeDigest %q: sum %d, want %d", key, sum, want)
		}
		if want := DigestBucketOf(key, digTestBuckets); bucket != want {
			t.Fatalf("RangeDigest %q: bucket %d, want %d", key, bucket, want)
		}
		n++
		return true
	})
	if n != 4 {
		t.Fatalf("RangeDigest visited %d entries, want 4", n)
	}
}

// TestDigestKVBoundaries: the length prefix keeps (key, value) splits
// distinct, seq participates, and 0 is never returned.
func TestDigestKVBoundaries(t *testing.T) {
	if DigestKV("ab", []byte("c"), 1) == DigestKV("a", []byte("bc"), 1) {
		t.Fatal("key/value boundary ambiguity")
	}
	if DigestKV("k", nil, 1) == DigestKV("k", nil, 2) {
		t.Fatal("seq does not participate")
	}
	if DigestKV("", nil, 0) == 0 {
		t.Fatal("digest of empty entry is 0")
	}
	if DigestBucketOf("flow/1", digTestBuckets) >= digTestBuckets {
		t.Fatal("bucket out of range")
	}
}

// BenchmarkDigestMaintenance proves digest upkeep is allocation-free on
// the renewal hot path: an Update that bumps the payload and re-derives
// the entry's contribution.
func BenchmarkDigestMaintenance(b *testing.B) {
	tbl := New(Config[digVal]{
		Shards:        4,
		DigestFunc:    digTestFunc,
		DigestBuckets: digTestBuckets,
	})
	defer tbl.Close()
	tbl.Upsert("flow/1", func(v *digVal, _ bool, _ TimerControl[digVal]) {
		v.value = []byte("10Mbps")
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Update("flow/1", func(v *digVal, tc TimerControl[digVal]) {
			v.seq++
			tc.MarkDigestDirty()
		})
	}
}
