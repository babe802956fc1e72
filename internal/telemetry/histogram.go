package telemetry

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: bucket i holds observations whose duration in
// nanoseconds has bit length i+histMinBits+1, i.e. power-of-two bucket
// boundaries from 2^histMinBits ns (≈1 µs — below one statetable wheel
// tick, finer than any latency this runtime distinguishes) up to
// 2^histMaxBits ns (≈9.5 h). Everything below the first boundary lands in
// bucket 0, everything above the last in the overflow bucket.
const (
	histMinBits = 10 // 2^10 ns ≈ 1.02 µs
	histMaxBits = 45 // 2^45 ns ≈ 9.77 h
	histBuckets = histMaxBits - histMinBits + 2
)

// Histogram is a log-bucketed duration histogram: Observe is two atomic
// increments and a bit-length computation — no locks, no allocation, no
// floating point — so it can sit on per-datagram paths. Bucket boundaries
// are powers of two from ≈1 µs to ≈9.8 h, giving better-than-2× relative
// error everywhere, which is all a latency distribution needs. The zero
// value is ready to use; all methods are nil-safe.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sumNs   atomic.Int64
}

// bucketOf maps a duration to its bucket index.
func bucketOf(d time.Duration) int {
	if d < 0 {
		d = 0
	}
	b := bits.Len64(uint64(d)) // 2^(b-1) <= d < 2^b for d > 0
	switch {
	case b <= histMinBits:
		return 0
	case b > histMaxBits:
		return histBuckets - 1
	default:
		return b - histMinBits
	}
}

// bucketUpperNs returns bucket i's inclusive upper bound in nanoseconds.
func bucketUpperNs(i int) int64 {
	return int64(1) << (histMinBits + i)
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.buckets[bucketOf(d)].Add(1)
	h.count.Add(1)
	h.sumNs.Add(int64(d))
}

// ObserveN records n observations of d at the cost of one.
func (h *Histogram) ObserveN(d time.Duration, n int64) {
	if h == nil || n <= 0 {
		return
	}
	h.buckets[bucketOf(d)].Add(n)
	h.count.Add(n)
	h.sumNs.Add(int64(d) * n)
}

// Bucket is one histogram bucket's snapshot: the count of observations at
// or below UpperNs and above the previous bucket's bound.
type Bucket struct {
	UpperNs int64
	Count   int64
}

// HistogramSnapshot is a consistent-enough point-in-time copy (buckets
// are read individually; a scrape racing observations may be off by the
// in-flight ones, never corrupt).
type HistogramSnapshot struct {
	Count   int64
	SumNs   int64
	Buckets []Bucket // only buckets up to the last non-empty one
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	snap := HistogramSnapshot{Count: h.count.Load(), SumNs: h.sumNs.Load()}
	last := -1
	var counts [histBuckets]int64
	for i := range h.buckets {
		if counts[i] = h.buckets[i].Load(); counts[i] > 0 {
			last = i
		}
	}
	snap.Buckets = make([]Bucket, 0, last+1)
	for i := 0; i <= last; i++ {
		snap.Buckets = append(snap.Buckets, Bucket{UpperNs: bucketUpperNs(i), Count: counts[i]})
	}
	return snap
}

// Quantile estimates the q-quantile (0 < q ≤ 1) of the snapshot's
// distribution, as the upper bound of the bucket holding the q-th
// observation — an overestimate by at most 2×, matching the bucket
// resolution. It returns 0 when nothing was observed.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q*float64(s.Count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	cum := int64(0)
	for _, b := range s.Buckets {
		cum += b.Count
		if cum >= rank {
			return time.Duration(b.UpperNs)
		}
	}
	return time.Duration(s.Buckets[len(s.Buckets)-1].UpperNs)
}
