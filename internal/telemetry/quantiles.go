package telemetry

import "time"

// HistogramQuantiles extracts quantile estimates for the named histogram
// from a gathered sample set. When several series share the name (e.g.
// instance-labeled copies), their snapshots are merged bucket-wise
// before estimating, so the result reflects the whole population. The
// second return is false when no non-empty histogram with that name
// exists.
func HistogramQuantiles(samples []Sample, name string, qs ...float64) ([]time.Duration, bool) {
	var merged HistogramSnapshot
	byUpper := map[int64]int{}
	for _, s := range samples {
		if s.Name != name || s.Hist == nil || s.Hist.Count == 0 {
			continue
		}
		merged.Count += s.Hist.Count
		merged.SumNs += s.Hist.SumNs
		for _, b := range s.Hist.Buckets {
			if i, ok := byUpper[b.UpperNs]; ok {
				merged.Buckets[i].Count += b.Count
			} else {
				byUpper[b.UpperNs] = len(merged.Buckets)
				merged.Buckets = append(merged.Buckets, b)
			}
		}
	}
	if merged.Count == 0 {
		return nil, false
	}
	// Bucket upper bounds must be ascending for Quantile's cumulative
	// walk; merging preserves each snapshot's order but not the global
	// one, so restore it.
	for i := 1; i < len(merged.Buckets); i++ {
		for j := i; j > 0 && merged.Buckets[j].UpperNs < merged.Buckets[j-1].UpperNs; j-- {
			merged.Buckets[j], merged.Buckets[j-1] = merged.Buckets[j-1], merged.Buckets[j]
		}
	}
	out := make([]time.Duration, len(qs))
	for i, q := range qs {
		out[i] = merged.Quantile(q)
	}
	return out, true
}
