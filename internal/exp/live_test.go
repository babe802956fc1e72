package exp

import (
	"testing"

	"softstate/internal/singlehop"
)

// TestLiveVsAnalyticOrdering is the cross-validation acceptance test: the
// five protocols measured on the real wire stack must reproduce the
// qualitative ordering the single-hop analytic model predicts at matched
// parameters — reliable-removal variants lowest inconsistency, pure SS
// both the most inconsistent and the only variant with zero per-message
// machinery.
func TestLiveVsAnalyticOrdering(t *testing.T) {
	pts, err := LiveVsAnalytic(Options{Quick: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("got %d points, want 5", len(pts))
	}
	liveI := map[singlehop.Protocol]float64{}
	anaI := map[singlehop.Protocol]float64{}
	for _, pt := range pts {
		liveI[pt.Profile.Proto] = pt.Live.Inconsistency
		anaI[pt.Profile.Proto] = pt.Analytic.Inconsistency
		t.Logf("%-7s live I=%.4f (machinery %d)   analytic I=%.4f",
			pt.Profile.Name, pt.Live.Inconsistency, pt.Live.Machinery(), pt.Analytic.Inconsistency)
	}

	// Pairs on which the analytic model makes a clear prediction; the
	// live stack must agree on every one. (HS vs SS+ER is deliberately
	// not compared: the live HS pays for probe misses under loss that
	// the model's idealized external signal does not, which is itself
	// the paper's point about HS's reliance on failure detection.)
	pairs := [][2]singlehop.Protocol{
		{singlehop.SSER, singlehop.SS},
		{singlehop.SSRTR, singlehop.SS},
		{singlehop.SSRTR, singlehop.SSER},
		{singlehop.SSRTR, singlehop.SSRT},
		{singlehop.HS, singlehop.SS},
		{singlehop.HS, singlehop.SSRT},
	}
	for _, pair := range pairs {
		lo, hi := pair[0], pair[1]
		if anaI[lo] >= anaI[hi] {
			t.Errorf("analytic model does not predict I(%v) < I(%v): %.5f vs %.5f",
				lo, hi, anaI[lo], anaI[hi])
		}
		if liveI[lo] >= liveI[hi] {
			t.Errorf("live stack disagrees with analytic ordering I(%v) < I(%v): %.5f vs %.5f",
				lo, hi, liveI[lo], liveI[hi])
		}
	}

	// Both frames put a reliable-removal variant at the bottom and SS at
	// the top.
	for name, I := range map[string]map[singlehop.Protocol]float64{"live": liveI, "analytic": anaI} {
		min, max := singlehop.SS, singlehop.SS
		for p, v := range I {
			if v < I[min] {
				min = p
			}
			if v > I[max] {
				max = p
			}
		}
		if min != singlehop.SSRTR && min != singlehop.HS {
			t.Errorf("%s: lowest I is %v, want a reliable-removal variant", name, min)
		}
		if max != singlehop.SS {
			t.Errorf("%s: highest I is %v, want SS", name, max)
		}
	}

	// Machinery: SS none, everyone else some.
	for _, pt := range pts {
		m := pt.Live.Machinery()
		if pt.Profile.Proto == singlehop.SS && m != 0 {
			t.Errorf("SS sent %d machinery datagrams, want 0", m)
		}
		if pt.Profile.Proto != singlehop.SS && m == 0 {
			t.Errorf("%s sent no machinery datagrams", pt.Profile.Name)
		}
	}

	// HS's message rate: the model's Λ counts no liveness traffic (its
	// failure signal is external), and the live stack's one probe round per
	// sender adds 2/Timeout datagrams per sender, not per key, plus
	// the audits a disagreeing key set opens — so the live rate stays
	// within 2× Λ.
	for _, pt := range pts {
		if pt.Profile.Proto != singlehop.HS {
			continue
		}
		t.Logf("HS live rate %.4g, analytic Λ %.4g (%.2f×)", pt.Live.Rate, pt.Analytic.NormalizedRate, pt.Live.Rate/pt.Analytic.NormalizedRate)
		if pt.Live.Rate > 2*pt.Analytic.NormalizedRate {
			t.Errorf("HS live rate %.4g exceeds 2× the analytic Λ %.4g", pt.Live.Rate, pt.Analytic.NormalizedRate)
		}
	}
}
