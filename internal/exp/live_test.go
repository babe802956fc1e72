package exp

import (
	"testing"

	"softstate/internal/report"
)

// frameNamed returns the artifact's frame of that name.
func frameNamed(t *testing.T, a *report.Artifact, name string) report.Frame {
	t.Helper()
	for _, f := range a.Frames {
		if f.Name == name {
			return f
		}
	}
	t.Fatalf("%s: no %q frame", a.ID, name)
	return report.Frame{}
}

// frameByProtocol reads one numeric column of an artifact frame keyed by
// its protocol column.
func frameByProtocol(t *testing.T, a *report.Artifact, frame, col string) map[string]float64 {
	t.Helper()
	tab := frameNamed(t, a, frame).Table()
	out := map[string]float64{}
	for i, row := range tab.Rows() {
		out[row[0]] = colFloat(t, tab, i, col)
	}
	return out
}

// TestLiveVsAnalyticOrdering is the cross-validation acceptance test on
// the live5 artifact sigfig writes: the five protocols measured on the
// real wire stack must reproduce the qualitative ordering the single-hop
// analytic model predicts at matched parameters — reliable-removal
// variants lowest inconsistency, pure SS both the most inconsistent and
// the only variant with zero per-message machinery.
func TestLiveVsAnalyticOrdering(t *testing.T) {
	e, _ := ByID("live5")
	a, err := BuildArtifact(e, Options{Quick: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	liveI := frameByProtocol(t, a, report.FrameLive, "I")
	anaI := frameByProtocol(t, a, report.FrameAnalytic, "I")
	machinery := frameByProtocol(t, a, report.FrameLive, "machinery")
	if len(liveI) != 5 || len(anaI) != 5 {
		t.Fatalf("got %d live and %d analytic rows, want 5 each", len(liveI), len(anaI))
	}
	for p := range liveI {
		t.Logf("%-7s live I=%.4f (machinery %.0f)   analytic I=%.4f", p, liveI[p], machinery[p], anaI[p])
	}

	// Pairs on which the analytic model makes a clear prediction; the
	// live stack must agree on every one. (HS vs SS+ER is deliberately
	// not compared: the live HS pays for probe misses under loss that
	// the model's idealized external signal does not, which is itself
	// the paper's point about HS's reliance on failure detection.)
	pairs := [][2]string{
		{"SS+ER", "SS"},
		{"SS+RTR", "SS"},
		{"SS+RTR", "SS+ER"},
		{"SS+RTR", "SS+RT"},
		{"HS", "SS"},
		{"HS", "SS+RT"},
	}
	for _, pair := range pairs {
		lo, hi := pair[0], pair[1]
		if anaI[lo] >= anaI[hi] {
			t.Errorf("analytic model does not predict I(%s) < I(%s): %.5f vs %.5f",
				lo, hi, anaI[lo], anaI[hi])
		}
		if liveI[lo] >= liveI[hi] {
			t.Errorf("live stack disagrees with analytic ordering I(%s) < I(%s): %.5f vs %.5f",
				lo, hi, liveI[lo], liveI[hi])
		}
	}

	// Both frames put a reliable-removal variant at the bottom and SS at
	// the top.
	for name, I := range map[string]map[string]float64{"live": liveI, "analytic": anaI} {
		min, max := "SS", "SS"
		for p, v := range I {
			if v < I[min] {
				min = p
			}
			if v > I[max] {
				max = p
			}
		}
		if min != "SS+RTR" && min != "HS" {
			t.Errorf("%s: lowest I is %s, want a reliable-removal variant", name, min)
		}
		if max != "SS" {
			t.Errorf("%s: highest I is %s, want SS", name, max)
		}
	}

	// Machinery: SS none, everyone else some.
	for p, m := range machinery {
		if p == "SS" && m != 0 {
			t.Errorf("SS sent %.0f machinery datagrams, want 0", m)
		}
		if p != "SS" && m == 0 {
			t.Errorf("%s sent no machinery datagrams", p)
		}
	}

	// HS's message rate: the model's Λ counts no liveness traffic (its
	// failure signal is external), and the live stack's one probe round per
	// sender adds 2/Timeout datagrams per sender, not per key, plus
	// the audits a disagreeing key set opens — so the live rate stays
	// within 2× Λ.
	liveRate := frameByProtocol(t, a, report.FrameLive, "rate")["HS"]
	anaRate := frameByProtocol(t, a, report.FrameAnalytic, "rate")["HS"]
	t.Logf("HS live rate %.4g, analytic Λ %.4g (%.2f×)", liveRate, anaRate, liveRate/anaRate)
	if liveRate > 2*anaRate {
		t.Errorf("HS live rate %.4g exceeds 2× the analytic Λ %.4g", liveRate, anaRate)
	}
}

// TestCensusVariantsOrdering: on the ext-census artifact sigfig writes,
// the auditor's divergence measure must reproduce the paper's qualitative
// protocol ordering — reliable removal (SS+RTR) beats silent-timeout SS —
// and every refresh-bearing variant's chain must converge once churn
// stops. HS has no refresh to repair with, so whether one seed's chain
// drains is luck; internal/sim's TestCensusHardStateDrainsLessOften
// asserts its contrast over seeds.
func TestCensusVariantsOrdering(t *testing.T) {
	e, _ := ByID("ext-census")
	a, err := BuildArtifact(e, quick())
	if err != nil {
		t.Fatal(err)
	}
	audited := frameByProtocol(t, a, report.FrameLive, "audited_div")
	drained := frameByProtocol(t, a, report.FrameLive, "drained")
	for _, p := range []string{"SS", "SS+ER", "SS+RT", "SS+RTR"} {
		if drained[p] != 1 {
			t.Errorf("%s: no quiesce census read converged", p)
		}
	}
	// SS's divergence is nonzero only if census rounds ran.
	if audited["SS"] == 0 {
		t.Error("SS audited no divergence: no census rounds ran")
	}
	if audited["SS+RTR"] >= audited["SS"] {
		t.Errorf("reliable removal did not reduce audited divergence: SS+RTR %.4f vs SS %.4f",
			audited["SS+RTR"], audited["SS"])
	}
}
