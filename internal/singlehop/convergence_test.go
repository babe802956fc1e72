package singlehop

import (
	"math"
	"testing"
)

func TestUpdateConvergenceMonotone(t *testing.T) {
	times := []float64{0, 0.01, 0.05, 0.1, 0.5, 1, 5, 20}
	for _, proto := range Protocols() {
		m, err := Build(proto, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		cdf, err := m.UpdateConvergence(times)
		if err != nil {
			t.Fatal(err)
		}
		if cdf[0] != 0 {
			t.Fatalf("%v: CDF(0) = %v, want 0", proto, cdf[0])
		}
		prev := -1.0
		for i, v := range cdf {
			if v < prev-1e-12 || v < 0 || v > 1 {
				t.Fatalf("%v: CDF not a CDF at %v: %v", proto, times[i], v)
			}
			prev = v
		}
		if last := cdf[len(cdf)-1]; last < 0.99 {
			t.Fatalf("%v: CDF(20s) = %v, update should be installed", proto, last)
		}
	}
}

func TestUpdateConvergenceLossless(t *testing.T) {
	// With pl = 0 and negligible competing events, the install time is the
	// channel delay: CDF(t) ≈ 1 − e^{−t/D}.
	p := DefaultParams()
	p.Loss = 0
	p.UpdateRate = 0
	p.RemovalRate = 1e-9
	m, err := Build(SS, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []float64{0.01, 0.03, 0.1} {
		cdf, err := m.UpdateConvergence([]float64{tt})
		if err != nil {
			t.Fatal(err)
		}
		want := 1 - math.Exp(-tt/p.Delay)
		if math.Abs(cdf[0]-want) > 1e-6 {
			t.Fatalf("t=%v: CDF = %v, want %v", tt, cdf[0], want)
		}
	}
}

func TestUpdateConvergenceReliableBeatsSS(t *testing.T) {
	// At high loss, reliable triggers install updates much sooner at the
	// refresh-timescale horizon.
	p := DefaultParams()
	p.Loss = 0.2
	ss, err := Build(SS, p)
	if err != nil {
		t.Fatal(err)
	}
	ssrt, err := Build(SSRT, p)
	if err != nil {
		t.Fatal(err)
	}
	at := []float64{0.5}
	cdfSS, err := ss.UpdateConvergence(at)
	if err != nil {
		t.Fatal(err)
	}
	cdfRT, err := ssrt.UpdateConvergence(at)
	if err != nil {
		t.Fatal(err)
	}
	if !(cdfRT[0] > cdfSS[0]) {
		t.Fatalf("P(installed by 0.5s): SS+RT %v should beat SS %v", cdfRT[0], cdfSS[0])
	}
}

func TestUpdateConvergenceValidation(t *testing.T) {
	m, err := Build(SS, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.UpdateConvergence([]float64{-1}); err == nil {
		t.Fatal("negative time accepted")
	}
	if _, err := m.UpdateConvergence([]float64{2, 1}); err == nil {
		t.Fatal("unsorted times accepted")
	}
}
