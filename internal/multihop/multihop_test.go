package multihop

import (
	"math"
	"testing"
	"testing/quick"

	"softstate/internal/singlehop"
)

func TestDefaultParamsMatchPaper(t *testing.T) {
	p := DefaultParams()
	if p.Hops != 20 || p.Loss != 0.02 || p.Delay != 0.030 {
		t.Fatalf("defaults = %+v", p)
	}
	if math.Abs(1/p.UpdateRate-60) > 1e-9 {
		t.Fatalf("1/λu = %v, want 60", 1/p.UpdateRate)
	}
	if p.Refresh != 5 || p.Timeout != 15 || math.Abs(p.Retransmit-0.12) > 1e-12 {
		t.Fatalf("timers = %+v", p)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestProtocols(t *testing.T) {
	mp := Protocols()
	if len(mp) != 3 || mp[0] != singlehop.SS || mp[1] != singlehop.SSRT || mp[2] != singlehop.HS {
		t.Fatalf("Protocols = %v", mp)
	}
}

func TestSupported(t *testing.T) {
	want := map[singlehop.Protocol]bool{
		singlehop.SS: true, singlehop.SSRT: true, singlehop.HS: true,
		singlehop.SSER: false, singlehop.SSRTR: false,
	}
	for proto, w := range want {
		if Supported(proto) != w {
			t.Fatalf("Supported(%v) = %v", proto, !w)
		}
	}
	if _, err := Build(singlehop.SSER, DefaultParams()); err == nil {
		t.Fatal("Build accepted an unsupported protocol")
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []Params{
		func() Params { p := DefaultParams(); p.Hops = 0; return p }(),
		func() Params { p := DefaultParams(); p.Delay = 0; return p }(),
		func() Params { p := DefaultParams(); p.Loss = 1; return p }(),
		func() Params { p := DefaultParams(); p.Refresh = -1; return p }(),
		func() Params { p := DefaultParams(); p.Timeout = 0; return p }(),
		func() Params { p := DefaultParams(); p.Retransmit = math.NaN(); return p }(),
		func() Params { p := DefaultParams(); p.UpdateRate = -0.1; return p }(),
		func() Params { p := DefaultParams(); p.FalseRemoval = -1; return p }(),
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d accepted %+v", i, p)
		}
	}
}

func TestExpectedRelayHops(t *testing.T) {
	p := DefaultParams().WithHops(20)
	want := (1 - math.Pow(0.98, 20)) / 0.02
	if got := p.ExpectedRelayHops(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("E_h = %v, want %v", got, want)
	}
	p.Loss = 0
	if got := p.ExpectedRelayHops(); got != 20 {
		t.Fatalf("lossless E_h = %v, want 20", got)
	}
}

func TestTimeoutRatesFormDistribution(t *testing.T) {
	// Σ_j timeoutRate(j)·T = P(timeout anywhere) ≤ 1, each term ≥ 0, and
	// j = 0 reproduces the single-hop λf = pl^(T/R)/T.
	p := DefaultParams()
	var sum float64
	for j := 0; j < p.Hops; j++ {
		r := p.timeoutRate(j)
		if r < 0 {
			t.Fatalf("timeoutRate(%d) = %v < 0", j, r)
		}
		sum += r * p.Timeout
	}
	if sum > 1+1e-12 {
		t.Fatalf("timeout probabilities sum to %v > 1", sum)
	}
	want := math.Pow(p.Loss, p.Timeout/p.Refresh) / p.Timeout
	if got := p.timeoutRate(0); math.Abs(got-want) > 1e-15 {
		t.Fatalf("timeoutRate(0) = %v, want single-hop λf %v", got, want)
	}
}

// losslessConsistentMass returns the exact π(N,0) of the lossless chain:
// a birth chain (i,0) → (i+1,0) at a = 1/D with restart to (0,0) at λu from
// every non-initial state. Balance gives π_i = π_0·ρ^i with ρ = a/(a+λu)
// for i < N and π_N = π_0·(a/λu)·ρ^(N−1).
func losslessConsistentMass(p Params) float64 {
	a, u := 1/p.Delay, p.UpdateRate
	rho := a / (a + u)
	n := p.Hops
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += math.Pow(rho, float64(i))
	}
	top := (a / u) * math.Pow(rho, float64(n-1))
	return top / (sum + top)
}

func TestLosslessStationary(t *testing.T) {
	// With pl = 0 the chain is a clean install cycle: from (0,0) the
	// trigger crosses one hop per exponential delay; updates restart it.
	p := DefaultParams().WithHops(5)
	p.Loss = 0
	for _, proto := range []singlehop.Protocol{singlehop.SS, singlehop.SSRT} {
		met, err := Analyze(proto, p)
		if err != nil {
			t.Fatal(err)
		}
		want := 1 - losslessConsistentMass(p)
		if math.Abs(met.Inconsistency-want) > 1e-9 {
			t.Fatalf("%v lossless I = %v, want %v", proto, met.Inconsistency, want)
		}
	}
}

func TestLosslessHSWithoutFaults(t *testing.T) {
	p := DefaultParams().WithHops(5)
	p.Loss = 0
	p.FalseRemoval = 0
	met, err := Analyze(singlehop.HS, p)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - losslessConsistentMass(p)
	if math.Abs(met.Inconsistency-want) > 1e-9 {
		t.Fatalf("HS lossless I = %v, want %v", met.Inconsistency, want)
	}
	if met.RecoveryRate != 0 {
		t.Fatalf("RecoveryRate = %v, want 0", met.RecoveryRate)
	}
}

func TestPerHopInconsistencyIncreasesWithDistance(t *testing.T) {
	// Figure 17: hops further from the sender are inconsistent more often.
	for _, proto := range []singlehop.Protocol{singlehop.SS, singlehop.SSRT, singlehop.HS} {
		met, err := Analyze(proto, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if len(met.PerHop) != 20 {
			t.Fatalf("PerHop length %d, want 20", len(met.PerHop))
		}
		for k := 1; k < len(met.PerHop); k++ {
			if met.PerHop[k] < met.PerHop[k-1]-1e-12 {
				t.Fatalf("%v: per-hop inconsistency decreased at hop %d", proto, k+1)
			}
		}
		// The last hop's inconsistency equals the end-to-end ratio.
		last := met.PerHop[len(met.PerHop)-1]
		if math.Abs(last-met.Inconsistency) > 1e-9 {
			t.Fatalf("%v: PerHop[N-1] = %v != I = %v", proto, last, met.Inconsistency)
		}
	}
}

func TestFigure17Ordering(t *testing.T) {
	// SS is worst at every hop; SS+RT is comparable to HS with HS slightly
	// better (the paper attributes HS's edge to SS+RT's residual timeouts).
	p := DefaultParams()
	ss, err := Analyze(singlehop.SS, p)
	if err != nil {
		t.Fatal(err)
	}
	ssrt, err := Analyze(singlehop.SSRT, p)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := Analyze(singlehop.HS, p)
	if err != nil {
		t.Fatal(err)
	}
	for k := range ss.PerHop {
		if !(ss.PerHop[k] > ssrt.PerHop[k]) {
			t.Fatalf("hop %d: SS (%v) should exceed SS+RT (%v)", k+1, ss.PerHop[k], ssrt.PerHop[k])
		}
	}
	if !(hs.Inconsistency < ssrt.Inconsistency) {
		t.Fatalf("I(HS)=%v should be slightly below I(SS+RT)=%v", hs.Inconsistency, ssrt.Inconsistency)
	}
	if ssrt.Inconsistency > 3*hs.Inconsistency {
		t.Fatalf("SS+RT (%v) should be comparable to HS (%v)", ssrt.Inconsistency, hs.Inconsistency)
	}
}

func TestInconsistencyGrowsWithHops(t *testing.T) {
	// Figure 18(a).
	for _, proto := range []singlehop.Protocol{singlehop.SS, singlehop.SSRT, singlehop.HS} {
		prev := -1.0
		for _, n := range []int{1, 2, 5, 10, 20} {
			met, err := Analyze(proto, DefaultParams().WithHops(n))
			if err != nil {
				t.Fatal(err)
			}
			if met.Inconsistency <= prev {
				t.Fatalf("%v: I not increasing at N=%d", proto, n)
			}
			prev = met.Inconsistency
		}
	}
}

func TestMessageRateGrowsWithHops(t *testing.T) {
	// Figure 18(b).
	for _, proto := range []singlehop.Protocol{singlehop.SS, singlehop.SSRT, singlehop.HS} {
		prev := -1.0
		for _, n := range []int{1, 2, 5, 10, 20} {
			met, err := Analyze(proto, DefaultParams().WithHops(n))
			if err != nil {
				t.Fatal(err)
			}
			if met.MsgRate <= prev {
				t.Fatalf("%v: message rate not increasing at N=%d", proto, n)
			}
			prev = met.MsgRate
		}
	}
}

func TestFigure18Magnitudes(t *testing.T) {
	// At N = 20 the refresh traffic dominates the soft protocols: E_h/R ≈
	// 3.3 msg/s; HS sits far below (trigger traffic only, ≈0.3 msg/s).
	p := DefaultParams()
	ss, err := Analyze(singlehop.SS, p)
	if err != nil {
		t.Fatal(err)
	}
	if ss.MsgRate < 2 || ss.MsgRate > 5 {
		t.Fatalf("SS msg rate = %v, want ≈3.4", ss.MsgRate)
	}
	hs, err := Analyze(singlehop.HS, p)
	if err != nil {
		t.Fatal(err)
	}
	if hs.MsgRate > 1 {
		t.Fatalf("HS msg rate = %v, want < 1", hs.MsgRate)
	}
	ssrt, err := Analyze(singlehop.SSRT, p)
	if err != nil {
		t.Fatal(err)
	}
	// "Adding a reliable trigger ... introduces little additional
	// signaling overhead" — SS+RT within 35% of SS.
	if ssrt.MsgRate < ss.MsgRate || ssrt.MsgRate > 1.35*ss.MsgRate {
		t.Fatalf("SS+RT rate %v vs SS %v", ssrt.MsgRate, ss.MsgRate)
	}
}

func TestFigure18ConsistencyOrdering(t *testing.T) {
	// SS is the most sensitive to hop count; SS+RT stays close to HS.
	p := DefaultParams()
	ss, _ := Analyze(singlehop.SS, p)
	ssrt, _ := Analyze(singlehop.SSRT, p)
	hs, _ := Analyze(singlehop.HS, p)
	if !(ss.Inconsistency > ssrt.Inconsistency && ssrt.Inconsistency > hs.Inconsistency) {
		t.Fatalf("ordering violated: SS=%v SS+RT=%v HS=%v",
			ss.Inconsistency, ssrt.Inconsistency, hs.Inconsistency)
	}
}

func TestRefreshTimerTradeoffSS(t *testing.T) {
	// Figure 19(a): SS has an interior optimum in R — both very small and
	// very large R hurt (timeout cascades vs slow repair).
	inc := func(r float64) float64 {
		met, err := Analyze(singlehop.SS, DefaultParams().WithRefresh(r))
		if err != nil {
			t.Fatal(err)
		}
		return met.Inconsistency
	}
	mid := inc(0.7)
	if !(inc(0.05) > mid) {
		t.Fatal("tiny R should hurt SS (refresh flood cannot fix timeouts)")
	}
	if !(inc(100) > mid) {
		t.Fatal("huge R should hurt SS (slow repair)")
	}
}

func TestRefreshTimerMessageRateFalls(t *testing.T) {
	// Figure 19(b): message rate decreases with R for SS and SS+RT.
	for _, proto := range []singlehop.Protocol{singlehop.SS, singlehop.SSRT} {
		prev := math.Inf(1)
		for _, r := range []float64{0.5, 1, 5, 20, 100} {
			met, err := Analyze(proto, DefaultParams().WithRefresh(r))
			if err != nil {
				t.Fatal(err)
			}
			if met.MsgRate >= prev {
				t.Fatalf("%v: message rate not decreasing at R=%v", proto, r)
			}
			prev = met.MsgRate
		}
	}
}

func TestHSRateIndependentOfRefresh(t *testing.T) {
	a, _ := Analyze(singlehop.HS, DefaultParams().WithRefresh(0.5))
	b, _ := Analyze(singlehop.HS, DefaultParams().WithRefresh(50))
	if math.Abs(a.MsgRate-b.MsgRate) > 1e-9 || math.Abs(a.Inconsistency-b.Inconsistency) > 1e-12 {
		t.Fatal("HS metrics should not depend on R")
	}
}

func TestSolveInvariantsProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		s := seed
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(s>>11) / (1 << 53)
		}
		p := Params{
			Hops:         1 + int(next()*15),
			UpdateRate:   next() * 0.2,
			Delay:        0.005 + next()*0.2,
			Loss:         next() * 0.3,
			Refresh:      0.2 + next()*20,
			FalseRemoval: next() * 0.001,
		}
		p.Timeout = p.Refresh * (1.5 + next()*4)
		p.Retransmit = p.Delay * (2 + next()*6)
		for _, proto := range []singlehop.Protocol{singlehop.SS, singlehop.SSRT, singlehop.HS} {
			met, err := Analyze(proto, p)
			if err != nil {
				return false
			}
			if met.Inconsistency < -1e-9 || met.Inconsistency > 1+1e-9 || met.MsgRate < 0 {
				return false
			}
			for _, h := range met.PerHop {
				if h < -1e-9 || h > 1+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleHopDegenerate(t *testing.T) {
	// With N = 1 the multi-hop chain reduces to setup/update dynamics of
	// the single-hop model with infinite lifetime; sanity: I is small and
	// positive at the defaults.
	met, err := Analyze(singlehop.SS, DefaultParams().WithHops(1))
	if err != nil {
		t.Fatal(err)
	}
	if met.Inconsistency <= 0 || met.Inconsistency > 0.05 {
		t.Fatalf("N=1 I = %v", met.Inconsistency)
	}
}

// BenchmarkAnalyzeMultihop20 measures the 20-hop chain solve (≈42 states).
func BenchmarkAnalyzeMultihop20(b *testing.B) {
	p := DefaultParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(singlehop.SSRT, p); err != nil {
			b.Fatal(err)
		}
	}
}
