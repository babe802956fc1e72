package singlehop

import (
	"math"
	"testing"
	"testing/quick"
)

func TestProtocolString(t *testing.T) {
	want := map[Protocol]string{
		SS: "SS", SSER: "SS+ER", SSRT: "SS+RT", SSRTR: "SS+RTR", HS: "HS",
	}
	for p, s := range want {
		if p.String() != s {
			t.Fatalf("String(%d) = %q, want %q", int(p), p.String(), s)
		}
	}
	if Protocol(99).String() != "Protocol(99)" {
		t.Fatal("unknown protocol string")
	}
}

func TestProtocolMechanisms(t *testing.T) {
	cases := []struct {
		p                   Protocol
		refresh, er, rt, rr bool
	}{
		{SS, true, false, false, false},
		{SSER, true, true, false, false},
		{SSRT, true, false, true, false},
		{SSRTR, true, true, true, true},
		{HS, false, true, true, true},
	}
	for _, c := range cases {
		if c.p.Refreshes() != c.refresh || c.p.ExplicitRemoval() != c.er ||
			c.p.ReliableTrigger() != c.rt || c.p.ReliableRemoval() != c.rr {
			t.Fatalf("%v mechanism flags wrong", c.p)
		}
	}
}

func TestDefaultParamsMatchPaper(t *testing.T) {
	p := DefaultParams()
	if p.Loss != 0.02 || p.Delay != 0.030 || p.Refresh != 5 || p.Timeout != 15 {
		t.Fatalf("defaults = %+v", p)
	}
	if math.Abs(1/p.UpdateRate-20) > 1e-9 || math.Abs(1/p.RemovalRate-1800) > 1e-9 {
		t.Fatalf("rate defaults = %+v", p)
	}
	if math.Abs(p.Retransmit-4*p.Delay) > 1e-12 {
		t.Fatalf("Γ = %v, want 4D", p.Retransmit)
	}
	if p.FalseSignal != 0.0001 {
		t.Fatalf("λ = %v", p.FalseSignal)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParamHelpers(t *testing.T) {
	p := DefaultParams().WithSessionLength(100)
	if math.Abs(1/p.RemovalRate-100) > 1e-9 {
		t.Fatal("WithSessionLength failed")
	}
	p = p.WithRefresh(2)
	if p.Refresh != 2 || p.Timeout != 6 {
		t.Fatal("WithRefresh did not keep T = 3R")
	}
	p = p.WithDelay(0.1)
	if p.Delay != 0.1 || math.Abs(p.Retransmit-0.4) > 1e-12 {
		t.Fatal("WithDelay did not keep Γ = 4D")
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []Params{
		func() Params { p := DefaultParams(); p.Delay = 0; return p }(),
		func() Params { p := DefaultParams(); p.Delay = -1; return p }(),
		func() Params { p := DefaultParams(); p.Loss = 1; return p }(),
		func() Params { p := DefaultParams(); p.Loss = -0.1; return p }(),
		func() Params { p := DefaultParams(); p.Refresh = 0; return p }(),
		func() Params { p := DefaultParams(); p.Timeout = 0; return p }(),
		func() Params { p := DefaultParams(); p.Retransmit = 0; return p }(),
		func() Params { p := DefaultParams(); p.UpdateRate = math.NaN(); return p }(),
		func() Params { p := DefaultParams(); p.FalseSignal = -1; return p }(),
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d: Validate accepted %+v", i, p)
		}
	}
}

func TestFalseRemovalRate(t *testing.T) {
	p := DefaultParams()
	want := math.Pow(0.02, 3) / 15
	for _, proto := range []Protocol{SS, SSER, SSRT, SSRTR} {
		if got := p.FalseRemovalRate(proto); math.Abs(got-want) > 1e-18 {
			t.Fatalf("%v λf = %v, want %v", proto, got, want)
		}
	}
	if got := p.FalseRemovalRate(HS); got != p.FalseSignal {
		t.Fatalf("HS λf = %v, want λ", got)
	}
	p.Loss = 0
	if p.FalseRemovalRate(SS) != 0 {
		t.Fatal("λf should be 0 for lossless channel")
	}
}

func TestRem2StateOnlyWithExplicitRemoval(t *testing.T) {
	for _, proto := range Protocols() {
		m, err := Build(proto, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		has := m.has[stRem2]
		if has != proto.ExplicitRemoval() {
			t.Fatalf("%v: (-,1)2 present=%v, want %v", proto, has, proto.ExplicitRemoval())
		}
	}
}

// TestSSLosslessClosedForm checks the solver against a hand-derived result.
// With pl = 0 and λf = 0 the SS chain is a simple cycle:
//
//	occupancy((1,-)₁) = D, occupancy(C) = 1/μr,
//	occupancy(C̄₁)    = (λu/μr)·D, occupancy((-,1)₁) = T,
//
// so L = D(1 + λu/μr) + 1/μr + T and I = 1 − (1/μr)/L.
func TestSSLosslessClosedForm(t *testing.T) {
	p := DefaultParams()
	p.Loss = 0
	met, err := Analyze(SS, p)
	if err != nil {
		t.Fatal(err)
	}
	lu, mr, D, T := p.UpdateRate, p.RemovalRate, p.Delay, p.Timeout
	wantL := D*(1+lu/mr) + 1/mr + T
	if math.Abs(met.Lifetime-wantL) > 1e-6*wantL {
		t.Fatalf("Lifetime = %v, want %v", met.Lifetime, wantL)
	}
	wantI := 1 - (1/mr)/wantL
	if math.Abs(met.Inconsistency-wantI) > 1e-9 {
		t.Fatalf("I = %v, want %v", met.Inconsistency, wantI)
	}
}

// TestHSLosslessClosedForm: with pl = 0 and λ = 0 the HS chain is the same
// cycle with the orphan wait T replaced by a removal delivery delay D.
func TestHSLosslessClosedForm(t *testing.T) {
	p := DefaultParams()
	p.Loss = 0
	p.FalseSignal = 0
	met, err := Analyze(HS, p)
	if err != nil {
		t.Fatal(err)
	}
	lu, mr, D := p.UpdateRate, p.RemovalRate, p.Delay
	wantL := D*(1+lu/mr) + 1/mr + D
	if math.Abs(met.Lifetime-wantL) > 1e-6*wantL {
		t.Fatalf("Lifetime = %v, want %v", met.Lifetime, wantL)
	}
	wantI := 1 - (1/mr)/wantL
	if math.Abs(met.Inconsistency-wantI) > 1e-9 {
		t.Fatalf("I = %v, want %v", met.Inconsistency, wantI)
	}
}

// TestSSLosslessMessageRate pins the message accounting on the lossless
// cycle: per session the sender emits 1 setup trigger, λu/μr update
// triggers on average, and refreshes at rate 1/R while in (1,-)₂ ∪ C ∪ C̄₂
// (occupancy 1/μr here).
func TestSSLosslessMessageRate(t *testing.T) {
	p := DefaultParams()
	p.Loss = 0
	met, err := Analyze(SS, p)
	if err != nil {
		t.Fatal(err)
	}
	lu, mr, R := p.UpdateRate, p.RemovalRate, p.Refresh
	wantN := 1 + lu/mr + (1/mr)/R
	if math.Abs(met.MessagesPerSession-wantN) > 1e-6*wantN {
		t.Fatalf("E[N] = %v, want %v", met.MessagesPerSession, wantN)
	}
}

func TestMetricsAtPaperDefaults(t *testing.T) {
	// Magnitude checks against Figure 4 at 1/μr = 1800 s. Bounds are loose
	// on purpose: the paper's exact values are not recoverable from the
	// scanned figures, but the magnitudes and orderings are.
	p := DefaultParams()
	met := map[Protocol]Metrics{}
	for _, proto := range Protocols() {
		m, err := Analyze(proto, p)
		if err != nil {
			t.Fatal(err)
		}
		met[proto] = m
	}
	if i := met[SS].Inconsistency; i < 0.005 || i > 0.03 {
		t.Fatalf("I(SS) = %v, want ≈0.015", i)
	}
	if i := met[SSER].Inconsistency; i < 0.003 || i > 0.015 {
		t.Fatalf("I(SS+ER) = %v, want ≈0.007", i)
	}
	if i := met[HS].Inconsistency; i < 0.0005 || i > 0.005 {
		t.Fatalf("I(HS) = %v, want ≈0.0016", i)
	}
	if r := met[SS].NormalizedRate; r < 0.15 || r > 0.4 {
		t.Fatalf("Λ(SS) = %v, want ≈0.25", r)
	}
	if r := met[HS].NormalizedRate; r < 0.05 || r > 0.2 {
		t.Fatalf("Λ(HS) = %v, want ≈0.1", r)
	}
}

func TestPaperOrderingsAtDefaults(t *testing.T) {
	p := DefaultParams()
	get := func(proto Protocol) Metrics {
		m, err := Analyze(proto, p)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	ss, sser, ssrt, ssrtr, hs := get(SS), get(SSER), get(SSRT), get(SSRTR), get(HS)

	// Explicit removal substantially improves consistency (paper abstract).
	if !(sser.Inconsistency < ss.Inconsistency) {
		t.Fatal("SS+ER should beat SS on consistency")
	}
	// Reliable triggers help too.
	if !(ssrt.Inconsistency < ss.Inconsistency) {
		t.Fatal("SS+RT should beat SS on consistency")
	}
	// SS+RTR achieves comparable (sometimes better) consistency than HS.
	ratio := ssrtr.Inconsistency / hs.Inconsistency
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("I(SS+RTR)/I(HS) = %v, want ≈1", ratio)
	}
	// Explicit removal adds negligible overhead to SS (paper: "little
	// additional signaling message overhead").
	if over := sser.NormalizedRate - ss.NormalizedRate; over < 0 || over > 0.05*ss.NormalizedRate {
		t.Fatalf("SS+ER overhead over SS = %v", over)
	}
	// HS has the lowest signaling rate; SS+RTR the highest.
	for _, m := range []Metrics{ss, sser, ssrt, ssrtr} {
		if hs.NormalizedRate >= m.NormalizedRate {
			t.Fatal("HS should have the lowest message rate at defaults")
		}
	}
	for _, m := range []Metrics{ss, sser, ssrt, hs} {
		if ssrtr.NormalizedRate <= m.NormalizedRate {
			t.Fatal("SS+RTR should have the highest message rate at defaults")
		}
	}
}

func TestInconsistencyDecreasesWithSessionLength(t *testing.T) {
	for _, proto := range Protocols() {
		prev := math.Inf(1)
		for _, life := range []float64{10, 100, 1000, 10000} {
			met, err := Analyze(proto, DefaultParams().WithSessionLength(life))
			if err != nil {
				t.Fatal(err)
			}
			if met.Inconsistency >= prev {
				t.Fatalf("%v: I not decreasing at 1/μr=%v", proto, life)
			}
			prev = met.Inconsistency
		}
	}
}

func TestMessageRateDecreasesWithSessionLength(t *testing.T) {
	for _, proto := range Protocols() {
		prev := math.Inf(1)
		for _, life := range []float64{10, 100, 1000, 10000} {
			met, err := Analyze(proto, DefaultParams().WithSessionLength(life))
			if err != nil {
				t.Fatal(err)
			}
			if met.NormalizedRate >= prev {
				t.Fatalf("%v: Λ not decreasing at 1/μr=%v", proto, life)
			}
			prev = met.NormalizedRate
		}
	}
}

func TestInconsistencyGrowsWithLoss(t *testing.T) {
	for _, proto := range Protocols() {
		prev := -1.0
		for _, pl := range []float64{0, 0.05, 0.1, 0.2, 0.3} {
			p := DefaultParams()
			p.Loss = pl
			met, err := Analyze(proto, p)
			if err != nil {
				t.Fatal(err)
			}
			if met.Inconsistency <= prev {
				t.Fatalf("%v: I not increasing at pl=%v", proto, pl)
			}
			prev = met.Inconsistency
		}
	}
}

func TestReliableTriggerResistsLoss(t *testing.T) {
	// Figure 5(a): at pl = 0.15 the reliable-trigger protocols should be
	// far more consistent than pure SS.
	p := DefaultParams()
	p.Loss = 0.15
	ss, err := Analyze(SS, p)
	if err != nil {
		t.Fatal(err)
	}
	ssrt, err := Analyze(SSRT, p)
	if err != nil {
		t.Fatal(err)
	}
	if ssrt.Inconsistency > 0.5*ss.Inconsistency {
		t.Fatalf("I(SS+RT)=%v vs I(SS)=%v: reliable triggers should dominate at high loss",
			ssrt.Inconsistency, ss.Inconsistency)
	}
}

func TestHSInsensitiveToRefreshTimer(t *testing.T) {
	base, err := Analyze(HS, DefaultParams().WithRefresh(0.5))
	if err != nil {
		t.Fatal(err)
	}
	other, err := Analyze(HS, DefaultParams().WithRefresh(50))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(base.Inconsistency-other.Inconsistency) > 1e-12 {
		t.Fatal("HS inconsistency should not depend on R")
	}
	if math.Abs(base.NormalizedRate-other.NormalizedRate) > 1e-9 {
		t.Fatal("HS message rate should not depend on R")
	}
}

func TestShortTimeoutHurtsSoftState(t *testing.T) {
	// Figure 8(a): T < R causes mass false removal for soft protocols.
	p := DefaultParams() // R = 5
	p.Timeout = 1
	bad, err := Analyze(SS, p)
	if err != nil {
		t.Fatal(err)
	}
	good, err := Analyze(SS, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if bad.Inconsistency < 5*good.Inconsistency {
		t.Fatalf("I(T=1)=%v vs I(T=15)=%v: short timeout should be disastrous",
			bad.Inconsistency, good.Inconsistency)
	}
}

func TestBreakdownClassesMatchMechanisms(t *testing.T) {
	for _, proto := range Protocols() {
		met, err := Analyze(proto, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		b := met.Breakdown
		if (b.Refresh > 0) != proto.Refreshes() {
			t.Fatalf("%v refresh rate = %v", proto, b.Refresh)
		}
		if (b.Removal > 0) != proto.ExplicitRemoval() {
			t.Fatalf("%v removal rate = %v", proto, b.Removal)
		}
		if (b.ReliableTrigger > 0) != proto.ReliableTrigger() {
			t.Fatalf("%v reliable-trigger rate = %v", proto, b.ReliableTrigger)
		}
		if (b.ReliableRemoval > 0) != proto.ReliableRemoval() {
			t.Fatalf("%v reliable-removal rate = %v", proto, b.ReliableRemoval)
		}
		if b.Trigger <= 0 {
			t.Fatalf("%v trigger rate = %v, want positive", proto, b.Trigger)
		}
		sum := b.Trigger + b.Removal + b.Refresh + b.ReliableTrigger + b.ReliableRemoval
		if math.Abs(sum-met.MsgRate) > 1e-12 {
			t.Fatalf("%v breakdown does not sum to MsgRate", proto)
		}
	}
}

func TestIntegratedCost(t *testing.T) {
	met := Metrics{Inconsistency: 0.01, NormalizedRate: 0.2}
	if got := IntegratedCost(10, met); math.Abs(got-0.3) > 1e-15 {
		t.Fatalf("IntegratedCost = %v, want 0.3", got)
	}
}

func TestTableIRegeneration(t *testing.T) {
	p := DefaultParams()
	rows, err := TableI(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("Table I has %d rows, want 7", len(rows))
	}
	byLabelPrefix := func(prefix string) TableRow {
		for _, r := range rows {
			if len(r.Transition) >= len(prefix) && r.Transition[:len(prefix)] == prefix {
				return r
			}
		}
		t.Fatalf("no row with prefix %q", prefix)
		return TableRow{}
	}
	// Row 1: pl/D for every protocol.
	r1 := byLabelPrefix("(1,-)1→(1,-)2")
	for _, proto := range Protocols() {
		if math.Abs(r1.Rates[proto]-p.Loss/p.Delay) > 1e-9 {
			t.Fatalf("row1 %v rate = %v", proto, r1.Rates[proto])
		}
	}
	// Row 5: cleanup is 1/T for SS and SS+RT, (1-pl)/D otherwise.
	r5 := byLabelPrefix("(-,1)1→(-,-)")
	if math.Abs(r5.Rates[SS]-1/p.Timeout) > 1e-9 || math.Abs(r5.Rates[SSRT]-1/p.Timeout) > 1e-9 {
		t.Fatalf("row5 SS/SS+RT = %v/%v", r5.Rates[SS], r5.Rates[SSRT])
	}
	want := (1 - p.Loss) / p.Delay
	for _, proto := range []Protocol{SSER, SSRTR, HS} {
		if math.Abs(r5.Rates[proto]-want) > 1e-9 {
			t.Fatalf("row5 %v = %v, want %v", proto, r5.Rates[proto], want)
		}
	}
	// Row 4 absent for SS/SS+RT.
	r4 := byLabelPrefix("(-,1)1→(-,1)2")
	if r4.Rates[SS] != 0 || r4.Rates[SSRT] != 0 {
		t.Fatal("row4 should be empty for SS and SS+RT")
	}
	if r4.Symbolic[SS] != "-" {
		t.Fatal("row4 symbolic for SS should be '-'")
	}
	// Row 7 false removal: λ for HS, pl^(T/R)/T otherwise.
	r7 := byLabelPrefix("C→(1,-)2")
	if math.Abs(r7.Rates[HS]-p.FalseSignal) > 1e-18 {
		t.Fatalf("row7 HS = %v", r7.Rates[HS])
	}
	if math.Abs(r7.Rates[SS]-p.FalseRemovalRate(SS)) > 1e-18 {
		t.Fatalf("row7 SS = %v", r7.Rates[SS])
	}
}

func TestSolveInvariantsProperty(t *testing.T) {
	// Property: for random valid parameters, every protocol solves and the
	// metrics satisfy 0 ≤ I ≤ 1, L > 0, and nonnegative rates.
	prop := func(seed uint64) bool {
		s := seed
		next := func() float64 {
			// Cheap deterministic stream in (0,1).
			s = s*6364136223846793005 + 1442695040888963407
			return float64(s>>11) / (1 << 53)
		}
		p := Params{
			UpdateRate:  0.001 + next()*0.5,
			RemovalRate: 0.0001 + next()*0.1,
			Delay:       0.001 + next()*0.5,
			Loss:        next() * 0.5,
			Refresh:     0.1 + next()*30,
			FalseSignal: next() * 0.01,
		}
		p.Timeout = p.Refresh * (0.5 + next()*5)
		p.Retransmit = p.Delay * (1 + next()*8)
		for _, proto := range Protocols() {
			met, err := Analyze(proto, p)
			if err != nil {
				return false
			}
			if met.Inconsistency < -1e-9 || met.Inconsistency > 1+1e-9 {
				return false
			}
			if met.Lifetime <= 0 || met.MsgRate < 0 || met.NormalizedRate < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestLifetimeExceedsSessionLength(t *testing.T) {
	// The state lives at the receiver at least as long as at the sender.
	for _, proto := range Protocols() {
		met, err := Analyze(proto, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if met.Lifetime < 1800 {
			t.Fatalf("%v lifetime %v < sender session length", proto, met.Lifetime)
		}
	}
}

// BenchmarkAnalyzeSingleProtocol measures one CTMC build+solve, the unit
// of work behind every analytic sweep point.
func BenchmarkAnalyzeSingleProtocol(b *testing.B) {
	p := DefaultParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(SSRTR, p); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCompareCoversAllProtocols(t *testing.T) {
	cmp, err := Compare(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp) != 5 {
		t.Fatalf("Compare returned %d entries", len(cmp))
	}
	seen := map[Protocol]bool{}
	for _, c := range cmp {
		seen[c.Protocol] = true
		if c.Metrics.Lifetime <= 0 {
			t.Fatalf("%v has nonpositive lifetime", c.Protocol)
		}
	}
	for _, p := range Protocols() {
		if !seen[p] {
			t.Fatalf("missing protocol %v", p)
		}
	}
}

func TestCompareOrderMatchesPaper(t *testing.T) {
	cmp, err := Compare(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	want := []Protocol{SS, SSER, SSRT, SSRTR, HS}
	for i, c := range cmp {
		if c.Protocol != want[i] {
			t.Fatalf("position %d = %v, want %v", i, c.Protocol, want[i])
		}
	}
}

func TestBestProtocolExtremes(t *testing.T) {
	// α→0: only overhead matters → HS wins at the Kazaa defaults.
	best, cost, err := BestProtocol(0, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if best != HS {
		t.Fatalf("α=0 winner = %v, want HS", best)
	}
	if cost <= 0 {
		t.Fatalf("cost = %v", cost)
	}
	// Huge α: consistency dominates → a reliable-removal protocol wins.
	best, _, err = BestProtocol(1e6, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if best != SSRTR && best != HS {
		t.Fatalf("huge-α winner = %v", best)
	}
}
