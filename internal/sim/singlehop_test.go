package sim

import (
	"math"
	"testing"

	"softstate/internal/rand"
	"softstate/internal/singlehop"
)

// fastParams shrinks the Kazaa scenario so cross-validation runs quickly:
// shorter sessions mean more regeneration cycles per simulated second.
func fastParams() singlehop.Params {
	p := singlehop.DefaultParams()
	p = p.WithSessionLength(300)
	return p
}

func runBoth(t *testing.T, proto singlehop.Protocol, p singlehop.Params, sessions int, timers rand.TimerKind) (Result, singlehop.Metrics) {
	t.Helper()
	res, err := RunSingleHop(Config{
		Protocol: proto,
		Params:   p,
		Sessions: sessions,
		Seed:     0xfeed + uint64(proto),
		Timers:   timers,
	})
	if err != nil {
		t.Fatal(err)
	}
	ana, err := singlehop.Analyze(proto, p)
	if err != nil {
		t.Fatal(err)
	}
	return res, ana
}

// TestDeterministicTimersMatchAnalytic is the repository's strongest
// correctness check, and it mirrors the paper's own validation (Figs. 11
// and 12): the event simulator runs the real protocols with deterministic
// timers, and its inconsistency ratio must land close to the CTMC's
// exponential-timer approximation — the paper reports <1% difference for I.
// We allow a wider band because the simulator includes second-order
// behavior the chain serializes away (updates during flight, spurious
// retransmissions under exponential channel delays).
func TestDeterministicTimersMatchAnalytic(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation needs many sessions")
	}
	for _, proto := range singlehop.Protocols() {
		res, ana := runBoth(t, proto, fastParams(), 4000, rand.Deterministic)
		diff := math.Abs(res.Inconsistency.Mean - ana.Inconsistency)
		if diff/ana.Inconsistency > 0.15 && diff > 0.002 {
			t.Errorf("%v: sim I=%v analytic I=%v (rel %.1f%%)",
				proto, res.Inconsistency.Mean, ana.Inconsistency, 100*diff/ana.Inconsistency)
		}
	}
}

// TestDeterministicTimersMessageRates: message accounting must agree with
// eqs. 3–7 within the paper's reported 5–15% band (we allow 25% to keep
// the test robust at this session count).
func TestDeterministicTimersMessageRates(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation needs many sessions")
	}
	for _, proto := range singlehop.Protocols() {
		res, ana := runBoth(t, proto, fastParams(), 3000, rand.Deterministic)
		rel := math.Abs(res.NormalizedRate.Mean-ana.NormalizedRate) / ana.NormalizedRate
		if rel > 0.25 {
			t.Errorf("%v: sim Λ=%v analytic Λ=%v (rel %.1f%%)",
				proto, res.NormalizedRate.Mean, ana.NormalizedRate, 100*rel)
		}
	}
}

// TestExponentialTimeoutBreaksSoftState pins an insight the paper's model
// quietly encodes: the CTMC treats false removal as the rare loss of every
// refresh in a timeout window (λf = pl^(T/R)/T), which is only faithful to
// a protocol whose timers are deterministic. If the *implemented* timeout
// timer is exponential, it races the refresh stream memorylessly and fires
// constantly (P ≈ R/(R+T) per refresh), destroying consistency. This is
// why deployed soft-state protocols use deterministic timeouts ≈ 3R.
func TestExponentialTimeoutBreaksSoftState(t *testing.T) {
	res, err := RunSingleHop(Config{
		Protocol: singlehop.SS,
		Params:   fastParams(),
		Sessions: 500,
		Seed:     9,
		Timers:   rand.Exponential,
	})
	if err != nil {
		t.Fatal(err)
	}
	ana, err := singlehop.Analyze(singlehop.SS, fastParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Inconsistency.Mean < 3*ana.Inconsistency {
		t.Fatalf("exponential timeout should collapse SS consistency: sim %v vs analytic %v",
			res.Inconsistency.Mean, ana.Inconsistency)
	}
}

func TestLosslessSSMatchesClosedForm(t *testing.T) {
	p := fastParams()
	p.Loss = 0
	res, err := RunSingleHop(Config{
		Protocol: singlehop.SS,
		Params:   p,
		Sessions: 3000,
		Seed:     7,
		Timers:   rand.Deterministic,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Closed form for the deterministic-timer protocol. The orphan wait
	// differs from the analytic model's: the receiver's timeout runs from
	// the last refresh it received, and the sender's removal lands
	// uniformly inside a refresh gap, so the orphan lives ≈ T + D − R/2
	// past the sender (vs the chain's memoryless T). Inconsistent time per
	// session: install D, one D per update (λu/μr of them), plus the
	// orphan interval.
	lu, mr, D, T, R := p.UpdateRate, p.RemovalRate, p.Delay, p.Timeout, p.Refresh
	orphan := T + D - R/2
	wantL := 1/mr + orphan
	if math.Abs(res.Lifetime.Mean-wantL) > 0.05*wantL {
		t.Fatalf("sim lifetime %v, closed form %v", res.Lifetime.Mean, wantL)
	}
	wantI := (D*(1+lu/mr) + orphan) / wantL
	if math.Abs(res.Inconsistency.Mean-wantI) > 0.1*wantI {
		t.Fatalf("sim I %v, closed form %v", res.Inconsistency.Mean, wantI)
	}
}

func TestSimDeterministicReproducible(t *testing.T) {
	cfg := Config{
		Protocol: singlehop.SSER,
		Params:   fastParams(),
		Sessions: 50,
		Seed:     123,
		Timers:   rand.Deterministic,
	}
	a, err := RunSingleHop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSingleHop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Inconsistency.Mean != b.Inconsistency.Mean ||
		a.MessagesPerSession.Mean != b.MessagesPerSession.Mean {
		t.Fatal("same seed produced different results")
	}
	cfg.Seed = 124
	c, err := RunSingleHop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Inconsistency.Mean == a.Inconsistency.Mean {
		t.Fatal("different seeds produced identical inconsistency (suspicious)")
	}
}

func TestSimConfigValidation(t *testing.T) {
	good := Config{Protocol: singlehop.SS, Params: fastParams(), Sessions: 1, Seed: 1}
	bad := good
	bad.Sessions = 0
	if _, err := RunSingleHop(bad); err == nil {
		t.Fatal("Sessions=0 accepted")
	}
	bad = good
	bad.Params.Delay = 0
	if _, err := RunSingleHop(bad); err == nil {
		t.Fatal("invalid params accepted")
	}
	bad = good
	bad.Params.RemovalRate = 0
	if _, err := RunSingleHop(bad); err == nil {
		t.Fatal("μr=0 accepted for session simulation")
	}
}

func TestSimMetricsSane(t *testing.T) {
	for _, proto := range singlehop.Protocols() {
		res, err := RunSingleHop(Config{
			Protocol: proto,
			Params:   fastParams(),
			Sessions: 300,
			Seed:     99,
			Timers:   rand.Deterministic,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Inconsistency.Mean < 0 || res.Inconsistency.Mean > 1 {
			t.Fatalf("%v: I = %v", proto, res.Inconsistency.Mean)
		}
		if res.Lifetime.Mean <= 0 {
			t.Fatalf("%v: lifetime = %v", proto, res.Lifetime.Mean)
		}
		if res.MessagesPerSession.Mean <= 0 {
			t.Fatalf("%v: msgs = %v", proto, res.MessagesPerSession.Mean)
		}
		if res.Sessions != 300 {
			t.Fatalf("%v: sessions = %d", proto, res.Sessions)
		}
	}
}

func TestSimOrderingsMatchPaper(t *testing.T) {
	// The qualitative conclusions must hold in simulation too.
	p := fastParams()
	get := func(proto singlehop.Protocol) Result {
		res, err := RunSingleHop(Config{
			Protocol: proto, Params: p, Sessions: 1500,
			Seed: 7, Timers: rand.Deterministic,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ss, sser, hs := get(singlehop.SS), get(singlehop.SSER), get(singlehop.HS)
	if !(sser.Inconsistency.Mean < ss.Inconsistency.Mean) {
		t.Fatalf("sim: SS+ER (%v) should beat SS (%v)", sser.Inconsistency.Mean, ss.Inconsistency.Mean)
	}
	if !(hs.Inconsistency.Mean < ss.Inconsistency.Mean) {
		t.Fatal("sim: HS should beat SS on consistency")
	}
	if !(hs.NormalizedRate.Mean < ss.NormalizedRate.Mean) {
		t.Fatal("sim: HS should use fewer messages than SS")
	}
}

func TestSSReceiverOutlivesSenderByTimeout(t *testing.T) {
	// Without explicit removal the orphaned state lives ≈T beyond the
	// sender's session on average.
	p := fastParams()
	res, err := RunSingleHop(Config{
		Protocol: singlehop.SS, Params: p, Sessions: 2000,
		Seed: 3, Timers: rand.Deterministic,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Expected session length ≈ 1/μr + T (deterministic timeout).
	want := 1/p.RemovalRate + p.Timeout
	if math.Abs(res.Lifetime.Mean-want) > 0.1*want {
		t.Fatalf("lifetime %v, want ≈%v", res.Lifetime.Mean, want)
	}
}

func TestReorderingAblationRuns(t *testing.T) {
	res, err := RunSingleHop(Config{
		Protocol: singlehop.SSER, Params: fastParams(), Sessions: 200,
		Seed: 5, Timers: rand.Deterministic, AllowReorder: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inconsistency.Mean <= 0 {
		t.Fatal("reordering ablation produced empty measurement")
	}
}

func TestEstimateString(t *testing.T) {
	e := Estimate{Mean: 0.1234, CI95: 0.001}
	if e.String() == "" {
		t.Fatal("empty estimate string")
	}
}

// BenchmarkSimulateSession measures event-simulator throughput in sessions
// per second at the Kazaa operating point (shortened sessions).
func BenchmarkSimulateSession(b *testing.B) {
	p := fastParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunSingleHop(Config{
			Protocol: singlehop.SSER,
			Params:   p,
			Sessions: 10,
			Seed:     uint64(i) + 1,
			Timers:   rand.Deterministic,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
