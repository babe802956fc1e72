package softstate_test

import (
	"math"
	"testing"

	"softstate"
)

// TestPublicAPIQuickstart exercises the documented entry points end to
// end, as a downstream user would.
func TestPublicAPIQuickstart(t *testing.T) {
	p := softstate.DefaultParams()
	if err := errFrom(p.Validate()); err != nil {
		t.Fatal(err)
	}
	cmp, err := softstate.Compare(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp) != 5 {
		t.Fatalf("Compare returned %d protocols", len(cmp))
	}
	for _, c := range cmp {
		if c.Metrics.Inconsistency <= 0 || c.Metrics.Inconsistency >= 1 {
			t.Fatalf("%v: I = %v", c.Protocol, c.Metrics.Inconsistency)
		}
	}
	best, cost, err := softstate.BestProtocol(10, p)
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Fatalf("cost = %v", cost)
	}
	if best.String() == "" {
		t.Fatal("winner has no name")
	}
}

func errFrom(err error) error { return err }

// TestHeadlineResult pins the paper's abstract in one assertion chain:
// explicit removal substantially improves consistency at negligible cost,
// and reliable setup/update/removal brings soft state to hard-state
// consistency.
func TestHeadlineResult(t *testing.T) {
	p := softstate.DefaultParams()
	get := func(proto softstate.Protocol) softstate.Metrics {
		m, err := softstate.Analyze(proto, p)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	ss, sser, ssrtr, hs := get(softstate.SS), get(softstate.SSER), get(softstate.SSRTR), get(softstate.HS)

	if improvement := ss.Inconsistency / sser.Inconsistency; improvement < 1.5 {
		t.Fatalf("explicit removal improves I only %.2fx", improvement)
	}
	if overhead := (sser.NormalizedRate - ss.NormalizedRate) / ss.NormalizedRate; overhead > 0.05 {
		t.Fatalf("explicit removal costs %.1f%% extra messages", overhead*100)
	}
	if ratio := ssrtr.Inconsistency / hs.Inconsistency; math.Abs(ratio-1) > 0.5 {
		t.Fatalf("SS+RTR/HS consistency ratio = %.2f, want ≈1", ratio)
	}
}

// TestMultihopHeadline pins Fig 18's conclusion through the facade.
func TestMultihopHeadline(t *testing.T) {
	p := softstate.DefaultMultihopParams()
	ss, err := softstate.AnalyzeMultihop(softstate.SS, p)
	if err != nil {
		t.Fatal(err)
	}
	ssrt, err := softstate.AnalyzeMultihop(softstate.SSRT, p)
	if err != nil {
		t.Fatal(err)
	}
	if !(ssrt.Inconsistency < ss.Inconsistency/2) {
		t.Fatalf("hop-by-hop reliability should at least halve I: SS=%v SS+RT=%v",
			ss.Inconsistency, ssrt.Inconsistency)
	}
	if ssrt.MsgRate > 1.35*ss.MsgRate {
		t.Fatalf("reliability overhead too high: SS=%v SS+RT=%v", ss.MsgRate, ssrt.MsgRate)
	}
}

// TestFacadeDelegation smoke-checks that every facade function reaches
// its implementation: the analytic models and both simulators.
func TestFacadeDelegation(t *testing.T) {
	m, err := softstate.Analyze(softstate.SS, softstate.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if m.Inconsistency <= 0 {
		t.Fatal("Analyze returned empty metrics")
	}
	mm, err := softstate.AnalyzeMultihop(softstate.SS, softstate.DefaultMultihopParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(mm.PerHop) != 20 {
		t.Fatal("AnalyzeMultihop returned wrong hop count")
	}
	if got := softstate.IntegratedCost(10, m); got <= m.NormalizedRate {
		t.Fatalf("IntegratedCost = %v", got)
	}
	res, err := softstate.Simulate(softstate.SimConfig{
		Protocol: softstate.SSER,
		Params:   softstate.DefaultParams().WithSessionLength(100),
		Sessions: 50,
		Seed:     1,
		Timers:   softstate.Deterministic,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sessions != 50 {
		t.Fatal("Simulate did not run")
	}
	mres, err := softstate.SimulateMultihop(softstate.MultihopSimConfig{
		Protocol: softstate.SS,
		Params:   softstate.DefaultMultihopParams().WithHops(3),
		Horizon:  500,
		Runs:     1,
		Seed:     1,
		Timers:   softstate.Deterministic,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mres.PerHop) != 3 {
		t.Fatal("SimulateMultihop did not run")
	}
}
