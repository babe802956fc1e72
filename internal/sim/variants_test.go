package sim

import (
	"reflect"
	"testing"
	"time"

	"softstate/internal/signal"
	"softstate/internal/singlehop"
)

// variantBase is the five-way comparison workload: churned keys, 15%
// loss, and the external false-removal signal firing (the failure mode HS
// must pay for), so every protocol's distinctive mechanism is exercised.
func variantBase() LiveConfig {
	base := fastLive(signal.SS, 1, 0.15)
	base.MeanFalseSignal = 2 * time.Second
	return base
}

// TestLiveFiveVariantSweep is the tentpole acceptance test: all five
// paper protocols run on the real wire stack under one virtual clock,
// same-seed deterministic, and the measured consistency ordering
// reproduces the paper's qualitative result — the reliable-removal
// variants achieve the lowest inconsistency while pure SS runs with the
// least per-message machinery.
func TestLiveFiveVariantSweep(t *testing.T) {
	base := variantBase()
	a, err := RunLiveVariants(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunLiveVariants(base)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed five-variant sweeps diverged:\n%+v\n%+v", a, b)
	}

	I := map[signal.Protocol]float64{}
	for _, r := range a {
		I[r.Protocol] = r.Inconsistency
		if r.Samples == 0 || r.Datagrams == 0 || r.KeyEvents == 0 {
			t.Fatalf("degenerate %v run: %+v", r.Protocol, r)
		}
		t.Logf("%-7v I=%.4f Λ=%.2f dgrams/key/s sent=%v", r.Protocol, r.Inconsistency, r.Rate, r.Sent)
	}

	// Paper ordering, qualitatively: reliable removal wins the
	// consistency race; every reliability mechanism beats timeout-only
	// removal under loss.
	for _, rel := range []signal.Protocol{signal.SSRTR, signal.HS} {
		for _, weak := range []signal.Protocol{signal.SS, signal.SSRT} {
			if I[rel] >= I[weak] {
				t.Errorf("I(%v)=%.4f not below I(%v)=%.4f", rel, I[rel], weak, I[weak])
			}
		}
	}
	if I[signal.SSER] >= I[signal.SS] {
		t.Errorf("explicit removal did not help: I(SS+ER)=%.4f vs I(SS)=%.4f", I[signal.SSER], I[signal.SS])
	}
	min := signal.SS
	for p, v := range I {
		if v < I[min] {
			min = p
		}
	}
	if min != signal.SSRTR && min != signal.HS {
		t.Errorf("lowest inconsistency is %v, want a reliable-removal variant", min)
	}

	// Per-message machinery: pure SS runs none of it — no acks, no
	// removals, no probes. Every other variant runs its distinctive
	// mechanism on the wire.
	byProto := map[signal.Protocol]LiveResult{}
	for _, r := range a {
		byProto[r.Protocol] = r
	}
	if m := byProto[signal.SS].Machinery(); m != 0 {
		t.Errorf("SS sent %d machinery datagrams, want 0 (%v)", m, byProto[signal.SS].Sent)
	}
	checks := []struct {
		proto signal.Protocol
		typ   string
	}{
		{signal.SSER, "removal"},
		{signal.SSRT, "ack"},
		{signal.SSRTR, "removal-ack"},
		{signal.HS, "probe"},
		{signal.HS, "probe-ack"},
	}
	for _, c := range checks {
		if byProto[c.proto].Sent[c.typ] == 0 {
			t.Errorf("%v sent no %s datagrams: %v", c.proto, c.typ, byProto[c.proto].Sent)
		}
	}
	if byProto[signal.HS].Sent["refresh"] != 0 {
		t.Errorf("HS sent refreshes: %v", byProto[signal.HS].Sent)
	}
}

// TestLiveFiveVariantLossCurve: the five-way sweep extends across the
// loss axis deterministically, and more loss never helps any protocol.
func TestLiveFiveVariantLossCurve(t *testing.T) {
	base := variantBase()
	base.Duration = 20 * time.Second
	losses := []float64{0, 0.3}
	for _, proto := range singlehop.Protocols() {
		cfg := base
		cfg.Protocol = proto
		curve := lossCurve(t, cfg, losses)
		if again := lossCurve(t, cfg, losses); !reflect.DeepEqual(curve, again) {
			t.Fatalf("same-seed %v loss sweep diverged", proto)
		}
		lossless, lossy := curve[0], curve[len(curve)-1]
		t.Logf("%-7v I(0)=%.4f I(0.3)=%.4f", proto, lossless.Inconsistency, lossy.Inconsistency)
		if lossless.Inconsistency > lossy.Inconsistency {
			t.Errorf("%v got more consistent under 30%% loss: %.4f → %.4f",
				proto, lossless.Inconsistency, lossy.Inconsistency)
		}
	}
}
