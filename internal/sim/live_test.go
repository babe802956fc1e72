package sim

import (
	"reflect"
	"testing"
	"time"

	"softstate/internal/signal"
)

// fastLive is a small, quick experiment configuration: real endpoints,
// churned keys, 30 virtual seconds.
func fastLive(proto signal.Protocol, hops int, loss float64) LiveConfig {
	return LiveConfig{
		Protocol:        proto,
		Hops:            hops,
		Keys:            24,
		Loss:            loss,
		Delay:           2 * time.Millisecond,
		RefreshInterval: 100 * time.Millisecond,
		Timeout:         300 * time.Millisecond,
		Retransmit:      25 * time.Millisecond,
		MeanLifetime:    3 * time.Second,
		MeanGap:         time.Second,
		Duration:        30 * time.Second,
		Seed:            42,
	}
}

// lossCurve runs base once per loss rate — the live-stack version of the
// paper's consistency-versus-loss figures.
func lossCurve(t *testing.T, base LiveConfig, losses []float64) []LiveResult {
	t.Helper()
	out := make([]LiveResult, 0, len(losses))
	for _, p := range losses {
		cfg := base
		cfg.Loss = p
		r, err := RunLive(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
	}
	return out
}

// TestLiveSingleHopDeterministic: the whole stack — origin node, tail
// receiver, lossy switch, sharded tables, goroutine read loops — produces
// byte-identical results for equal seeds, and the workload actually
// exercised the protocol.
func TestLiveSingleHopDeterministic(t *testing.T) {
	cfg := fastLive(signal.SSRT, 1, 0.1)
	a, err := RunLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed runs diverged:\n%+v\n%+v", a, b)
	}
	if a.Datagrams == 0 || a.Samples == 0 || a.KeyEvents == 0 {
		t.Fatalf("degenerate run: %+v", a)
	}
	if a.Sent["trigger"] == 0 || a.Sent["refresh"] == 0 || a.Sent["ack"] == 0 {
		t.Fatalf("expected trigger/refresh/ack traffic, got %v", a.Sent)
	}
	cfg.Seed = 43
	c, err := RunLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical runs — rng not threaded")
	}
}

// TestLiveSingleHopPinned pins a one-hop run at recorded values, exactly,
// where the live5 artifact is checked only within tolerance: a change to
// how the two endpoints split the loss stream, or to a session's sequence
// base, shows here first.
func TestLiveSingleHopPinned(t *testing.T) {
	for _, want := range []struct {
		proto                       signal.Protocol
		samples, inconsistent, sent int
		byType                      map[string]int
	}{
		{signal.SSRTR, 14400, 57, 6009, map[string]int{
			"ack": 262, "notify": 43, "refresh": 4969, "removal": 231, "removal-ack": 212, "trigger": 292}},
		{signal.HS, 14400, 95, 1368, map[string]int{
			"ack": 239, "notify": 11, "probe": 209, "probe-ack": 189, "removal": 232, "removal-ack": 213, "trigger": 275}},
	} {
		cfg := fastLive(want.proto, 1, 0.1)
		cfg.MeanFalseSignal = 2 * time.Second
		r, err := RunLive(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.Samples != want.samples || r.InconsistentSamples != want.inconsistent ||
			r.Inconsistency != float64(want.inconsistent)/float64(want.samples) ||
			r.Datagrams != want.sent || !reflect.DeepEqual(r.Sent, want.byType) {
			t.Errorf("%v: got I=%v (%d of %d samples), %d datagrams %v; want %d of %d, %d datagrams %v",
				want.proto, r.Inconsistency, r.InconsistentSamples, r.Samples, r.Datagrams, r.Sent,
				want.inconsistent, want.samples, want.sent, want.byType)
		}
	}
}

// TestLiveChainConsistencyVsLoss is the acceptance experiment: the
// paper's consistency-versus-loss curve measured end to end on a real
// 3-hop node.Chain (origin, two relays, tail receiver) in virtual time —
// deterministic across same-seed repetitions, zero wall sleeps.
func TestLiveChainConsistencyVsLoss(t *testing.T) {
	base := fastLive(signal.SSRTR, 3, 0)
	losses := []float64{0, 0.1, 0.3}
	curve := lossCurve(t, base, losses)
	again := lossCurve(t, base, losses)
	if !reflect.DeepEqual(curve, again) {
		t.Fatalf("same-seed loss sweep diverged:\n%+v\n%+v", curve, again)
	}
	for i, r := range curve {
		t.Logf("loss=%.2f  I=%.4f  Λ=%.2f dgrams/key/s  (%d datagrams, %d key events)",
			losses[i], r.Inconsistency, r.Rate, r.Datagrams, r.KeyEvents)
		if r.Samples == 0 || r.Datagrams == 0 {
			t.Fatalf("degenerate point at loss %.2f: %+v", losses[i], r)
		}
		if r.Hops != 3 {
			t.Fatalf("ran %d hops, want 3", r.Hops)
		}
	}
	// More loss cannot make the signaling path more consistent: the
	// lossiest point must be strictly worse than the lossless one, which
	// itself stays small (bounded by propagation plus removal windows).
	if curve[0].Inconsistency >= curve[len(curve)-1].Inconsistency {
		t.Fatalf("inconsistency did not grow with loss: %.4f → %.4f",
			curve[0].Inconsistency, curve[len(curve)-1].Inconsistency)
	}
	if curve[0].Inconsistency > 0.30 {
		t.Fatalf("lossless 3-hop inconsistency = %.4f, expected < 0.30", curve[0].Inconsistency)
	}
}

// TestLiveExplicitRemovalBeatsTimeout reproduces the paper's core
// soft-state-mechanism contrast on the real stack: with churned keys and
// no loss, SS pays a state-timeout of inconsistency after every removal
// while SS+ER clears it in one propagation delay, so SS+ER's measured
// inconsistency must be well below SS's.
func TestLiveExplicitRemovalBeatsTimeout(t *testing.T) {
	ss, err := RunLive(fastLive(signal.SS, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	sser, err := RunLive(fastLive(signal.SSER, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("SS I=%.4f   SS+ER I=%.4f", ss.Inconsistency, sser.Inconsistency)
	if sser.Inconsistency*2 >= ss.Inconsistency {
		t.Fatalf("explicit removal did not beat timeout removal: SS %.4f vs SS+ER %.4f",
			ss.Inconsistency, sser.Inconsistency)
	}
	if sser.Sent["removal"] == 0 || ss.Sent["removal"] != 0 {
		t.Fatalf("removal traffic wrong: SS %v, SS+ER %v", ss.Sent, sser.Sent)
	}
}

// TestLiveHardStateFalseRemovalRepair: HS on the real stack holds state
// with zero refresh traffic, and repairs injected false removals via the
// notify → re-trigger path.
func TestLiveHardStateFalseRemovalRepair(t *testing.T) {
	cfg := fastLive(signal.HS, 1, 0)
	cfg.MeanLifetime = 0 // immortal keys; failures come from false signals
	cfg.MeanFalseSignal = 500 * time.Millisecond
	r, err := RunLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Sent["refresh"] != 0 {
		t.Fatalf("hard state sent %d refreshes", r.Sent["refresh"])
	}
	if r.Sent["notify"] == 0 {
		t.Fatal("false signals produced no notifications")
	}
	// Repairs keep inconsistency bounded despite ~60 false removals.
	if r.Inconsistency > 0.10 {
		t.Fatalf("HS inconsistency %.4f despite repair path", r.Inconsistency)
	}
}

// TestLiveFanoutSummaryRefresh: a real node.Node fans 8×128 keys out over
// the virtual switch; summary refresh keeps every key alive through
// several timeout windows at the expected keys-per-datagram reduction,
// deterministically.
func TestLiveFanoutSummaryRefresh(t *testing.T) {
	cfg := FanoutConfig{
		Peers:           8,
		Keys:            128,
		RefreshInterval: 40 * time.Millisecond,
		Timeout:         160 * time.Millisecond,
		Duration:        640 * time.Millisecond, // 4 timeout windows
		Seed:            7,
	}
	a, err := RunLiveFanout(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunLiveFanout(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed fan-out runs diverged:\n%+v\n%+v", a, b)
	}
	if a.Held != cfg.Peers*cfg.Keys {
		t.Fatalf("held %d of %d keys after 4 timeout windows", a.Held, cfg.Peers*cfg.Keys)
	}
	if a.KeysPerDatagram < 32 {
		t.Fatalf("summary reduction only %.1f keys/datagram", a.KeysPerDatagram)
	}
	t.Logf("fan-out: %d keys held, %.1f keys/datagram over %d summaries",
		a.Held, a.KeysPerDatagram, a.SummaryDatagrams)
}
