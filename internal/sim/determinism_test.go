package sim

import (
	"reflect"
	"testing"
	"time"

	"softstate/internal/clock"
	"softstate/internal/lossy"
	livenode "softstate/internal/node"
	"softstate/internal/signal"
)

// These tests are the regression net for the link's gate handoff: the same
// seed must keep producing identical experiment results run over run. The
// workloads deliberately mix loss, delay, churn, summary refresh, and ack
// coalescing so every coalescing-sensitive path is exercised. (That a burst
// fares the same however its writer splits it is the link's own property:
// lossy.TestBurstSplitsDeliverAlike.)

func detLiveConfig() LiveConfig {
	return LiveConfig{
		Protocol:        signal.SSRT,
		Hops:            3,
		Keys:            24,
		Loss:            0.15,
		Delay:           2 * time.Millisecond,
		RefreshInterval: 50 * time.Millisecond,
		MeanLifetime:    400 * time.Millisecond,
		MeanGap:         150 * time.Millisecond,
		MeanFalseSignal: 300 * time.Millisecond,
		SummaryRefresh:  true,
		CoalesceAcks:    true,
		Duration:        4 * time.Second,
		Seed:            1055,
	}
}

func TestConsistencyVsLossDeterministicAcrossRuns(t *testing.T) {
	losses := []float64{0, 0.1, 0.3}
	a := lossCurve(t, detLiveConfig(), losses)
	b := lossCurve(t, detLiveConfig(), losses)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different results:\n%+v\nvs\n%+v", a, b)
	}
}

// TestReorderingChainDeterministicAcrossRuns: the same workload over a
// chain whose links reorder — a jittered delay the test sets on the
// chain's own switch — still replays identically from one seed.
func TestReorderingChainDeterministicAcrossRuns(t *testing.T) {
	cfg := detLiveConfig()
	if err := cfg.applyDefaults(); err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		samples, inconsistent, keyEvents int
		stats                            []signal.Stats
	}
	run := func() outcome {
		v := clock.NewVirtual()
		link := lossy.Config{Loss: cfg.Loss, Delay: cfg.Delay, Jitter: time.Millisecond, Seed: cfg.Seed, Clock: v}
		c, err := livenode.NewChain(cfg.Hops+1, cfg.signalConfig(v), link)
		if err != nil {
			t.Fatal(err)
		}
		stack := chainStack(c)
		defer stack.close()
		w := startWorkload(cfg, v, stack)
		v.Run(cfg.Duration)
		return outcome{w.samples, w.inconsistent, w.keyEvents, stack.stats()}
	}
	first, again := run(), run()
	if first.samples == 0 || first.keyEvents == 0 {
		t.Fatalf("the workload did not run: %+v", first)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("same seed, different results:\n%+v\nvs\n%+v", first, again)
	}
}

func TestFanoutDeterministicAcrossRuns(t *testing.T) {
	cfg := FanoutConfig{
		Peers:           8,
		Keys:            512,
		Loss:            0.05,
		Delay:           time.Millisecond,
		RefreshInterval: 50 * time.Millisecond,
		Duration:        300 * time.Millisecond,
	}
	first, err := RunLiveFanout(cfg)
	if err != nil {
		t.Fatal(err)
	}
	again, err := RunLiveFanout(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("same seed, different fan-out results:\n%+v\nvs\n%+v", first, again)
	}
}
