package sim

import (
	"reflect"
	"testing"
	"time"

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
		Jitter:          time.Millisecond,
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
	a, err := ConsistencyVsLoss(detLiveConfig(), losses)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ConsistencyVsLoss(detLiveConfig(), losses)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different results:\n%+v\nvs\n%+v", a, b)
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
