package sim

import (
	"reflect"
	"testing"
	"time"

	"softstate/internal/signal"
	"softstate/internal/telemetry"
)

// TestLiveTreeTopology: a binary tree of depth 2 samples consistency at
// every leaf, so Samples scales with the leaf count.
func TestLiveTreeTopology(t *testing.T) {
	cfg := fastLive(signal.SSER, 2, 0.1)
	cfg.TreeFanout = 2
	cfg.Keys = 12
	a, err := RunLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Topology != "tree" || a.Leaves != 4 {
		t.Fatalf("tree run mislabeled: %+v", a)
	}
	chain := fastLive(signal.SSER, 2, 0.1)
	chain.Keys = 12
	c, err := RunLive(chain)
	if err != nil {
		t.Fatal(err)
	}
	if c.Topology != "chain" || c.Leaves != 1 {
		t.Fatalf("chain run mislabeled: %+v", c)
	}
	if a.Samples != 4*c.Samples {
		t.Fatalf("tree should sample 4 leaves per chain sample: %d vs %d", a.Samples, c.Samples)
	}
	b, err := RunLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed tree runs diverged:\n%+v\n%+v", a, b)
	}
}

// TestLiveTopologyValidation: configs no topology can run are rejected.
func TestLiveTopologyValidation(t *testing.T) {
	cfg := fastLive(signal.SS, 1, 0)
	cfg.Keys = 0
	if _, err := RunLive(cfg); err == nil {
		t.Fatal("a run without keys must be rejected")
	}
	cfg = fastLive(signal.SS, 2, 0)
	cfg.TreeFanout = 1 << 11
	if _, err := RunLive(cfg); err == nil {
		t.Fatal("an oversized tree must be rejected")
	}
}

// TestLiveMetricsObserverOnly: instrumenting a run must not change its
// result (metrics are pure observers), and the registry must hold the
// paper gauges after a 1-hop run.
func TestLiveMetricsObserverOnly(t *testing.T) {
	cfg := fastLive(signal.SSRT, 1, 0.15)
	bare, err := RunLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Metrics = telemetry.NewRegistry()
	instrumented, err := RunLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, instrumented) {
		t.Fatalf("metrics changed the run:\n%+v\n%+v", bare, instrumented)
	}

	found := map[string]bool{}
	for _, s := range cfg.Metrics.Gather() {
		found[s.Name] = true
	}
	for _, want := range []string{
		"softstate_inconsistency_ratio",
		"softstate_datagrams_per_key_per_s",
		"softstate_install_ack_seconds",
	} {
		if !found[want] {
			t.Fatalf("registry missing %s after instrumented run; have %v", want, found)
		}
	}
	if qs, ok := telemetry.HistogramQuantiles(cfg.Metrics.Gather(), "softstate_install_ack_seconds", 0.5); !ok || qs[0] <= 0 {
		t.Fatalf("install→ack histogram should be populated, got %v %v", qs, ok)
	}
}

// TestLiveMetricsMultiHop: instrumentation also attaches (without the
// paper collector) on chain runs, and stays observer-only.
func TestLiveMetricsMultiHop(t *testing.T) {
	cfg := fastLive(signal.SSER, 3, 0.1)
	cfg.Duration = 10 * time.Second
	bare, err := RunLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Metrics = telemetry.NewRegistry()
	instrumented, err := RunLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, instrumented) {
		t.Fatalf("metrics changed the chain run:\n%+v\n%+v", bare, instrumented)
	}
	if len(cfg.Metrics.Gather()) == 0 {
		t.Fatal("chain endpoints should register instruments")
	}
}
