package telemetry

import (
	"testing"
	"time"
)

func TestHistogramQuantiles(t *testing.T) {
	reg := NewRegistry()
	h := reg.NewHistogram(Opts{Name: "softstate_install_ack_seconds"})
	for i := 0; i < 90; i++ {
		h.Observe(1 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Millisecond)
	}

	qs, ok := HistogramQuantiles(reg.Gather(), "softstate_install_ack_seconds", 0.50, 0.99)
	if !ok {
		t.Fatal("histogram exists and is non-empty")
	}
	if len(qs) != 2 {
		t.Fatalf("want 2 quantiles, got %d", len(qs))
	}
	if qs[0] <= 0 || qs[0] > 10*time.Millisecond {
		t.Fatalf("p50 should sit near 1ms, got %v", qs[0])
	}
	if qs[1] < 100*time.Millisecond {
		t.Fatalf("p99 should reach the 100ms tail, got %v", qs[1])
	}
	if qs[1] <= qs[0] {
		t.Fatalf("p99 (%v) must exceed p50 (%v)", qs[1], qs[0])
	}
}

func TestHistogramQuantilesMergesInstances(t *testing.T) {
	reg := NewRegistry()
	// Same Opts twice → instance-label bump, two series, one name.
	h1 := reg.NewHistogram(Opts{Name: "dup_seconds"})
	h2 := reg.NewHistogram(Opts{Name: "dup_seconds"})
	h1.Observe(1 * time.Millisecond)
	h2.Observe(1 * time.Second)

	qs, ok := HistogramQuantiles(reg.Gather(), "dup_seconds", 1.0)
	if !ok {
		t.Fatal("merged histogram should be non-empty")
	}
	if qs[0] < time.Second {
		t.Fatalf("max quantile must see the second series' tail, got %v", qs[0])
	}
}

func TestHistogramQuantilesMissing(t *testing.T) {
	reg := NewRegistry()
	reg.NewHistogram(Opts{Name: "empty_seconds"}) // registered but never observed
	if _, ok := HistogramQuantiles(reg.Gather(), "empty_seconds", 0.5); ok {
		t.Fatal("empty histogram must report !ok")
	}
	if _, ok := HistogramQuantiles(reg.Gather(), "absent_seconds", 0.5); ok {
		t.Fatal("absent histogram must report !ok")
	}
	var nilReg *Registry
	if _, ok := HistogramQuantiles(nilReg.Gather(), "x", 0.5); ok {
		t.Fatal("nil registry must report !ok")
	}
}
