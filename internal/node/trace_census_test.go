package node

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"softstate/internal/lossy"
	"softstate/internal/signal"
	"softstate/internal/telemetry"
)

// delayLink is a clean link with a 1 ms one-way delay, so hop and
// end-to-end trace latencies are exact multiples of a millisecond.
var delayLink = lossy.Config{Delay: time.Millisecond}

// TestChainTracePropagation: on a 4-node chain (3 links) a traced
// install keeps its origin stamp across every relay while the hop count
// grows, so the tail sees hops = 2 and an end-to-end latency of three
// link delays.
func TestChainTracePropagation(t *testing.T) {
	reg := telemetry.NewRegistry()
	var mu sync.Mutex
	var tailTrace []signal.Event
	cfg := fastConfig(signal.SSRT)
	cfg.Trace = telemetry.NewTracer(telemetry.TracerConfig{SampleEvery: 1})
	cfg.Metrics = reg
	cfg.OnEvent = func(ev signal.Event) {
		// Only the tail's upstream frames carry two prior hops on a
		// 4-node chain, so hop count identifies the tail's events.
		if ev.Kind == signal.EventInstalled && ev.Trace.Hops == 2 {
			mu.Lock()
			tailTrace = append(tailTrace, ev)
			mu.Unlock()
		}
	}
	v, c := vchain(t, 4, cfg, delayLink)
	if err := c.Install("flow/1", []byte("v")); err != nil {
		t.Fatal(err)
	}
	within(t, v, time.Second, "install reaches the tail", func() bool {
		_, ok := c.Tail.Get("flow/1")
		return ok
	})
	mu.Lock()
	defer mu.Unlock()
	if len(tailTrace) != 1 {
		t.Fatalf("tail saw %d traced installs, want 1", len(tailTrace))
	}
	ev := tailTrace[0]
	if !ev.Trace.Sampled() || ev.Trace.Hops != 2 {
		t.Fatalf("tail trace context = %+v", ev.Trace)
	}
	// Virtual clock origin is the trace epoch: the origin stamp (biased
	// +1) is the virtual install time, and the tail received it three
	// 1 ms links later.
	if ev.Trace.OriginNs != 1 {
		t.Fatalf("origin stamp = %d, want 1 (install at virtual zero)", ev.Trace.OriginNs)
	}
	sawE2E := false
	for _, s := range reg.Gather() {
		if s.Name != "softstate_e2e_install_seconds" || s.Hist == nil || s.Hist.Count == 0 {
			continue
		}
		if s.Hist.SumNs/s.Hist.Count == int64(3*time.Millisecond) {
			sawE2E = true
		}
	}
	if !sawE2E {
		t.Fatal("no receiver observed the 3 ms end-to-end install latency")
	}
}

// TestChainCensusLinks: the chain's census links read converged once
// state propagates, flag a silently removed key (SS has no explicit
// removal) on the first hop, and read converged again after timeouts
// cascade the removal down the chain.
func TestChainCensusLinks(t *testing.T) {
	v, c := vchain(t, 5, fastConfig(signal.SS), delayLink)
	for i := 0; i < 30; i++ {
		if err := c.Install(fmt.Sprintf("flow/%02d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	links := c.CensusLinks()
	if len(links) != 4 {
		t.Fatalf("5-node chain has %d census links, want 4", len(links))
	}
	within(t, v, 2*time.Second, "census convergence", func() bool {
		rep := telemetry.RunCensus(links)
		if rep.Failed != 0 {
			t.Fatalf("census failed: %+v", rep.Links)
		}
		return rep.Converged()
	})

	if err := c.Remove("flow/07"); err != nil {
		t.Fatal(err)
	}
	rep := telemetry.RunCensus(links)
	if rep.Divergent == 0 {
		t.Fatalf("silent removal invisible to the census: %+v", rep)
	}
	if d := rep.Links[0].Divergent; len(d) != 1 || d[0] != "flow/07" {
		t.Fatalf("hop1 divergence = %+v", rep.Links[0])
	}
	within(t, v, 5*time.Second, "divergence resolves via timeouts", func() bool {
		return telemetry.RunCensus(links).Converged()
	})
}
