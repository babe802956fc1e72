package signal

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"softstate/internal/clock"
	"softstate/internal/lossy"
	"softstate/internal/telemetry"
	"softstate/internal/wire"
)

// censusPair builds a wall-clock sender/receiver pair with slow-enough
// timers that a removal leaves a wide divergence window.
func censusPair(t *testing.T, mutate ...func(*Config)) (*Sender, *Receiver) {
	t.Helper()
	a, b, err := lossy.Pipe(lossy.Config{Delay: time.Millisecond, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Protocol:        SS,
		RefreshInterval: 200 * time.Millisecond,
		Timeout:         600 * time.Millisecond,
		Retransmit:      50 * time.Millisecond,
	}
	for _, m := range mutate {
		m(&cfg)
	}
	snd, err := NewSender(a, b.LocalAddr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := NewReceiver(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		snd.Close()
		rcv.Close()
	})
	return snd, rcv
}

// TestWireCensusAuditsLink drives the full auditor data plane over the
// wire: convergence reads clean, a silent removal (SS has no explicit
// removal) shows up as a divergent key, and state-timeout resolves it.
func TestWireCensusAuditsLink(t *testing.T) {
	snd, rcv := censusPair(t)
	for i := 0; i < 20; i++ {
		if err := snd.Install(fmt.Sprintf("flow/%02d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	link := telemetry.CensusLink{
		Name:   "hop",
		Intent: snd.CensusSource("sender"),
		Held:   snd.CensusPeer("receiver", time.Second),
	}
	census := func() *telemetry.CensusReport {
		return telemetry.RunCensus([]telemetry.CensusLink{link})
	}
	eventually(t, "census convergence", func() bool {
		rep := census()
		if rep.Failed != 0 {
			t.Fatalf("census failed: %+v", rep.Links)
		}
		return rep.Converged()
	})
	// A converged link is settled by its folds: no bucket is compared.
	if rep := census(); !rep.Converged() || rep.Links[0].Buckets != 0 {
		t.Fatalf("converged link: %+v", rep.Links[0])
	}

	// The receiver's in-process source must agree with the wire answer.
	direct := telemetry.RunCensus([]telemetry.CensusLink{{
		Intent: snd.CensusSource("sender"),
		Held:   rcv.CensusSource("receiver"),
	}})
	if direct.Failed != 0 || !direct.Converged() {
		t.Fatalf("in-process census disagrees: %+v", direct)
	}

	// An SS removal is silent: the sender forgets the key now, the
	// receiver holds it until state-timeout. The auditor must see that
	// window as divergence on exactly that key.
	if err := snd.Remove("flow/07"); err != nil {
		t.Fatal(err)
	}
	rep := census()
	if rep.Failed != 0 {
		t.Fatalf("census failed: %+v", rep.Links)
	}
	if rep.Divergent != 1 || rep.Links[0].Divergent[0] != "flow/07" {
		t.Fatalf("divergence window: %+v", rep.Links[0])
	}
	eventually(t, "divergence resolution by timeout", func() bool {
		return census().Converged()
	})
}

// TestTraceStampsPropagation checks hop-propagated tracing end to end on
// one link in virtual time: sampled installs carry an origin stamp, the
// receiver's hop/e2e histograms see exactly the pipe delay, events carry
// the context, and the receiver's ring records the hop.
func TestTraceStampsPropagation(t *testing.T) {
	reg := telemetry.NewRegistry()
	var mu sync.Mutex
	var installed []Event
	c := vEndpoints(t, SSRT, 0, func(cfg *Config) {
		cfg.Trace = telemetry.NewTracer(telemetry.TracerConfig{SampleEvery: 1})
		cfg.Metrics = reg
		cfg.OnEvent = func(ev Event) {
			if ev.Kind == EventInstalled {
				mu.Lock()
				installed = append(installed, ev)
				mu.Unlock()
			}
		}
	})
	// The receiver shares cfg via vEndpoints, including the sender's
	// tracer; that is fine — rings are per-process in real deployments
	// but the receiver only appends TraceHop records here.
	if err := c.snd.Install("flow/1", []byte("v")); err != nil {
		t.Fatal(err)
	}
	c.within(time.Second, "install", func() bool {
		_, ok := c.rcv.Get("flow/1")
		return ok
	})
	mu.Lock()
	defer mu.Unlock()
	var rcvEv *Event
	for i := range installed {
		ev := installed[i]
		if ev.Peer != nil && ev.Peer.String() == c.sndAddr.String() {
			rcvEv = &installed[i]
		}
	}
	if rcvEv == nil {
		t.Fatal("no receiver-side installed event")
	}
	if !rcvEv.Trace.Sampled() || rcvEv.Trace.Hops != 0 {
		t.Fatalf("receiver event trace = %+v", rcvEv.Trace)
	}

	hist := func(name string) *telemetry.HistogramSnapshot {
		for _, s := range reg.Gather() {
			if s.Name == name && s.Hist != nil && s.Hist.Count > 0 {
				return s.Hist
			}
		}
		return nil
	}
	e2e := hist("softstate_e2e_install_seconds")
	if e2e == nil {
		t.Fatal("no e2e observations")
	}
	if got := time.Duration(e2e.SumNs / e2e.Count); got != time.Millisecond {
		t.Fatalf("e2e latency = %v, want the 1ms pipe delay", got)
	}
	if hop := hist("softstate_hop_propagation_seconds"); hop == nil {
		t.Fatal("no hop observations")
	}

	// A refresh starts a fresh wave for locally-originated keys: advance
	// past the refresh interval and the hop count must grow.
	before := hist("softstate_hop_propagation_seconds").Count
	c.run(40 * time.Millisecond)
	c.within(time.Second, "traced refresh", func() bool {
		h := hist("softstate_hop_propagation_seconds")
		return h != nil && h.Count > before
	})

	// The shared tracer ring must carry hop records (Seq = hop count 0).
	sawHop := false
	for _, ev := range c.snd.ss.trace.Events() {
		if ev.Kind == telemetry.TraceHop && ev.Key == "flow/1" && ev.Seq == 0 {
			sawHop = true
		}
	}
	if !sawHop {
		t.Fatal("no TraceHop record in the ring")
	}
}

// TestUntracedStaysZero: without a tracer nothing is stamped and events
// carry a zero context.
func TestUntracedStaysZero(t *testing.T) {
	var mu sync.Mutex
	sampled := 0
	c := vEndpoints(t, SSRT, 0, func(cfg *Config) {
		cfg.OnEvent = func(ev Event) {
			if ev.Trace.Sampled() {
				mu.Lock()
				sampled++
				mu.Unlock()
			}
		}
	})
	if err := c.snd.Install("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	c.within(time.Second, "install", func() bool {
		_, ok := c.rcv.Get("k")
		return ok
	})
	mu.Lock()
	defer mu.Unlock()
	if sampled != 0 {
		t.Fatalf("%d events carried a trace context without a tracer", sampled)
	}
}

// TestPeerHealthEstimators: acked triggers feed the RTT EWMA; a lossy
// path pushes the loss estimate above zero.
func TestPeerHealthEstimators(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := vEndpoints(t, SSRT, 0, func(cfg *Config) { cfg.Metrics = reg })
	for i := 0; i < 8; i++ {
		if err := c.snd.Install(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	c.within(time.Second, "acks", func() bool {
		return c.snd.Session().RTT() > 0
	})
	// Virtual pipe: 1 ms each way.
	if rtt := c.snd.Session().RTT(); rtt != 2*time.Millisecond {
		t.Fatalf("RTT EWMA = %v, want 2ms", rtt)
	}
	if loss := c.snd.Session().LossEstimate(); loss != 0 {
		t.Fatalf("lossless path estimates loss %v", loss)
	}

	lossyC := vEndpointsLoss(t, SSRT, 0.4, reg)
	for i := 0; i < 16; i++ {
		if err := lossyC.snd.Install(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	lossyC.within(5*time.Second, "retransmissions", func() bool {
		return lossyC.snd.Session().LossEstimate() > 0
	})
}

// vEndpointsLoss is vEndpoints with loss and a distinct metrics registry
// (avoiding instrument-name collisions across pairs in one test).
func vEndpointsLoss(t *testing.T, proto Protocol, loss float64, _ *telemetry.Registry) *vctx {
	return vEndpoints(t, proto, loss)
}

// traceConn is discardConn remembering the trace context of every trigger
// written.
type traceConn struct {
	*discardConn
	mu       sync.Mutex
	triggers []wire.TraceContext
}

func (c *traceConn) WriteTo(p []byte, _ net.Addr) (int, error) {
	var m wire.Message
	if m.UnmarshalBinary(p) == nil && m.Type == wire.TypeTrigger {
		c.mu.Lock()
		c.triggers = append(c.triggers, m.Trace)
		c.mu.Unlock()
	}
	return len(p), nil
}

// TestForwardedTraceSurvivesRetransmit: a key installed with an upstream
// context keeps its origin stamp and its hop count, one more than
// upstream's, on every retransmission of its trigger, while the hop stamp
// is the time of each send.
func TestForwardedTraceSurvivesRetransmit(t *testing.T) {
	clk := clock.NewVirtual()
	conn := &traceConn{discardConn: newDiscardConn()}
	ss := NewSessions(conn, Config{Protocol: SSRT, Clock: clk, Retransmit: 10 * time.Millisecond,
		RefreshInterval: time.Hour, Timeout: 3 * time.Hour})
	defer ss.Shutdown()
	s := ss.Session(testAddr("10.0.0.9:7000"))
	if err := s.InstallCtx("k", []byte("v"), wire.TraceContext{OriginNs: 42, HopNs: 7, Hops: 1}); err != nil {
		t.Fatal(err)
	}
	clk.Run(35 * time.Millisecond) // no ack: the trigger goes out again
	conn.mu.Lock()
	defer conn.mu.Unlock()
	if len(conn.triggers) < 3 || s.retxs.Load() != int64(len(conn.triggers)-1) {
		t.Fatalf("%d triggers written, %d counted as retransmits", len(conn.triggers), s.retxs.Load())
	}
	for i, tc := range conn.triggers {
		if tc.OriginNs != 42 || tc.Hops != 2 || (i > 0 && tc.HopNs <= conn.triggers[i-1].HopNs) {
			t.Fatalf("trigger %d carries %+v; want origin 42, hops 2 and a later hop stamp than %+v", i, tc, conn.triggers[max(i-1, 0)])
		}
	}
}
