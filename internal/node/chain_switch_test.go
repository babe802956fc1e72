package node

import (
	"bytes"
	"testing"
	"time"

	"softstate/internal/lossy"
	"softstate/internal/signal"
)

// linkDropPatterns runs one immortal SS key down a 4-node chain at 30 %
// loss and returns, per link, which of the link's first 64 datagrams were
// delivered ('1') or dropped ('0'). Pure SS sends nothing upstream, never
// retransmits, and (with the timeout out of reach) never expires, so every
// link carries the same sequence — one trigger, then one refresh per
// interval — and a link's pattern is exactly its loss stream. Zero delay
// puts a datagram's send and delivery at one virtual instant, so stepping
// by half a refresh interval isolates each datagram in its own window.
func linkDropPatterns(t *testing.T, seed uint64) []string {
	t.Helper()
	const want = 64
	cfg := fastConfig(signal.SS)
	cfg.Timeout = time.Hour
	v, c := vchain(t, 4, cfg, lossy.Config{Loss: 0.3, Seed: seed})
	senders := []*Node{c.Origin}
	for _, r := range c.Relays {
		senders = append(senders, r.Downstream())
	}
	rcvs := c.Receivers()
	received := func(r *signal.Receiver) int {
		n := 0
		for _, k := range r.Stats().Received {
			n += k
		}
		return n
	}
	// Install from a clock callback: the trigger's send and its delivery
	// then fall inside the same Run.
	v.AfterFunc(0, func() {
		if err := c.Install("flow/1", []byte("v")); err != nil {
			t.Error(err)
		}
	})
	patterns := make([][]byte, len(senders))
	sent, got := make([]int, len(senders)), make([]int, len(senders))
	for step := 0; step < 100*want; step++ {
		v.Run(cfg.RefreshInterval / 2)
		short := false
		for i := range senders {
			s, g := senders[i].Stats().TotalSent(), received(rcvs[i])
			ds, dg := s-sent[i], g-got[i]
			sent[i], got[i] = s, g
			if ds > 1 || dg > ds {
				t.Fatalf("link %d: window holds %d sent, %d received; want one datagram at most", i, ds, dg)
			}
			if ds == 1 && len(patterns[i]) < want {
				patterns[i] = append(patterns[i], byte('0'+dg))
			}
			short = short || len(patterns[i]) < want
		}
		if !short {
			out := make([]string, len(patterns))
			for i, p := range patterns {
				out[i] = string(p)
			}
			return out
		}
	}
	t.Fatalf("links carried %v datagrams, want %d each", sent, want)
	return nil
}

// TestChainLinksIndependent: the paper's multi-hop model assumes
// independent losses per hop, so no two links of a chain may share a drop
// pattern — and, the run being a pure function of the link seed, the same
// seed must reproduce every link's pattern. (A chain built from one pipe
// per link, every pipe seeded from the same lossy.Config, drops the same
// datagrams on every link.)
func TestChainLinksIndependent(t *testing.T) {
	first := linkDropPatterns(t, 7)
	for i := range first {
		for j := i + 1; j < len(first); j++ {
			if first[i] == first[j] {
				t.Errorf("links %d and %d share one drop pattern:\n%s", i, j, first[i])
			}
		}
	}
	again := linkDropPatterns(t, 7)
	for i := range first {
		if first[i] != again[i] {
			t.Errorf("link %d: same seed, different drop pattern:\n%s\n%s", i, first[i], again[i])
		}
	}
}

// TestChainInstallRemoveKeepsInvariants: an install reaches every hop, its
// removal cascades, and every hop's invariants hold afterwards.
func TestChainInstallRemoveKeepsInvariants(t *testing.T) {
	v, c := vchain(t, 4, fastConfig(signal.SSRTR), cleanLink)
	if err := c.Install("flow/1", []byte("10Mbps")); err != nil {
		t.Fatal(err)
	}
	within(t, v, time.Second, "install reaches all hops", func() bool { return c.Holds("flow/1") == 3 })
	got, ok := c.Tail.Get("flow/1")
	if !ok || !bytes.Equal(got, []byte("10Mbps")) {
		t.Fatalf("tail holds %q, %v", got, ok)
	}
	if err := c.Remove("flow/1"); err != nil {
		t.Fatal(err)
	}
	within(t, v, time.Second, "removal cascades", func() bool { return c.Holds("flow/1") == 0 })
	if bad := c.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("invariants: %v", bad)
	}
	// Stats covers every endpoint, origin first and tail last.
	st := c.Stats()
	if want := 2*len(c.Relays) + 2; len(st) != want {
		t.Fatalf("Stats has %d endpoints, want %d", len(st), want)
	}
	if st[0].Sent["trigger"] == 0 || st[len(st)-1].Received["trigger"] == 0 {
		t.Fatalf("Stats order: origin sent %v, tail received %v", st[0].Sent, st[len(st)-1].Received)
	}
}

// TestChainRelayRestartReconverges: an interior relay crashes with all
// its state and comes back cold on the same addresses; upstream refreshes
// repopulate it and it re-signals downstream from a newer incarnation, so
// the whole path reconverges without any end-to-end restart.
func TestChainRelayRestartReconverges(t *testing.T) {
	v, c := vchain(t, 4, fastConfig(signal.SSRTR), cleanLink)
	if err := c.Install("flow/1", []byte("v")); err != nil {
		t.Fatal(err)
	}
	within(t, v, time.Second, "initial convergence", func() bool { return c.Holds("flow/1") == 3 })

	if err := c.RestartRelay(0); err != nil {
		t.Fatal(err)
	}
	if got := c.Holds("flow/1"); got == 3 {
		t.Fatal("restarted relay still holds state")
	}
	within(t, v, 2*time.Second, "post-restart reconvergence", func() bool { return c.Holds("flow/1") == 3 })
	if got, ok := c.Tail.Get("flow/1"); !ok || !bytes.Equal(got, []byte("v")) {
		t.Fatalf("tail holds %q, %v after relay restart", got, ok)
	}
	if bad := c.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("invariants after relay restart: %v", bad)
	}
}

// TestChainPartitionHealsAndReconverges: a partition cut mid-chain
// stops propagation; after healing, refresh/retransmission carries the
// blocked install through.
func TestChainPartitionHealsAndReconverges(t *testing.T) {
	v, c := vchain(t, 4, fastConfig(signal.SSRTR), cleanLink)
	if err := c.Install("flow/pre", []byte("v")); err != nil {
		t.Fatal(err)
	}
	within(t, v, time.Second, "pre-partition convergence", func() bool { return c.Holds("flow/pre") == 3 })

	c.PartitionAt(1) // cut between relay 0 (node 1) and relay 1 (node 2)
	if err := c.Install("flow/during", []byte("v")); err != nil {
		t.Fatal(err)
	}
	within(t, v, time.Second, "install reaches the near side", func() bool { return c.Holds("flow/during") >= 1 })
	v.Run(200 * time.Millisecond)
	if _, ok := c.Tail.Get("flow/during"); ok {
		t.Fatal("install crossed an active partition")
	}

	c.Heal()
	within(t, v, 2*time.Second, "post-heal reconvergence", func() bool { return c.Holds("flow/during") == 3 })
	if bad := c.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("invariants after heal: %v", bad)
	}
}

// TestChainTailColdRestart: the tail crashes with all state; under a
// refresh protocol the upstream relay's refreshes rebuild it from
// nothing — the soft-state resynchronization story.
func TestChainTailColdRestart(t *testing.T) {
	v, c := vchain(t, 3, fastConfig(signal.SS), cleanLink)
	if err := c.Install("flow/1", []byte("v")); err != nil {
		t.Fatal(err)
	}
	within(t, v, time.Second, "initial convergence", func() bool { return c.Holds("flow/1") == 2 })

	if err := c.RestartTail(); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Tail.Get("flow/1"); ok {
		t.Fatal("cold-restarted tail holds state")
	}
	within(t, v, 2*time.Second, "tail rebuilt from refreshes", func() bool {
		_, ok := c.Tail.Get("flow/1")
		return ok
	})
	if bad := c.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("invariants after tail restart: %v", bad)
	}
}
