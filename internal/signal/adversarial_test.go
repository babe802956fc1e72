package signal

import (
	"testing"
	"time"

	"softstate/internal/clock"
	"softstate/internal/lossy"
	"softstate/internal/wire"
)

// Adversarial delivery tests: duplicated, reordered, and stray control
// messages (ack batches, probe acks) injected as raw datagrams against
// live endpoints. These are the deterministic companions to the chaos
// engine's fuzzed mutation streams — each pins one delivery pathology
// the wire admits but a correct endpoint must shrug off.

// TestStaleAndDuplicateAckBatch replays a coalesced ack batch at the
// sender out of order and several times over: stale acks (sequence zero,
// far below the incarnation base), acks for a key the sender never owned,
// and a removal-ack for a key that is not being removed — then the same
// batch again after the key really is gone. None of it may cancel live
// retransmission state for the wrong reason, resurrect removed state, or
// trip the session invariants.
func TestStaleAndDuplicateAckBatch(t *testing.T) {
	v := clock.NewVirtual()
	nw, err := lossy.NewNetwork(lossy.Config{Delay: time.Millisecond, Seed: 11, Clock: v})
	if err != nil {
		t.Fatal(err)
	}
	a := nw.Endpoint("snd")
	b := nw.Endpoint("rcv")
	cfg := fastConfig(SSRTR)
	cfg.Clock = v
	snd, err := NewSender(a, b.LocalAddr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { snd.Close() })
	rcv, err := NewReceiver(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rcv.Close() })

	if err := snd.Install("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if !v.RunUntil(func() bool {
		val, ok := rcv.GetFrom(a.LocalAddr(), "k")
		return ok && string(val) == "v1"
	}, time.Millisecond, time.Second) {
		t.Fatal("install never converged")
	}

	// The batch mixes every stray shape at once, item order scrambled
	// relative to anything the receiver would generate.
	batch := wire.Message{Type: wire.TypeAckBatch, Acks: []wire.AckItem{
		{Kind: wire.TypeRemovalAck, Seq: 0, Key: "k"},     // not removing
		{Kind: wire.TypeAck, Seq: 0, Key: "ghost"},        // never owned
		{Kind: wire.TypeAck, Seq: 0, Key: "k"},            // stale seq
		{Kind: wire.TypeRemovalAck, Seq: 0, Key: "ghost"}, // both wrong
	}}
	for i := 0; i < 3; i++ { // duplicates
		raw, err := batch.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.WriteTo(raw, a.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	v.Run(4 * cfg.Timeout)

	// The stray removal-ack must not have torn down the live key, and
	// refreshes must still be renewing it.
	if val, ok := rcv.GetFrom(a.LocalAddr(), "k"); !ok || string(val) != "v1" {
		t.Fatalf("live key damaged by stray ack batch: ok=%v val=%q", ok, val)
	}
	if bad := snd.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("sender invariants after stray batch: %v", bad)
	}

	// Now remove for real, let it complete, and replay the batch again:
	// acks for an already-removed (expired) key must be no-ops.
	if err := snd.Remove("k"); err != nil {
		t.Fatal(err)
	}
	if !v.RunUntil(func() bool { return rcv.Len() == 0 }, time.Millisecond, time.Second) {
		t.Fatal("removal never converged")
	}
	for i := 0; i < 3; i++ {
		raw, err := batch.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.WriteTo(raw, a.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	v.Run(4 * cfg.Timeout)
	if rcv.Len() != 0 {
		t.Fatalf("acks for a removed key resurrected state: %d keys held", rcv.Len())
	}
	if bad := snd.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("sender invariants after post-removal batch: %v", bad)
	}
	if bad := rcv.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("receiver invariants after post-removal batch: %v", bad)
	}
}

// TestForgedFutureAckDoesNotWedge forges an ack acknowledging a sequence
// number far beyond anything sent. The monotone ack watermark will jump —
// that is permitted — but the session must not wedge: a subsequent update
// still reaches the receiver (via its immediate trigger or the refresh
// stream) and keeps being renewed.
func TestForgedFutureAckDoesNotWedge(t *testing.T) {
	v := clock.NewVirtual()
	nw, err := lossy.NewNetwork(lossy.Config{Delay: time.Millisecond, Seed: 12, Clock: v})
	if err != nil {
		t.Fatal(err)
	}
	a := nw.Endpoint("snd")
	b := nw.Endpoint("rcv")
	cfg := fastConfig(SSRTR)
	cfg.Clock = v
	snd, err := NewSender(a, b.LocalAddr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { snd.Close() })
	rcv, err := NewReceiver(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rcv.Close() })

	if err := snd.Install("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if !v.RunUntil(func() bool {
		val, ok := rcv.GetFrom(a.LocalAddr(), "k")
		return ok && string(val) == "v1"
	}, time.Millisecond, time.Second) {
		t.Fatal("install never converged")
	}

	forged := wire.Message{Type: wire.TypeAck, Seq: 1 << 62, Key: "k"}
	raw, err := forged.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.WriteTo(raw, a.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	v.Run(10 * time.Millisecond)

	if err := snd.Update("k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if !v.RunUntil(func() bool {
		val, ok := rcv.GetFrom(a.LocalAddr(), "k")
		return ok && string(val) == "v2"
	}, time.Millisecond, time.Second) {
		val, _ := rcv.GetFrom(a.LocalAddr(), "k")
		t.Fatalf("update wedged by forged future ack; receiver holds %q", val)
	}
	v.Run(4 * cfg.Timeout)
	if val, ok := rcv.GetFrom(a.LocalAddr(), "k"); !ok || string(val) != "v2" {
		t.Fatalf("state not renewed after forged ack: ok=%v val=%q", ok, val)
	}
	if bad := snd.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("sender invariants: %v", bad)
	}
}

// TestStrayProbeAcks fires hard-state probe answers that correspond to no
// outstanding probe: duplicated, from a peer the receiver has never
// installed state for, for a key it does not hold, a peer probe-ack with a
// forged pair and a huge count, and — after the key is removed — for the
// evicted entry itself. A probe-ack must only ever clear a live sender's
// miss counts (a forged pair at most opens an audit the genuine sender's
// answers settle); it must never create a record or an entry, resurrect
// one, or arm timers on a ghost.
func TestStrayProbeAcks(t *testing.T) {
	v := clock.NewVirtual()
	nw, err := lossy.NewNetwork(lossy.Config{Delay: time.Millisecond, Seed: 13, Clock: v})
	if err != nil {
		t.Fatal(err)
	}
	a := nw.Endpoint("snd")
	b := nw.Endpoint("rcv")
	c := nw.Endpoint("stranger")
	cfg := fastConfig(HS)
	cfg.Clock = v
	snd, err := NewSender(a, b.LocalAddr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { snd.Close() })
	rcv, err := NewReceiver(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rcv.Close() })

	if err := snd.Install("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if !v.RunUntil(func() bool {
		val, ok := rcv.GetFrom(a.LocalAddr(), "k")
		return ok && string(val) == "v1"
	}, time.Millisecond, time.Second) {
		t.Fatal("install never converged")
	}

	spray := func() {
		for i := 0; i < 3; i++ {
			for _, m := range []wire.Message{
				{Type: wire.TypeProbeAck, Seq: ^uint64(0), Key: "ghost"}, // key never held
				{Type: wire.TypeProbeAck, Seq: 1, Key: "k"},              // dup/stale for live key
				// A peer probe-ack with a forged pair: a huge count, a made-up fold.
				{Type: wire.TypeProbeAck, Seq: 2, Value: wire.AppendPair(nil, ^uint64(0), 0xdeadbeef)},
			} {
				raw, err := m.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if _, err := a.WriteTo(raw, b.LocalAddr()); err != nil {
					t.Fatal(err)
				}
				// The same answers again from a peer with no state at all.
				if _, err := c.WriteTo(raw, b.LocalAddr()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	spray()
	v.Run(50 * time.Millisecond)

	if rcv.Len() != 1 {
		t.Fatalf("stray probe-acks changed the table: %d keys held", rcv.Len())
	}
	if rcv.NumPeers() != 1 {
		t.Fatalf("stray probe-acks left %d peer records, want the sender's one", rcv.NumPeers())
	}
	if _, ok := rcv.GetFrom(c.LocalAddr(), "k"); ok {
		t.Fatal("stranger's probe-ack created a ghost entry")
	}
	if _, ok := rcv.GetFrom(a.LocalAddr(), "ghost"); ok {
		t.Fatal("probe-ack for an unknown key created a ghost entry")
	}
	if bad := rcv.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("receiver invariants after stray probe-acks: %v", bad)
	}

	// Hard-state state must still be guarded: the genuine sender keeps
	// answering real probes, so the entry survives the orphan horizon.
	v.Run(time.Duration(probeMisses+1) * cfg.withDefaults().Timeout)
	if _, ok := rcv.GetFrom(a.LocalAddr(), "k"); !ok {
		t.Fatal("live hard state lost despite an answering sender")
	}

	// Evict the key for real, then answer probes for the dead entry.
	if err := snd.Remove("k"); err != nil {
		t.Fatal(err)
	}
	if !v.RunUntil(func() bool { return rcv.Len() == 0 }, time.Millisecond, time.Second) {
		t.Fatal("removal never converged")
	}
	spray()
	v.Run(4 * cfg.withDefaults().Timeout)
	if rcv.Len() != 0 || rcv.NumPeers() != 0 {
		t.Fatalf("probe-acks for an evicted key resurrected state: %d keys held, %d peer records", rcv.Len(), rcv.NumPeers())
	}
	if bad := rcv.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("receiver invariants after evicted-key probe-acks: %v", bad)
	}
}
