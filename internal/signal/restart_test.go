package signal

import (
	"testing"
	"time"

	"softstate/internal/clock"
	"softstate/internal/lossy"
	"softstate/internal/wire"
)

// TestSenderRestartNewIncarnation is the UDP crash/restart regression
// test: a sender dies without removing its state and comes back on the
// same address as a fresh process. Datagram transports carry no
// handshake (unlike the framed TCP stream, which resumes sequence spaces
// on reconnect), so the receiver still holds the first incarnation's
// entry and its sequence high-water mark — if the restarted sender's
// sequence space began at zero, every trigger it sent would be discarded
// as a stale retransmission and the key would wedge on the old value
// until timeout (or forever, under hard state). The time-derived
// incarnation base makes the second life numerically newer, so the
// reinstall must land, refreshes must renew it, and — under hard state —
// the restarted sender must answer liveness probes for the re-owned key.
// A key the first life installed and the second never reinstalls must go:
// soft state times it out, and hard state — whose restarted sender answers
// every peer probe, but with a key set one short — orphans it through the
// audit that disagreement opens, within (probeMisses+3)·Timeout.
func TestSenderRestartNewIncarnation(t *testing.T) {
	for _, proto := range []Protocol{SS, SSER, SSRT, SSRTR, HS} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			v := clock.NewVirtual()
			nw, err := lossy.NewNetwork(lossy.Config{Delay: time.Millisecond, Seed: 7, Clock: v})
			if err != nil {
				t.Fatal(err)
			}
			a := nw.Endpoint("snd")
			b := nw.Endpoint("rcv")
			cfg := fastConfig(proto)
			cfg.Clock = v
			snd, err := NewSender(a, b.LocalAddr(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			rcv, err := NewReceiver(b, cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { rcv.Close() })

			for _, key := range []string{"k", "old"} {
				if err := snd.Install(key, []byte("v1")); err != nil {
					t.Fatal(err)
				}
			}
			if !v.RunUntil(func() bool {
				val, ok := rcv.GetFrom(a.LocalAddr(), "k")
				_, old := rcv.GetFrom(a.LocalAddr(), "old")
				return ok && old && string(val) == "v1"
			}, time.Millisecond, time.Second) {
				t.Fatal("first incarnation's install never converged")
			}

			// Crash: no removal, no goodbye. The receiver's entry (and its
			// lastSeq) survives; the gap is shorter than the state timeout,
			// so the restarted sender faces live stale-seq state.
			snd.Close()
			v.Run(50 * time.Millisecond)

			a2 := nw.Restart("snd")
			snd2, err := NewSender(a2, b.LocalAddr(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { snd2.Close() })
			if err := snd2.Install("k", []byte("v2")); err != nil {
				t.Fatal(err)
			}
			if !v.RunUntil(func() bool {
				val, ok := rcv.GetFrom(a2.LocalAddr(), "k")
				return ok && string(val) == "v2"
			}, time.Millisecond, time.Second) {
				val, _ := rcv.GetFrom(a2.LocalAddr(), "k")
				t.Fatalf("restarted sender's install never accepted; receiver holds %q", val)
			}
			dcfg := cfg.withDefaults()
			if !v.RunUntil(func() bool {
				_, ok := rcv.GetFrom(a2.LocalAddr(), "old")
				return !ok
			}, time.Millisecond, time.Duration(probeMisses+3)*dcfg.Timeout) {
				t.Fatal("the first incarnation's leftover key outlived the restart")
			}

			// The new incarnation must keep the state alive past several
			// timeout horizons: refreshes renew it (soft state) and probes
			// are answered (hard state) — the restart did not wedge
			// liveness in either direction.
			v.Run(4 * cfg.Timeout)
			if val, ok := rcv.GetFrom(a2.LocalAddr(), "k"); !ok || string(val) != "v2" {
				t.Fatalf("state did not survive after restart: ok=%v val=%q", ok, val)
			}
			if dcfg.Protocol == HS {
				if acks := snd2.Stats().Sent["probe-ack"]; acks == 0 {
					t.Fatal("restarted hard-state sender answered no liveness probes")
				}
			}
			if bad := rcv.CheckInvariants(); len(bad) != 0 {
				t.Fatalf("receiver invariants violated after restart: %v", bad)
			}
			if bad := snd2.CheckInvariants(); len(bad) != 0 {
				t.Fatalf("restarted sender invariants violated: %v", bad)
			}
		})
	}
}

// TestForgedStateRepairedBySoftState: a forged (or grossly mis-delivered)
// datagram installs a higher-sequence value under a live soft-state key.
// The genuine sender's refreshes are now numerically stale — they must
// not renew the forged entry's lifetime (or it would hold the wrong value
// forever while being unable to overwrite it). Instead the entry times
// out and the next genuine refresh re-creates it: the soft-state repair
// property, exercised here end to end. Found by the chaos engine's
// differential fuzzer (corpus entry FuzzDifferential/11f1ffef6a83f4ed).
func TestForgedStateRepairedBySoftState(t *testing.T) {
	v := clock.NewVirtual()
	nw, err := lossy.NewNetwork(lossy.Config{Delay: time.Millisecond, Seed: 3, Clock: v})
	if err != nil {
		t.Fatal(err)
	}
	a := nw.Endpoint("snd")
	b := nw.Endpoint("rcv")
	cfg := fastConfig(SS)
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

	if err := snd.Install("k", []byte("true")); err != nil {
		t.Fatal(err)
	}
	if !v.RunUntil(func() bool {
		val, ok := rcv.GetFrom(a.LocalAddr(), "k")
		return ok && string(val) == "true"
	}, time.Millisecond, time.Second) {
		t.Fatal("install never converged")
	}

	// Forge a far-future sequence number from the sender's own address.
	forged := wire.Message{Type: wire.TypeTrigger, Seq: 1 << 62, Key: "k", Value: []byte("forged")}
	raw, err := forged.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.WriteTo(raw, b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if !v.RunUntil(func() bool {
		val, _ := rcv.GetFrom(a.LocalAddr(), "k")
		return string(val) == "forged"
	}, time.Millisecond, time.Second) {
		t.Fatal("forged datagram never landed")
	}

	// The genuine refreshes are stale against seq 1<<62: they must not
	// keep the forged entry alive. Within a few timeout horizons the entry
	// expires and the true value is re-installed by refresh.
	if !v.RunUntil(func() bool {
		val, ok := rcv.GetFrom(a.LocalAddr(), "k")
		return ok && string(val) == "true"
	}, time.Millisecond, 5*cfg.Timeout) {
		val, ok := rcv.GetFrom(a.LocalAddr(), "k")
		t.Fatalf("forged state never repaired: ok=%v val=%q", ok, val)
	}
	if bad := rcv.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("invariants after repair: %v", bad)
	}
}
