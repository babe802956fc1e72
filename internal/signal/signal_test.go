package signal

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"softstate/internal/lossy"
)

// fastConfig uses millisecond timers so tests complete quickly while
// preserving the paper's R:T:Γ proportions.
func fastConfig(proto Protocol) Config {
	return Config{
		Protocol:        proto,
		RefreshInterval: 30 * time.Millisecond,
		Timeout:         90 * time.Millisecond,
		Retransmit:      10 * time.Millisecond,
	}
}

// endpoints builds a connected sender/receiver pair over a lossy pipe.
func endpoints(t *testing.T, proto Protocol, loss float64) (*Sender, *Receiver) {
	t.Helper()
	a, b, err := lossy.Pipe(lossy.Config{Loss: loss, Delay: time.Millisecond, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig(proto)
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

// eventually polls cond until it holds or the deadline passes.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestInstallPropagates(t *testing.T) {
	c := vEndpoints(t, SS, 0)
	if err := c.snd.Install("flow/1", []byte("10Mbps")); err != nil {
		t.Fatal(err)
	}
	c.within(time.Second, "install", func() bool {
		v, ok := c.rcv.Get("flow/1")
		return ok && bytes.Equal(v, []byte("10Mbps"))
	})
	if got := c.snd.sess.keys(); len(got) != 1 || got[0] != "flow/1" {
		t.Fatalf("sender keys = %v", got)
	}
}

func TestUpdatePropagates(t *testing.T) {
	c := vEndpoints(t, SS, 0)
	if err := c.snd.Install("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	c.within(time.Second, "install", func() bool { _, ok := c.rcv.Get("k"); return ok })
	if err := c.snd.Update("k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	c.within(time.Second, "update", func() bool {
		v, _ := c.rcv.Get("k")
		return bytes.Equal(v, []byte("v2"))
	})
}

func TestUpdateUnknownKeyFails(t *testing.T) {
	snd, _ := endpoints(t, SS, 0)
	if err := snd.Update("missing", []byte("v")); err == nil {
		t.Fatal("update of unknown key succeeded")
	}
}

func TestRefreshKeepsStateAlive(t *testing.T) {
	c := vEndpoints(t, SS, 0)
	c.snd.Install("k", []byte("v"))
	c.within(time.Second, "install", func() bool { _, ok := c.rcv.Get("k"); return ok })
	// Hold well past several timeout intervals; refreshes must keep it.
	c.run(4 * fastConfig(SS).Timeout)
	if _, ok := c.rcv.Get("k"); !ok {
		t.Fatal("state expired despite refreshes")
	}
}

func TestStateExpiresWhenSenderDies(t *testing.T) {
	c := vEndpoints(t, SS, 0)
	c.snd.Install("k", []byte("v"))
	c.within(time.Second, "install", func() bool { _, ok := c.rcv.Get("k"); return ok })
	// Simulate a crash: close the sender without removing state.
	c.snd.Close()
	c.within(time.Second, "expiry", func() bool { _, ok := c.rcv.Get("k"); return !ok })
}

func TestSSRemovalIsSilent(t *testing.T) {
	c := vEndpoints(t, SS, 0)
	c.snd.Install("k", []byte("v"))
	c.within(time.Second, "install", func() bool { _, ok := c.rcv.Get("k"); return ok })
	before := c.clk.Elapsed()
	if err := c.snd.Remove("k"); err != nil {
		t.Fatal(err)
	}
	c.within(time.Second, "timeout removal", func() bool { _, ok := c.rcv.Get("k"); return !ok })
	// Pure SS has no removal message: cleanup waits for the timeout —
	// measured exactly, in virtual time.
	if elapsed := c.clk.Elapsed() - before; elapsed < fastConfig(SS).Timeout/2 {
		t.Fatalf("SS state removed after only %v — removal message leaked?", elapsed)
	}
	if c.snd.Stats().Sent["removal"] != 0 {
		t.Fatal("SS sent a removal message")
	}
}

func TestExplicitRemovalIsPrompt(t *testing.T) {
	c := vEndpoints(t, SSER, 0)
	c.snd.Install("k", []byte("v"))
	c.within(time.Second, "install", func() bool { _, ok := c.rcv.Get("k"); return ok })
	before := c.clk.Elapsed()
	if err := c.snd.Remove("k"); err != nil {
		t.Fatal(err)
	}
	c.within(time.Second, "explicit removal", func() bool { _, ok := c.rcv.Get("k"); return !ok })
	if elapsed := c.clk.Elapsed() - before; elapsed > fastConfig(SSER).Timeout/2 {
		t.Fatalf("explicit removal took %v, should beat the timeout", elapsed)
	}
	if c.snd.Stats().Sent["removal"] == 0 {
		t.Fatal("SS+ER did not send a removal message")
	}
}

func TestRemoveUnknownKeyFails(t *testing.T) {
	snd, _ := endpoints(t, SSER, 0)
	if err := snd.Remove("missing"); err == nil {
		t.Fatal("remove of unknown key succeeded")
	}
}

func TestReliableTriggerSurvivesLoss(t *testing.T) {
	c := vEndpoints(t, SSRT, 0.5)
	c.snd.Install("k", []byte("v"))
	c.within(3*time.Second, "install under 50% loss", func() bool { _, ok := c.rcv.Get("k"); return ok })
	// The sender must eventually see the ACK and stop retransmitting.
	c.within(3*time.Second, "ack", func() bool {
		st := c.snd.Stats()
		return st.Received["ack"] > 0
	})
	if c.snd.Stats().Sent["trigger"] < 1 {
		t.Fatal("no triggers sent")
	}
}

func TestReliableRemovalSurvivesLoss(t *testing.T) {
	c := vEndpoints(t, SSRTR, 0.5)
	c.snd.Install("k", []byte("v"))
	c.within(3*time.Second, "install", func() bool { _, ok := c.rcv.Get("k"); return ok })
	if err := c.snd.Remove("k"); err != nil {
		t.Fatal(err)
	}
	c.within(3*time.Second, "reliable removal", func() bool { _, ok := c.rcv.Get("k"); return !ok })
	// The sender's entry must be cleaned once the removal is ACKed.
	c.within(3*time.Second, "removal ack", func() bool {
		return len(c.snd.sess.keys()) == 0 && c.snd.Stats().Received["removal-ack"] > 0
	})
}

func TestHardStateNeverExpires(t *testing.T) {
	c := vEndpoints(t, HS, 0)
	c.snd.Install("k", []byte("v"))
	c.within(time.Second, "install", func() bool { _, ok := c.rcv.Get("k"); return ok })
	// No refreshes and no timeout: the state must survive arbitrarily —
	// a simulated hour costs nothing in virtual time.
	c.run(time.Hour)
	if _, ok := c.rcv.Get("k"); !ok {
		t.Fatal("hard state expired")
	}
	if c.snd.Stats().Sent["refresh"] != 0 {
		t.Fatal("HS sent refreshes")
	}
}

func TestHardStateFalseRemovalRepair(t *testing.T) {
	c := vEndpoints(t, HS, 0)
	c.snd.Install("k", []byte("v"))
	c.within(time.Second, "install", func() bool { _, ok := c.rcv.Get("k"); return ok })
	if !c.rcv.InjectFalseRemoval("k") {
		t.Fatal("InjectFalseRemoval found no state")
	}
	// The notify must reach the sender, which re-triggers, reinstalling.
	c.within(time.Second, "repair", func() bool { _, ok := c.rcv.Get("k"); return ok })
	if c.rcv.InjectFalseRemoval("absent") {
		t.Fatal("InjectFalseRemoval invented state")
	}
}

func TestTimeoutNotificationRepair(t *testing.T) {
	// SS+RT: force a false removal by dropping everything long enough for
	// the timeout to fire... simplest deterministic path: inject it.
	c := vEndpoints(t, SSRT, 0)
	c.snd.Install("k", []byte("v"))
	c.within(time.Second, "install", func() bool { _, ok := c.rcv.Get("k"); return ok })
	c.rcv.InjectFalseRemoval("k")
	c.within(time.Second, "repair after notify", func() bool { _, ok := c.rcv.Get("k"); return ok })
}

func TestEventsStream(t *testing.T) {
	c := vEndpoints(t, SSER, 0)
	c.snd.Install("k", []byte("v"))
	c.within(time.Second, "install", func() bool { return c.rcv.Len() == 1 })
	select {
	case ev := <-c.rcv.Events():
		if ev.Kind != EventInstalled {
			t.Fatalf("first receiver event = %v", ev.Kind)
		}
	default:
		t.Fatal("no receiver events")
	}
}

func TestMultipleKeys(t *testing.T) {
	c := vEndpoints(t, SSER, 0)
	keys := []string{"a", "b", "c", "d"}
	for i, k := range keys {
		if err := c.snd.Install(k, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	c.within(time.Second, "all installs", func() bool { return c.rcv.Len() == len(keys) })
	if err := c.snd.Remove("b"); err != nil {
		t.Fatal(err)
	}
	c.within(time.Second, "selective removal", func() bool { return c.rcv.Len() == len(keys)-1 })
	if _, ok := c.rcv.Get("b"); ok {
		t.Fatal("removed key still present")
	}
	if _, ok := c.rcv.Get("c"); !ok {
		t.Fatal("unrelated key lost")
	}
}

func TestClosedEndpointRejects(t *testing.T) {
	snd, _ := endpoints(t, SS, 0)
	snd.Close()
	if err := snd.Install("k", []byte("v")); err != ErrClosed {
		t.Fatalf("Install after close: %v", err)
	}
	if err := snd.Remove("k"); err != ErrClosed {
		t.Fatalf("Remove after close: %v", err)
	}
	if err := snd.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestCloseRacesActiveSends: closing a sender while summary sweeps and
// installs are mid-write must not race the transport shutdown, and a put
// that loses the race to Close must leave no residue in the table.
func TestCloseRacesActiveSends(t *testing.T) {
	for i := 0; i < 20; i++ {
		a, b, err := lossy.Pipe(lossy.Config{Delay: time.Millisecond, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		cfg := fastConfig(SS)
		cfg.RefreshInterval = time.Millisecond // sweep as often as possible
		cfg.SummaryRefresh = true
		cfg.SummaryMaxKeys = 8
		snd, err := NewSender(a, b.LocalAddr(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := 0; k < 50; k++ {
					if err := snd.Install(fmt.Sprintf("g%d/k%02d", g, k), []byte("v")); err == ErrClosed {
						return
					}
				}
			}(g)
		}
		time.Sleep(time.Duration(i%5) * time.Millisecond)
		snd.Close()
		wg.Wait()
		liveKeys := 0
		snd.ss.tbl.Range(func(_ string, e *senderEntry) bool {
			if !e.removing {
				liveKeys++
			}
			return true
		})
		if got := snd.ss.live.Load(); int(got) != liveKeys {
			t.Fatalf("live counter %d != %d non-removing table entries after close race", got, liveKeys)
		}
		b.Close()
	}
}

// TestReceiverCloseRacesReplies: closing a receiver while it is still
// ACKing inbound triggers must not race the transport shutdown.
func TestReceiverCloseRacesReplies(t *testing.T) {
	for i := 0; i < 20; i++ {
		a, b, err := lossy.Pipe(lossy.Config{Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		cfg := fastConfig(SSRT)
		snd, err := NewSender(a, b.LocalAddr(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		rcv, err := NewReceiver(b, cfg)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for k := 0; ; k++ {
				if err := snd.Install(fmt.Sprintf("k%04d", k), []byte("v")); err != nil {
					return
				}
			}
		}()
		time.Sleep(time.Duration(i%4) * time.Millisecond)
		rcv.Close()
		snd.Close()
		<-done
	}
}

func TestDecodeErrorsCounted(t *testing.T) {
	a, b, err := lossy.Pipe(lossy.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := NewReceiver(b, fastConfig(SS))
	if err != nil {
		t.Fatal(err)
	}
	defer rcv.Close()
	defer a.Close()
	a.WriteTo([]byte("garbage-not-a-message"), nil)
	eventually(t, "decode error", func() bool { return rcv.Stats().DecodeErrors > 0 })
}

func TestStaleTriggerDoesNotClobber(t *testing.T) {
	// Deliver a current trigger, then replay an older datagram; the newer
	// value must survive.
	c := vEndpoints(t, SS, 0)
	c.snd.Install("k", []byte("v1"))
	c.within(time.Second, "v1", func() bool { _, ok := c.rcv.Get("k"); return ok })
	c.snd.Update("k", []byte("v2"))
	c.within(time.Second, "v2", func() bool {
		v, _ := c.rcv.Get("k")
		return bytes.Equal(v, []byte("v2"))
	})
	// Replay a hand-crafted stale trigger (seq 1 carried v1).
	stale := mustEncode(t, 1, "k", []byte("v1"))
	c.sndConn.WriteTo(stale, nil)
	c.run(30 * time.Millisecond)
	v, _ := c.rcv.Get("k")
	if !bytes.Equal(v, []byte("v2")) {
		t.Fatalf("stale replay clobbered value: %q", v)
	}
}

func TestUDPLoopback(t *testing.T) {
	sc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no UDP loopback: %v", err)
	}
	rc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		sc.Close()
		t.Skipf("no UDP loopback: %v", err)
	}
	cfg := fastConfig(SSRTR)
	snd, err := NewSender(sc, rc.LocalAddr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer snd.Close()
	rcv, err := NewReceiver(rc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rcv.Close()
	if err := snd.Install("udp-key", []byte("over-the-loopback")); err != nil {
		t.Fatal(err)
	}
	eventually(t, "UDP install", func() bool {
		v, ok := rcv.Get("udp-key")
		return ok && bytes.Equal(v, []byte("over-the-loopback"))
	})
	if err := snd.Remove("udp-key"); err != nil {
		t.Fatal(err)
	}
	eventually(t, "UDP removal", func() bool { _, ok := rcv.Get("udp-key"); return !ok })
}

func TestConfigDefaults(t *testing.T) {
	c := Config{Protocol: SS}.withDefaults()
	if c.RefreshInterval != 5*time.Second || c.Timeout != 15*time.Second {
		t.Fatalf("defaults = %+v", c)
	}
	c = Config{Protocol: SS, RefreshInterval: time.Second}.withDefaults()
	if c.Timeout != 3*time.Second {
		t.Fatalf("T should default to 3R, got %v", c.Timeout)
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{
		EventInstalled, EventUpdated, EventRemoved, EventExpired,
		EventFalseRemoval, EventRepaired, EventAcked, EventOrphaned,
	}
	for _, k := range kinds {
		if k.String() == "unknown" {
			t.Fatalf("missing name for kind %d", k)
		}
	}
	if EventKind(99).String() != "unknown" {
		t.Fatal("unexpected name for invalid kind")
	}
}

func TestStatsTotals(t *testing.T) {
	snd, rcv := endpoints(t, SSER, 0)
	snd.Install("k", []byte("v"))
	eventually(t, "install", func() bool { _, ok := rcv.Get("k"); return ok })
	if snd.Stats().TotalSent() == 0 {
		t.Fatal("no sent messages recorded")
	}
}

// mustEncode builds a trigger datagram for replay tests.
func mustEncode(t *testing.T, seq uint64, key string, value []byte) []byte {
	t.Helper()
	m := wireTrigger(seq, key, value)
	data, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// keys returns the keys with live (non-removing) state at this peer. It
// scans the whole shared table (cost is O(total keys across all
// sessions), one shard lock at a time) — fine for CLIs and tests, not
// for hot paths on a large node; Live is the O(1) count.
func (s *Session) keys() []string {
	out := make([]string, 0, s.live.Load())
	s.ss.tbl.Range(func(ck string, e *senderEntry) bool {
		if ownerID(ck) == s.id && !e.removing {
			out = append(out, userKey(ck))
		}
		return true
	})
	return out
}
