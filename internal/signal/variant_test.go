package signal

import (
	"fmt"
	"testing"
	"time"

	"softstate/internal/statetable"
)

// testAddr is a fake datagram source for direct handle-level injection.
type testAddr string

func (a testAddr) Network() string { return "test" }
func (a testAddr) String() string  { return string(a) }

// TestRetxDelayBackoffSchedule: the retransmission engine's delays grow
// geometrically from Γ and clamp at 16Γ.
func TestRetxDelayBackoffSchedule(t *testing.T) {
	v, snd := vSenderOnly(t, Config{
		Protocol:   SSRT,
		Retransmit: 10 * time.Millisecond,
	})
	_ = v
	ss := snd.ss
	want := []time.Duration{10, 20, 40, 80, 160, 160, 160}
	for n, w := range want {
		w *= time.Millisecond
		if got := ss.retxDelay(n); got != w {
			t.Fatalf("retxDelay(%d) = %v, want %v", n, got, w)
		}
	}
}

// TestBackoffConvergesUnderLoss is the retransmission-engine acceptance
// test: under 20% and 50% loss every reliable trigger eventually
// delivers, the matching ACKs cancel the pending retransmit timers, and
// after convergence the sender's wheel holds zero armed retransmit
// entries — no stale per-message timers survive (virtual clock, fully
// deterministic).
func TestBackoffConvergesUnderLoss(t *testing.T) {
	for _, loss := range []float64{0.2, 0.5} {
		loss := loss
		t.Run(fmt.Sprintf("loss=%.0f%%", loss*100), func(t *testing.T) {
			// Stretch refresh and timeout out of the picture so the only
			// moving part is the retransmission engine itself (otherwise
			// lost-refresh expiries keep the notify → re-trigger repair
			// churn going forever and "converged" never exists).
			c := vEndpoints(t, SSRT, loss, func(cfg *Config) {
				cfg.RefreshInterval = time.Hour
				cfg.Timeout = 3 * time.Hour
			})
			const keys = 32
			for i := 0; i < keys; i++ {
				if err := c.snd.Install(fmt.Sprintf("flow/%03d", i), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			c.within(30*time.Second, "all keys delivered", func() bool {
				return c.rcv.Len() == keys
			})
			c.within(30*time.Second, "all triggers acked", func() bool {
				return c.snd.ss.tbl.TimersArmed()[timerRetx] == 0
			})
			st := c.snd.Stats()
			if st.Sent["trigger"] <= keys {
				t.Fatalf("no retransmissions under %.0f%% loss: %d triggers for %d keys",
					loss*100, st.Sent["trigger"], keys)
			}
			// Convergence must hold: run several capped backoff periods
			// further and prove no timer ever rearms and no retransmission
			// leaks out.
			triggers := st.Sent["trigger"]
			c.run(20 * fastConfig(SSRT).Retransmit * 16)
			if got := c.snd.Stats().Sent["trigger"] - triggers; got != 0 {
				t.Fatalf("%d retransmissions after convergence", got)
			}
			if armed := c.snd.ss.tbl.TimersArmed()[timerRetx]; armed != 0 {
				t.Fatalf("%d stale retransmit timers after convergence", armed)
			}
		})
	}
}

// TestRetransmittedTriggerDedup: a duplicated (retransmitted) trigger
// must be idempotent at the receiver — one install event, the ACK
// re-sent for the sender's sake — and a stale lower-sequence trigger must
// not clobber a newer value.
func TestRetransmittedTriggerDedup(t *testing.T) {
	// Loss 1 isolates the receiver: nothing real arrives, so the handle
	// calls below are the only traffic it sees.
	_, rcv := endpoints(t, SSRT, 1)
	from := testAddr("sender")
	dup := wireTrigger(5, "k", []byte("v2"))
	sc := rcv.newDispatchScratch()
	rcv.handle(dup, from, sc)
	rcv.handle(dup, from, sc)                               // retransmission of the same Seq
	rcv.handle(wireTrigger(4, "k", []byte("v1")), from, sc) // stale retransmission
	if v, ok := rcv.GetFrom(from, "k"); !ok || string(v) != "v2" {
		t.Fatalf("value = %q, want v2 (stale or duplicate trigger clobbered it)", v)
	}
	installed, updated := 0, 0
	for done := false; !done; {
		select {
		case ev := <-rcv.Events():
			switch ev.Kind {
			case EventInstalled:
				installed++
			case EventUpdated:
				updated++
			}
		default:
			done = true
		}
	}
	if installed != 1 || updated != 0 {
		t.Fatalf("events: %d installed, %d updated; want exactly 1 installed", installed, updated)
	}
	// Every duplicate trigger still produces an ACK: the sender may be
	// retransmitting precisely because the first ACK was lost.
	if acks := rcv.Stats().Sent["ack"]; acks != 3 {
		t.Fatalf("acks sent = %d, want 3 (one per trigger datagram)", acks)
	}
}

// TestHardStateOrphanRemoval: when an HS sender dies without removing its
// state, the receiver's liveness probes go unanswered and the state is
// removed explicitly after probeMisses probe intervals — hard state's
// cleanup depends on failure detection, exactly the paper's point.
func TestHardStateOrphanRemoval(t *testing.T) {
	c := vEndpoints(t, HS, 0)
	c.snd.Install("k", []byte("v"))
	c.within(time.Second, "install", func() bool { _, ok := c.rcv.Get("k"); return ok })

	// While the sender lives, probes are answered and state survives far
	// past any soft-state horizon.
	c.run(time.Minute)
	if _, ok := c.rcv.Get("k"); !ok {
		t.Fatal("hard state vanished while its sender was alive")
	}
	st := c.snd.Stats()
	if st.Received["probe"] == 0 || st.Sent["probe-ack"] == 0 {
		t.Fatalf("no probe traffic while alive: %+v", st)
	}

	// Kill the sender without removal: probes now go unanswered.
	c.snd.Close()
	cfg := fastConfig(HS).withDefaults()
	budget := time.Duration(probeMisses+2) * cfg.Timeout * 2
	c.within(budget, "orphan removal", func() bool { _, ok := c.rcv.Get("k"); return !ok })

	orphaned := false
	for done := false; !done; {
		select {
		case ev, ok := <-c.rcv.Events():
			if !ok {
				done = true
				break
			}
			orphaned = orphaned || ev.Kind == EventOrphaned
		default:
			done = true
		}
	}
	if !orphaned {
		t.Fatal("no orphaned event emitted")
	}
	// No per-entry timer lingers after the orphan drop (hard state arms
	// none: the probe round is per peer).
	if armed := c.rcv.tbl.TimersArmed(); armed != [statetable.NumTimerKinds]int{} {
		t.Fatalf("%v stale timers after orphan removal", armed)
	}
}

// TestOrphanNotifyRepairsLiveSender: the orphan drop carries a
// best-effort notify, so a live sender wrongly declared dead reinstalls
// its state. Simulated with a handle-level orphan against a real pair:
// the receiver orphan-drops (injected), the notify reaches the sender,
// and the re-trigger repairs.
func TestOrphanNotifyRepairsLiveSender(t *testing.T) {
	c := vEndpoints(t, HS, 0)
	c.snd.Install("k", []byte("v"))
	c.within(time.Second, "install", func() bool { _, ok := c.rcv.Get("k"); return ok })
	// Force the sender's miss count to the limit so the very next probe
	// round orphans its state despite the live sender.
	cfg := fastConfig(HS).withDefaults()
	p := c.rcv.peers.byAddr.get(c.sndAddr.String())
	if p == nil {
		t.Fatal("receiver holds no record of the sender")
	}
	p.misses.Store(int32(probeMisses))
	// The orphan fires on the next probe round; the notify must bring the
	// state back within one round trip plus a probe interval.
	c.within(3*cfg.Timeout, "false orphan repaired", func() bool {
		_, ok := c.rcv.Get("k")
		return ok && c.snd.Stats().Received["notify"] > 0
	})
}

// TestRetiredSeqResumeAndPrune: an evicted peer's sequence number raises
// the sessions' sequence floor, which keeps a returning peer's sequence
// space from regressing. New sessions also start at or above the
// time-derived incarnation base, so the space never restarts below any
// prior incarnation.
func TestRetiredSeqResumeAndPrune(t *testing.T) {
	v, snd := vSenderOnly(t, Config{
		Protocol:        SS,
		RefreshInterval: time.Hour, // no refresh traffic
		PeerIdleTimeout: 100 * time.Millisecond,
	})
	ss := snd.ss
	peer := snd.sess.peer

	s1 := ss.Session(peer)
	if err := s1.Install("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s1.Remove("k"); err != nil { // SS: entry deleted immediately
		t.Fatal(err)
	}
	// A burst that outran the nanosecond base: only the floor keeps the
	// next session above it.
	seq1 := s1.seq.Add(uint64(time.Second))
	v.Run(300 * time.Millisecond) // idle period + reap ticks
	if ss.evictions.Value() != 1 {
		t.Fatalf("evictions = %d, want 1", ss.evictions.Value())
	}

	// Prompt return: the new session's space sits at or above the evicted
	// one — the floor and the time-derived base both forbid regression.
	s2 := ss.Session(peer)
	if s2 == s1 {
		t.Fatal("evicted session still in the peer table")
	}
	if seq2 := s2.seq.Load(); seq2 < seq1 {
		t.Fatalf("resumed seq = %d regressed below evicted %d", seq2, seq1)
	}
}
