package signal

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"softstate/internal/statetable"
	"softstate/internal/telemetry"
	"softstate/internal/wire"
)

// orphanLog counts a receiver's EventOrphaned per key (events from the
// sender sharing the config are ignored: a sender never orphans).
type orphanLog struct {
	mu   sync.Mutex
	keys map[string]int
}

func (l *orphanLog) hook(cfg *Config) {
	l.keys = map[string]int{}
	cfg.OnEvent = func(ev Event) {
		if ev.Kind == EventOrphaned {
			l.mu.Lock()
			l.keys[ev.Key]++
			l.mu.Unlock()
		}
	}
}

func (l *orphanLog) count(key string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.keys[key]
}

// installAll installs n keys and waits until the receiver holds them all.
func (c *vctx) installAll(n int) []string {
	c.t.Helper()
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("flow/%04d", i)
		if err := c.snd.Install(keys[i], []byte("v")); err != nil {
			c.t.Fatal(err)
		}
	}
	c.within(time.Second, "installs", func() bool { return c.rcv.Len() == n })
	return keys
}

// TestPeerProbeOnePerPeer: a hard-state receiver holding 1,024 keys of one
// sender sends that sender exactly one probe per Timeout and gets
// exactly one probe-ack back — not one per key — and arms no per-entry
// timer while doing so.
func TestPeerProbeOnePerPeer(t *testing.T) {
	c := vEndpoints(t, HS, 0)
	c.installAll(1024)
	cfg := c.rcv.cfg
	c.run(cfg.Timeout / 2) // off the rounds' beat: the window below holds whole rounds
	probes0, acks0 := c.rcv.Stats().Sent["probe"], c.snd.Stats().Sent["probe-ack"]
	const k = 7
	c.run(k * cfg.Timeout)
	if got := c.rcv.Stats().Sent["probe"] - probes0; got != k {
		t.Errorf("%d probes in %d intervals for 1,024 keys of one sender, want %d", got, k, k)
	}
	if got := c.snd.Stats().Sent["probe-ack"] - acks0; got != k {
		t.Errorf("%d probe-acks in %d intervals, want %d", got, k, k)
	}
	if armed := c.rcv.tbl.TimersArmed(); armed != [statetable.NumTimerKinds]int{} {
		t.Errorf("%v per-entry timers armed, want none", armed)
	}
	if st := c.rcv.Stats(); st.ProbeAudits != 0 || c.rcv.Len() != 1024 {
		t.Errorf("agreeing pairs audited %d times, %d keys held", st.ProbeAudits, c.rcv.Len())
	}
	if bad := append(c.rcv.CheckInvariants(), c.snd.CheckInvariants()...); len(bad) != 0 {
		t.Fatal(bad)
	}
}

// TestPeerProbeOrphansDeadPeerWhole: when the sender dies, every one of
// its keys is orphaned within (probeMisses+2)·Timeout, each with
// exactly one EventOrphaned, and the orphan-detection histogram records
// the one record's last-answer → orphan latency.
func TestPeerProbeOrphansDeadPeerWhole(t *testing.T) {
	var log orphanLog
	reg := telemetry.NewRegistry()
	c := vEndpoints(t, HS, 0, log.hook, func(cfg *Config) { cfg.Metrics = reg })
	keys := c.installAll(64)
	cfg := c.rcv.cfg
	c.run(2 * cfg.Timeout) // answered rounds: the sender is alive

	c.snd.Close()
	budget := time.Duration(probeMisses+2) * cfg.Timeout
	c.within(budget, "every key of the dead sender orphaned", func() bool { return c.rcv.Len() == 0 })
	for _, k := range keys {
		if n := log.count(k); n != 1 {
			t.Fatalf("key %s orphaned %d times, want once", k, n)
		}
	}
	if c.rcv.NumPeers() != 0 {
		t.Errorf("%d peer records left after the whole record was orphaned", c.rcv.NumPeers())
	}
	snap := c.rcv.histOrphan.Snapshot()
	if lat := time.Duration(snap.SumNs); snap.Count != 1 || lat <= time.Duration(probeMisses)*cfg.Timeout ||
		lat > time.Duration(probeMisses+1)*cfg.Timeout {
		t.Errorf("orphan detection: %d observations, %v, want one in (%d, %d]×Timeout",
			snap.Count, lat, probeMisses, probeMisses+1)
	}
	if bad := c.rcv.CheckInvariants(); len(bad) != 0 {
		t.Fatal(bad)
	}
}

// TestReplayGhostOrphanedWhileSenderLives: a trigger replayed after its
// key's removal was acked re-creates the key at the receiver, a key the
// sender no longer owns. The sender keeps answering every peer probe, so
// only the audit its disagreeing pair opens can find the ghost: it is
// orphaned within (probeMisses+3)·Timeout, and the key the sender
// still owns is never touched.
func TestReplayGhostOrphanedWhileSenderLives(t *testing.T) {
	var log orphanLog
	c := vEndpoints(t, HS, 0, log.hook)
	c.installAll(2)
	const ghost, owned = "flow/0000", "flow/0001"
	e, _ := c.snd.ss.tbl.Get(c.snd.sess.key(ghost))
	trigger := wireTrigger(e.seq, ghost, e.value)
	replay, err := trigger.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.snd.Remove(ghost); err != nil {
		t.Fatal(err)
	}
	c.within(time.Second, "acked removal", func() bool {
		return c.rcv.Len() == 1 && c.snd.Stats().Received["removal-ack"] == 1
	})

	if _, err := c.sndConn.WriteTo(replay, c.snd.sess.peer); err != nil {
		t.Fatal(err)
	}
	c.within(10*time.Millisecond, "the replay lands", func() bool { _, ok := c.rcv.GetFrom(c.sndAddr, ghost); return ok })
	acks0 := c.snd.Stats().Sent["probe-ack"]
	cfg := c.rcv.cfg
	c.within(time.Duration(probeMisses+3)*cfg.Timeout, "ghost orphaned", func() bool {
		_, ok := c.rcv.GetFrom(c.sndAddr, ghost)
		return !ok
	})
	if log.count(ghost) != 1 || log.count(owned) != 0 {
		t.Fatalf("orphaned: ghost %d times, owned key %d times; want 1 and 0", log.count(ghost), log.count(owned))
	}
	if _, ok := c.rcv.GetFrom(c.sndAddr, owned); !ok {
		t.Fatal("the owned key was lost")
	}
	if c.snd.Stats().Sent["probe-ack"] == acks0 {
		t.Fatal("the sender answered nothing while the ghost was hunted")
	}
	if c.rcv.Stats().ProbeAudits == 0 {
		t.Fatal("the ghost was found without an audit")
	}
	if bad := append(c.rcv.CheckInvariants(), c.snd.CheckInvariants()...); len(bad) != 0 {
		t.Fatal(bad)
	}
}

// TestAuditSettlesMissingKey: a false removal whose notify is lost leaves
// the receiver one key short of the sender — hard state's unrepaired
// failure. The pairs disagree in every round from then on, but the one
// audit that finds every held key answered settles the disagreement: the
// rounds after it are one probe per sender again, not an audit each.
func TestAuditSettlesMissingKey(t *testing.T) {
	c := vEndpoints(t, HS, 0)
	keys := c.installAll(8)
	// InjectFalseRemoval with its notify dropped.
	if !c.rcv.tbl.Update(tkey(c.rcv, c.sndAddr, keys[3]), func(e *receiverEntry, tc statetable.TimerControl[receiverEntry]) {
		c.rcv.drop(e, tc, EventFalseRemoval)
	}) {
		t.Fatal("no entry to remove")
	}
	cfg := c.rcv.cfg
	c.run(4 * cfg.Timeout) // disagree, audit, settle
	st := c.rcv.Stats()
	if st.ProbeAudits != 1 {
		t.Fatalf("%d audit rounds for one missing key, want 1", st.ProbeAudits)
	}
	c.run(cfg.Timeout / 2)
	probes0 := c.rcv.Stats().Sent["probe"]
	const k = 10
	c.run(k * cfg.Timeout)
	if st := c.rcv.Stats(); st.ProbeAudits != 1 || st.Sent["probe"]-probes0 != k {
		t.Fatalf("after settling: %d audits, %d probes in %d rounds; want 1 and %d", st.ProbeAudits, st.Sent["probe"]-probes0, k, k)
	}
	if c.rcv.Len() != 7 {
		t.Fatalf("%d keys held, want the 7 the false removal left", c.rcv.Len())
	}
	if bad := c.rcv.CheckInvariants(); len(bad) != 0 {
		t.Fatal(bad)
	}
}

// TestPeerProbeRoundVersusDispatch runs the probe round on the wall clock,
// every millisecond, against two read loops installing, removing and
// answering for one sender's keys — peer probe-acks whose pairs mostly
// disagree, and per-key probe-acks — so rounds orphan, audit and
// settle while the records they judge change under them. Once it is closed
// the receiver's pairs, records and table must still agree.
func TestPeerProbeRoundVersusDispatch(t *testing.T) {
	rcv, err := NewReceiver(newDiscardConn(), Config{Protocol: HS, Timeout: time.Millisecond, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	const from = testAddr("sender-a")
	const rounds = 3000
	var wg sync.WaitGroup
	for lane := 0; lane < 2; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := rcv.newDispatchScratch()
			frame := func(m wire.Message) {
				data, err := m.MarshalBinary()
				if err != nil {
					t.Error(err)
					return
				}
				rcv.dispatch(data, from, sc)
			}
			for i := 0; i < rounds; i++ {
				key := fmt.Sprintf("lane%d/%d", lane, i%16)
				switch i % 5 {
				case 0, 1:
					frame(wireTrigger(uint64(i+1), key, []byte("v")))
				case 2:
					frame(wire.Message{Type: wire.TypeProbeAck, Seq: 1, Value: wire.AppendPair(nil, uint64(i%7), wire.StateHash(key, uint64(i), []byte("v")))})
				case 3:
					frame(wire.Message{Type: wire.TypeProbeAck, Seq: 1, Key: key})
				default:
					frame(wire.Message{Type: wire.TypeRemoval, Seq: uint64(i + 1), Key: key})
				}
				if i%64 == 0 {
					time.Sleep(time.Millisecond) // let rounds run between bursts
				}
			}
		}()
	}
	wg.Wait()
	rcv.Close()
	if bad := rcv.CheckInvariants(); len(bad) != 0 {
		t.Fatal(bad)
	}
}

// TestSteadyProbeRoundAllocatesNothing: a probe round over records whose
// pairs agree, a hard-state receiver's steady state, allocates nothing: its
// lists are the receiver's scratch and no walk is made. Each round follows
// the agreeing peer probe-acks that keep four senders' records alive. The
// round timer runs on the wall clock an hour out, so no round runs beside
// the ones the test calls. Under the race detector the count is not
// checked (raceEnabled).
func TestSteadyProbeRoundAllocatesNothing(t *testing.T) {
	rcv, err := NewReceiver(newDiscardConn(), Config{Protocol: HS, Timeout: time.Hour, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rcv.Close()
	sc := rcv.newDispatchScratch()
	marshal := func(m wire.Message) []byte {
		data, err := m.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	const senders = 4
	var froms [senders]net.Addr
	var acks [senders][]byte
	for i := range froms {
		froms[i] = testAddr(fmt.Sprintf("sender-%d", i))
		key := fmt.Sprintf("flow/%d", i)
		rcv.dispatch(marshal(wireTrigger(1, key, []byte("v"))), froms[i], sc)
		acks[i] = marshal(wire.Message{Type: wire.TypeProbeAck, Seq: 1, Value: wire.AppendPair(nil, 1, wire.StateHash(key, 1, []byte("v")))})
	}
	rcv.probeRound() // the first round sizes the scratch
	probes0 := rcv.Stats().Sent["probe"]
	if got := testing.AllocsPerRun(100, func() {
		for i, ack := range acks {
			rcv.dispatch(ack, froms[i], sc)
		}
		rcv.probeRound()
	}); got != 0 && !raceEnabled {
		t.Errorf("%.0f allocations per steady probe round, want 0", got)
	}
	if st := rcv.Stats(); st.Sent["probe"]-probes0 != 101*senders || st.ProbeAudits != 0 || rcv.Len() != senders {
		t.Errorf("%d probes in 101 rounds to %d senders, %d audits, %d keys held",
			st.Sent["probe"]-probes0, senders, st.ProbeAudits, rcv.Len())
	}
}

// TestProbeInvariantsDetectPairSkew: the pair clauses bite under hard state — a
// record's fold off its entries, an unarmed round, and a sender session's
// fold off its live keys are each reported.
func TestProbeInvariantsDetectPairSkew(t *testing.T) {
	c := vEndpoints(t, HS, 0)
	c.installAll(4)
	p := c.rcv.peers.byAddr.get(c.sndAddr.String())
	for _, skew := range []struct {
		what   string
		do     func()
		undo   func()
		sender bool
	}{
		{"record fold", func() { p.fold++ }, func() { p.fold-- }, false},
		{"probe round", func() { c.rcv.peers.probing = false }, func() { c.rcv.peers.probing = true }, false},
		{"session fold", func() { c.snd.sess.fold.Add(1) }, func() { c.snd.sess.fold.Add(^uint64(0)) }, true},
	} {
		skew.do()
		bad := c.rcv.CheckInvariants()
		if skew.sender {
			bad = c.snd.CheckInvariants()
		}
		if len(bad) == 0 {
			t.Errorf("%s skew not detected", skew.what)
		}
		skew.undo()
	}
	if bad := append(c.rcv.CheckInvariants(), c.snd.CheckInvariants()...); len(bad) != 0 {
		t.Fatalf("repaired state still reports: %v", bad)
	}
}
