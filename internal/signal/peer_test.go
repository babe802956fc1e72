package signal

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
	"unsafe"

	"softstate/internal/clock"
	"softstate/internal/statetable"
	"softstate/internal/wire"
)

var allProtocols = []Protocol{SS, SSER, SSRT, SSRTR, HS}

// peerRig is one receiver on a virtual clock, fed hand-made frames through
// the read loop's own dispatch; what it writes is captured.
type peerRig struct {
	t    *testing.T
	clk  *clock.Virtual
	conn *captureConn
	rcv  *Receiver
	sc   *dispatchScratch
}

func newPeerRig(t *testing.T, proto Protocol, mutate ...func(*Config)) *peerRig {
	t.Helper()
	g := &peerRig{t: t, clk: clock.NewVirtual(), conn: newCaptureConn()}
	cfg := fastConfig(proto)
	cfg.Clock = g.clk
	cfg.Shards = 4
	for _, m := range mutate {
		m(&cfg)
	}
	rcv, err := NewReceiver(g.conn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rcv.Close() })
	g.rcv, g.sc = rcv, rcv.newDispatchScratch()
	return g
}

func (g *peerRig) frame(from testAddr, m wire.Message) {
	g.t.Helper()
	data, err := m.MarshalBinary()
	if err != nil {
		g.t.Error(err) // not Fatal: one test feeds frames from a second goroutine
		return
	}
	g.rcv.dispatch(data, from, g.sc)
}

// want fails unless the receiver holds the given numbers of peer records
// and entries with every invariant intact.
func (g *peerRig) want(when string, peers, entries int) {
	g.t.Helper()
	if got := g.rcv.NumPeers(); got != peers {
		g.t.Fatalf("%s: %d peer records, want %d", when, got, peers)
	}
	if got := g.rcv.Len(); got != entries {
		g.t.Fatalf("%s: %d entries, want %d", when, got, entries)
	}
	if bad := g.rcv.CheckInvariants(); len(bad) != 0 {
		g.t.Fatalf("%s: %v", when, bad)
	}
}

func coalescing(cfg *Config) { cfg.CoalesceAcks = true }

// TestPeerLifecycle: under every variant a sender's record appears with
// the first frame that installs state (or queues a coalesced ack) and goes
// with the last entry and the last pending ack, whichever way the entry
// leaves.
func TestPeerLifecycle(t *testing.T) {
	const a, b = testAddr("sender-a"), testAddr("sender-b")
	trigger := func(seq uint64, key string) wire.Message { return wireTrigger(seq, key, []byte("v")) }
	// leave removes a's only entry; a silent sender is timed out under soft
	// state and orphaned under hard state.
	leaves := []struct {
		name  string
		leave func(g *peerRig)
	}{
		{"silence", func(g *peerRig) {
			g.clk.Run(time.Duration(g.rcv.cfg.MaxProbeMisses+2) * g.rcv.cfg.ProbeInterval)
			kind := EventExpired
			if g.rcv.prof.HardState {
				kind = EventOrphaned
			}
			for {
				select {
				case ev := <-g.rcv.Events():
					if ev.Kind == kind && ev.Peer == a {
						return
					}
				default:
					g.t.Fatalf("the silent sender's entry did not leave as %v", kind)
				}
			}
		}},
		{"explicit removal", func(g *peerRig) { g.frame(a, wire.Message{Type: wire.TypeRemoval, Seq: 2, Key: "k"}) }},
		{"false removal", func(g *peerRig) { g.rcv.InjectFalseRemoval("k") }},
	}
	for _, proto := range allProtocols {
		for _, lv := range leaves {
			t.Run(fmt.Sprintf("%s/%s", proto, lv.name), func(t *testing.T) {
				g := newPeerRig(t, proto)
				g.want("at rest", 0, 0)
				g.frame(a, trigger(1, "k"))
				g.want("first trigger", 1, 1)
				g.frame(b, trigger(1, "k"))
				g.frame(b, trigger(1, "k2"))
				g.want("a second sender", 2, 3)
				g.frame(b, wire.Message{Type: wire.TypeRemoval, Seq: 2, Key: "k"})
				g.frame(b, wire.Message{Type: wire.TypeRemoval, Seq: 2, Key: "k2"})
				g.want("the second sender's keys removed", 1, 1)
				lv.leave(g)
				g.want("a's last entry gone by "+lv.name, 0, 0)
				g.frame(a, trigger(3, "k"))
				g.want("the address returns", 1, 1)
			})
		}

		// With coalescing a record also stands for acks owed: a removal of
		// an unknown key creates it (where removals are acked), and an entry
		// leaving does not take it while its trigger's ack is still queued.
		t.Run(fmt.Sprintf("%s/pending acks", proto), func(t *testing.T) {
			g := newPeerRig(t, proto, coalescing)
			flush := func() { g.clk.Run(2 * g.rcv.cfg.AckFlushInterval) }
			owed := func(yes bool) int {
				if yes {
					return 1
				}
				return 0
			}
			g.frame(a, wire.Message{Type: wire.TypeRemoval, Seq: 1, Key: "never-held"})
			g.want("removal of an unknown key", owed(g.rcv.prof.ReliableRemoval), 0)
			flush()
			g.want("the removal-ack flushed", 0, 0)

			g.frame(a, trigger(2, "k"))
			g.want("trigger", 1, 1)
			if !g.rcv.InjectFalseRemoval("k") {
				t.Fatal("nothing to remove")
			}
			g.want("entry gone, ack queued", owed(g.rcv.prof.ReliableTrigger), 0)
			flush()
			g.want("the ack flushed", 0, 0)
			acked := 0
			for _, c := range g.conn.take() {
				if c.m.Type == wire.TypeAckBatch {
					acked += len(c.m.Acks)
				}
			}
			if want := owed(g.rcv.prof.ReliableRemoval) + owed(g.rcv.prof.ReliableTrigger); acked != want {
				t.Fatalf("%d acks flushed, want %d", acked, want)
			}
		})
	}
}

// TestPeerNotCreatedByFramesThatInstallNothing: a summary refresh, a
// probe-ack of either shape, a digest request and a removal nobody acks,
// each from 10,000 distinct sources, leave no record behind — a stranger
// costs the receiver no memory. (A trigger from a stranger always
// installs: sequence numbers are per sender. The replay that installs
// nothing is one below an existing entry's sequence, and it must leave that
// sender's one record and one entry as they were.)
func TestPeerNotCreatedByFramesThatInstallNothing(t *testing.T) {
	const strangers = 10000
	for _, proto := range allProtocols {
		t.Run(proto.String(), func(t *testing.T) {
			g := newPeerRig(t, proto)
			digest := wire.DigestRequest{Kind: wire.DigestSummary}.Encode()
			frames := []wire.Message{
				{Type: wire.TypeSummaryRefresh, Seq: 9, Keys: []string{"k", "k2"}},
				{Type: wire.TypeProbeAck, Seq: 9, Key: "k"},
				{Type: wire.TypeProbeAck, Seq: 9, Value: wire.AppendPair(nil, 2, wire.StateHash("k", 9, nil))},
				{Type: wire.TypeDigest, Seq: 9, Value: digest},
			}
			if !g.rcv.prof.ReliableRemoval { // an acked removal is answered at once: no record either
				frames = append(frames, wire.Message{Type: wire.TypeRemoval, Seq: 9, Key: "k"})
			}
			for i := 0; i < strangers; i++ {
				for _, m := range frames {
					g.frame(testAddr(fmt.Sprintf("stranger-%d", i)), m)
				}
			}
			g.want("after the strangers", 0, 0)

			const a = testAddr("sender-a")
			g.frame(a, wireTrigger(5, "k", []byte("new")))
			g.frame(a, wireTrigger(4, "k", []byte("old")))
			g.want("after a stale replay", 1, 1)
			if v, _ := g.rcv.GetFrom(a, "k"); string(v) != "new" {
				t.Fatalf("the stale replay overwrote the value: %q", v)
			}
		})
	}
}

// TestPeerReapVersusInstall races the two ends of a record's life on one
// address: two read loops each install a key and take it away again — by
// removal frame, by false removal, or by leaving it to the wheel — so the
// address's entry count keeps touching zero while the other loop installs.
// Under its shard lock an entry must always name a live record that counts
// it, and once everything has expired nothing may be left over.
func TestPeerReapVersusInstall(t *testing.T) {
	cfg := fastConfig(SS)
	cfg.Timeout = time.Millisecond
	cfg.Shards = 4
	rcv, err := NewReceiver(newDiscardConn(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rcv.Close()
	const from = testAddr("sender-a")
	const rounds = 4000
	var wg sync.WaitGroup
	for lane := 0; lane < 2; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := rcv.newDispatchScratch()
			key := fmt.Sprintf("lane%d", lane)
			frame := func(m wire.Message) {
				data, err := m.MarshalBinary()
				if err != nil {
					t.Error(err)
				}
				rcv.dispatch(data, from, sc)
			}
			for i := 0; i < rounds; i++ {
				frame(wireTrigger(uint64(i+1), key, []byte("v")))
				rcv.tbl.Update(RKey(from, key), func(e *receiverEntry, _ statetable.TimerControl[receiverEntry]) {
					p := rcv.peers.resolve(e.peer)
					if p == nil {
						t.Errorf("entry %q names peer %d, which has no record", key, e.peer)
						return
					}
					rcv.peers.mu.RLock()
					if p.gone.Load() || p.entries < 1 || p.addr != from {
						t.Errorf("entry %q names a record of %v with gone=%v entries=%d", key, p.addr, p.gone.Load(), p.entries)
					}
					rcv.peers.mu.RUnlock()
				})
				switch i % 8 {
				case 0:
					time.Sleep(2 * cfg.Timeout) // the wheel takes it
				case 1, 2:
					rcv.InjectFalseRemoval(key)
				default:
					frame(wire.Message{Type: wire.TypeRemoval, Seq: uint64(i + 1), Key: key})
				}
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for rcv.Len() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if rcv.Len() != 0 || rcv.NumPeers() != 0 {
		t.Fatalf("after everything expired: %d entries, %d peer records", rcv.Len(), rcv.NumPeers())
	}
	if bad := rcv.CheckInvariants(); len(bad) != 0 {
		t.Fatal(bad)
	}
}

// TestStrangerDigestWalksNothing: a census digest request from an address
// holding no state is answered from the missing record alone. The proof is
// a held shard lock: a walk of the table would block on it, the direct
// answer does not — and the answer is what the walk would produce, fold 0,
// zero sums and one empty detail part.
func TestStrangerDigestWalksNothing(t *testing.T) {
	const holder, stranger = testAddr("sender-a"), testAddr("stranger")
	const buckets = censusBuckets
	g := newPeerRig(t, SSRTR)
	for i := 0; i < 64; i++ {
		g.frame(holder, wireTrigger(1, fmt.Sprintf("k%02d", i), []byte("v")))
	}
	g.conn.take()
	request := func(from testAddr, req wire.DigestRequest, seq uint64) {
		g.frame(from, wire.Message{Type: wire.TypeDigest, Seq: seq, Value: req.Encode()})
	}
	const n = 100
	done := make(chan struct{})
	g.rcv.tbl.Update(RKey(holder, "k00"), func(*receiverEntry, statetable.TimerControl[receiverEntry]) {
		go func() {
			defer close(done)
			for i := uint64(0); i < n; i++ {
				request(stranger, wire.DigestRequest{Kind: wire.DigestFold}, 3*i)
				request(stranger, wire.DigestRequest{Kind: wire.DigestSummary}, 3*i+1)
				request(stranger, wire.DigestRequest{Kind: wire.DigestDetail, Bucket: uint16(i % buckets)}, 3*i+2)
			}
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("a stranger's digest request waited for a table shard: it walked the table")
		}
	})
	<-done
	replies := g.conn.take()
	if len(replies) != 3*n {
		t.Fatalf("%d replies to %d requests", len(replies), 3*n)
	}
	for i, c := range replies {
		// What the prefix-filtered walk returns for an address with no keys.
		want := &wire.DigestReply{Kind: wire.DigestFold}
		switch i % 3 {
		case 1:
			want = &wire.DigestReply{Kind: wire.DigestSummary, Sums: make([]uint64, buckets)}
		case 2:
			want = &wire.DigestReply{Kind: wire.DigestDetail, Bucket: uint16(i / 3 % buckets), Parts: 1}
		}
		val, err := want.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if c.to != stranger || c.m.Type != wire.TypeDigestReply || c.m.Seq != uint64(i) || !bytes.Equal(c.m.Value, val) {
			t.Fatalf("reply %d to %v: %v seq %d % x, want % x", i, c.to, c.m.Type, c.m.Seq, c.m.Value, val)
		}
	}

	// The holder's own requests still find its keys: its fold is its
	// record's, and its sums add up to it.
	request(holder, wire.DigestRequest{Kind: wire.DigestFold}, 1)
	request(holder, wire.DigestRequest{Kind: wire.DigestSummary}, 2)
	var fold, sum uint64
	for _, c := range g.conn.take() {
		reply, err := wire.ParseDigestReply(c.m.Value)
		if err != nil {
			t.Fatal(err)
		}
		fold += reply.Fold
		for _, s := range reply.Sums {
			sum += s
		}
	}
	if p := g.rcv.peers.byAddr.get(string(holder)); fold == 0 || fold != p.fold || sum != fold {
		t.Fatalf("the holder's fold %x, its sums add up to %x, its record folds %x", fold, sum, p.fold)
	}
}

// TestEntrySizes pins both table values: the state table adds 24 bytes to
// a value (TestEntryOverhead there) and packs entries into chunks, so a
// 48-byte receiverEntry — the sender named by a peer id sharing a word with
// aux (the lease id, or a hard-state audit's per-key miss count), not by a
// two-word net.Addr — is 72 bytes of a chunk, 56 to a chunk, and a 72-byte
// senderEntry — its session named by the id heading its table key, not by
// a pointer, and its trace context an origin stamp and a hop count, not a
// 24-byte wire.TraceContext — is 96, 42 to a chunk. A timer node (24
// bytes) is paid beside the chunk only for a kind the table arms. A word
// more on either value is 8 bytes per installed key.
func TestEntrySizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes pinned for 64-bit targets")
	}
	if got := unsafe.Sizeof(receiverEntry{}); got > 48 {
		t.Errorf("receiverEntry is %d bytes, want at most 48", got)
	}
	if got := unsafe.Sizeof(senderEntry{}); got > 72 {
		t.Errorf("senderEntry is %d bytes, want at most 72", got)
	}
}

// TestEvictedSessionResolvesAnew: an entry names its session by the id
// heading its table key, so a peer the idle reaper evicted and that returns
// must have its new entries resolve to the new session — the one its
// retransmissions are counted on — while the evicted one is unfiled. A
// handle to the evicted session used after the address was re-claimed is
// filed again for as long as it holds entries. CheckInvariants stays clean
// throughout.
func TestEvictedSessionResolvesAnew(t *testing.T) {
	clk := clock.NewVirtual()
	ss := NewSessions(newDiscardConn(), Config{Protocol: SSRT, Clock: clk, Retransmit: 10 * time.Millisecond,
		RetransmitMax: 10 * time.Millisecond, RefreshInterval: time.Hour, Timeout: 3 * time.Hour,
		PeerIdleTimeout: 100 * time.Millisecond})
	defer ss.Shutdown()
	clean := func(when string) {
		t.Helper()
		if bad := ss.CheckInvariants(); len(bad) != 0 {
			t.Fatalf("%s: %v", when, bad)
		}
	}
	resolves := func(s *Session, key string) bool { return ss.resolve(sessionKey(s.id, key)) == s }
	peer := testAddr("10.0.0.5:7000")

	old := ss.Session(peer)
	if err := old.Install("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if !resolves(old, "k") {
		t.Fatal("a live session's entry does not resolve to it")
	}
	clean("installed")
	if err := old.Remove("k"); err != nil { // SS+RT: deleted at once
		t.Fatal(err)
	}
	clk.Run(300 * time.Millisecond)
	if !old.gone.Load() || ss.Evictions() != 1 {
		t.Fatalf("gone=%v after %d evictions", old.gone.Load(), ss.Evictions())
	}
	if ss.resolve(sessionKey(old.id, "")) != nil {
		t.Fatal("the evicted session is still filed")
	}
	clean("evicted")

	// The peer returns: a new session, whose entries and timers are its own.
	back := ss.Session(peer)
	if back == old {
		t.Fatal("the evicted session is still in the peer table")
	}
	if err := back.Install("k", []byte("w")); err != nil {
		t.Fatal(err)
	}
	clk.Run(25 * time.Millisecond) // unacknowledged: the retransmit timer fires
	if !resolves(back, "k") || back.retxs.Load() == 0 || old.retxs.Load() != 0 {
		t.Fatalf("the returning peer's entry resolves to the new session: %v; retransmits new %d, old %d",
			resolves(back, "k"), back.retxs.Load(), old.retxs.Load())
	}
	clean("returned")

	// The evicted handle used again while the address belongs to back: it
	// stays detached from the peer table, but its entry resolves to it.
	if err := old.Install("k2", []byte("x")); err != nil {
		t.Fatal(err)
	}
	clk.Run(25 * time.Millisecond)
	if !old.gone.Load() || !resolves(old, "k2") || old.retxs.Load() == 0 {
		t.Fatalf("detached handle: gone=%v resolves=%v retransmits=%d", old.gone.Load(), resolves(old, "k2"), old.retxs.Load())
	}
	clean("detached handle in use")
	if err := old.Remove("k2"); err != nil {
		t.Fatal(err)
	}
	clk.Run(300 * time.Millisecond)
	if ss.resolve(sessionKey(old.id, "")) != nil || !resolves(back, "k") {
		t.Fatal("the drained detached handle is still filed, or the live session is not")
	}
	clean("detached handle drained")
}
