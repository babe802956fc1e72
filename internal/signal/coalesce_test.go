package signal

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"softstate/internal/clock"
	"softstate/internal/lossy"
	"softstate/internal/wire"
)

// coalesceEndpoints builds a connected pair with reply coalescing enabled
// on the receiver.
func coalesceEndpoints(t *testing.T, proto Protocol) (*Sender, *Receiver) {
	t.Helper()
	a, b, err := lossy.Pipe(lossy.Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig(proto)
	cfg.CoalesceAcks = true
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

// TestCoalescedAcksStopRetransmits: batched acks must satisfy the sender's
// reliable-trigger machinery exactly like singleton acks — every installed
// key ends up acknowledged, with no singleton ack datagrams on the wire.
func TestCoalescedAcksStopRetransmits(t *testing.T) {
	snd, rcv := coalesceEndpoints(t, SSRT)
	const keys = 100
	for i := 0; i < keys; i++ {
		if err := snd.Install(fmt.Sprintf("k%03d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	eventually(t, "all installs", func() bool { return rcv.Len() == keys })
	eventually(t, "all keys acked", func() bool {
		acked := 0
		snd.ss.tbl.Range(func(_ string, e *senderEntry) bool {
			if e.ackedSeq >= e.seq {
				acked++
			}
			return true
		})
		return acked == keys
	})
	rs := rcv.Stats()
	if rs.Sent["ack"] != 0 {
		t.Fatalf("coalescing receiver sent %d singleton acks", rs.Sent["ack"])
	}
	if rs.CoalescedAcks < keys {
		t.Fatalf("receiver coalesced %d acks, want ≥ %d", rs.CoalescedAcks, keys)
	}
	if snd.Stats().Received["ack-batch"] == 0 {
		t.Fatal("sender saw no ack batches")
	}
}

// TestCoalescedAcksReduceDatagrams is the satellite's counter proof: a
// burst of reliable triggers produces far fewer reply datagrams than
// acknowledgements, mirroring summary refresh on the reply path.
func TestCoalescedAcksReduceDatagrams(t *testing.T) {
	snd, rcv := coalesceEndpoints(t, SSRT)
	const keys = 400
	for i := 0; i < keys; i++ {
		if err := snd.Install(fmt.Sprintf("k%03d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	eventually(t, "all installs", func() bool { return rcv.Len() == keys })
	// An ack is counted as coalesced when its batch is queued, the batch as
	// sent when the write returns: wait for both, or the last flush can be
	// caught between the two.
	eventually(t, "all acks flushed", func() bool {
		rs := rcv.Stats()
		return rs.CoalescedAcks >= keys && rs.Sent["ack-batch"] > 0
	})
	rs := rcv.Stats()
	datagrams := rs.Sent["ack-batch"]
	if ratio := float64(rs.CoalescedAcks) / float64(datagrams); ratio < 4 {
		t.Fatalf("ack coalescing reduced reply datagrams only %.1f× (%d acks in %d datagrams), want ≥4×",
			ratio, rs.CoalescedAcks, datagrams)
	}
}

// TestCoalescedRemovalAcks: removal-acks ride the same batches and still
// complete reliable removal for every key.
func TestCoalescedRemovalAcks(t *testing.T) {
	snd, rcv := coalesceEndpoints(t, SSRTR)
	const keys = 60
	for i := 0; i < keys; i++ {
		if err := snd.Install(fmt.Sprintf("k%03d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	eventually(t, "all installs", func() bool { return rcv.Len() == keys })
	for i := 0; i < keys; i++ {
		if err := snd.Remove(fmt.Sprintf("k%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	eventually(t, "all removals acked", func() bool {
		return rcv.Len() == 0 && len(snd.sess.keys()) == 0 && snd.ss.tbl.Len() == 0
	})
	if rcv.Stats().Sent["removal-ack"] != 0 {
		t.Fatal("coalescing receiver sent singleton removal-acks")
	}
	if snd.Stats().Received["ack-batch"] == 0 {
		t.Fatal("sender saw no ack batches")
	}
}

// TestCoalescedAcksFlushOnClose: acks queued between flush ticks must go
// out during Close, while the transport is still open — a sender whose
// removal was acknowledged into a pending batch must not be left
// retransmitting against a dead receiver. On the virtual clock the receiver
// closes before its first window ends, so only the close-time drain can
// flush.
func TestCoalescedAcksFlushOnClose(t *testing.T) {
	c := vEndpoints(t, SSRTR, 0, func(cfg *Config) { cfg.CoalesceAcks = true })
	step := time.Millisecond / 10
	if err := c.snd.Install("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if !c.clk.RunUntil(func() bool { return c.rcv.Len() == 1 }, step, ackFlushInterval) {
		t.Fatal("install did not arrive")
	}
	if err := c.snd.Remove("k"); err != nil {
		t.Fatal(err)
	}
	if !c.clk.RunUntil(func() bool { return c.rcv.Len() == 0 }, step, ackFlushInterval) {
		t.Fatal("removal did not arrive")
	}
	if n := c.rcv.Stats().Sent["ack-batch"]; n != 0 {
		t.Fatalf("%d ack batches left before Close: the window closed first", n)
	}
	c.rcv.Close() // must drain the pending trigger-ack + removal-ack batch
	c.within(time.Second, "removal acked from the close-time drain", func() bool {
		return c.snd.ss.tbl.Len() == 0
	})
	if c.snd.Stats().Received["ack-batch"] == 0 {
		t.Fatal("sender saw no ack batch from the closing receiver")
	}
}

// TestAckBatchPeerOrderSorted: one flush window holding acks for many
// peers emits its ack-batch datagrams in address order, not in the order
// the peers' triggers arrived.
func TestAckBatchPeerOrderSorted(t *testing.T) {
	v := clock.NewVirtual()
	nw, err := lossy.NewNetwork(lossy.Config{Delay: time.Millisecond, Seed: 5, Clock: v})
	if err != nil {
		t.Fatal(err)
	}
	gc := newGateConn(nw.Endpoint("rcv"))
	cfg := fastConfig(SSRT)
	cfg.CoalesceAcks = true
	cfg.Clock = v
	rcv, err := NewReceiver(gc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rcv.Close()
	const peers = 24
	var want []string
	for i := 0; i < peers; i++ {
		name := fmt.Sprintf("peer-%02d", (i*7)%peers) // arrival order is not address order
		want = append(want, name)
		conn := nw.Endpoint(name)
		defer conn.Close()
		go func() { // drain the acks, so the gate never stalls on them
			buf := make([]byte, 64<<10)
			for {
				if _, _, err := conn.ReadFrom(buf); err != nil {
					return
				}
			}
		}()
		sendTriggers(t, conn, gc.LocalAddr(), name, 2)
	}
	sort.Strings(want)
	// Every trigger lands at one instant, so one window takes them all.
	v.Run(10 * ackFlushInterval)
	got := gc.written(wire.TypeAckBatch)
	if len(got) != peers {
		t.Fatalf("%d ack batches for %d peers, want one each", len(got), peers)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ack-batch peer order = %v, want address order %v", got, want)
		}
	}
}

// TestCoalescingOffByDefault: without the knob, replies stay singletons
// (wire compatibility with pre-batch receivers).
func TestCoalescingOffByDefault(t *testing.T) {
	snd, rcv := endpoints(t, SSRT, 0)
	if err := snd.Install("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	eventually(t, "ack", func() bool { return snd.Stats().Received["ack"] > 0 })
	if rcv.Stats().Sent["ack-batch"] != 0 {
		t.Fatal("ack batches sent without CoalesceAcks")
	}
}
