package signal

import (
	"fmt"
	"testing"
	"time"

	"softstate/internal/lossy"
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
	cfg.AckFlushInterval = time.Millisecond
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
		return rcv.Len() == 0 && len(snd.Keys()) == 0 && snd.ss.tbl.Len() == 0
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
// retransmitting against a dead receiver.
func TestCoalescedAcksFlushOnClose(t *testing.T) {
	a, b, err := lossy.Pipe(lossy.Config{Delay: time.Millisecond, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig(SSRTR)
	cfg.CoalesceAcks = true
	cfg.AckFlushInterval = time.Hour // only the close-time drain can flush
	snd, err := NewSender(a, b.LocalAddr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer snd.Close()
	rcv, err := NewReceiver(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := snd.Install("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	eventually(t, "install", func() bool { return rcv.Len() == 1 })
	if err := snd.Remove("k"); err != nil {
		t.Fatal(err)
	}
	eventually(t, "removal processed", func() bool { return rcv.Len() == 0 })
	rcv.Close() // must drain the pending trigger-ack + removal-ack batch
	eventually(t, "removal acked from the close-time drain", func() bool {
		return snd.ss.tbl.Len() == 0
	})
	if snd.Stats().Received["ack-batch"] == 0 {
		t.Fatal("sender saw no ack batch from the closing receiver")
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
