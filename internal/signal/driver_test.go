package signal

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"softstate/internal/lossy"
	"softstate/internal/telemetry"
	"softstate/internal/wire"
)

// The periodic jobs of an endpoint — summary sweep, idle reap, ack flush —
// are clock timer callbacks under either clock. These tests run them on
// the wall clock, where a callback is a goroutine of its own and stopping
// the timer does not recall one already dispatched: Shutdown and Close
// have to hold their contracts by other means.

// gateConn wraps a PacketConn for those tests: it logs every datagram
// written (type, destination, acks carried), can park the first write of
// one wire type mid-call, and counts writes that begin after Close.
type gateConn struct {
	net.PacketConn

	mu       sync.Mutex
	dests    map[wire.Type][]string // destinations per wire type, in write order
	acks     map[string]int         // coalesced ack items written, per destination
	closed   bool
	late     int // writes begun after Close
	parkType wire.Type
	parked   chan struct{} // closed when a write has parked
	release  chan struct{} // closing it lets the parked write go on
}

func newGateConn(pc net.PacketConn) *gateConn {
	return &gateConn{PacketConn: pc, dests: make(map[wire.Type][]string), acks: make(map[string]int)}
}

// park arms the gate: the next write of type typ blocks inside WriteTo
// until the returned release channel is closed.
func (c *gateConn) park(typ wire.Type) (parked <-chan struct{}, release chan<- struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.parkType = typ
	c.parked = make(chan struct{})
	c.release = make(chan struct{})
	return c.parked, c.release
}

func (c *gateConn) WriteTo(p []byte, to net.Addr) (int, error) {
	var m wire.Message
	if err := m.UnmarshalBinary(p); err != nil {
		return 0, err
	}
	c.mu.Lock()
	if c.closed {
		c.late++
	}
	c.dests[m.Type] = append(c.dests[m.Type], to.String())
	c.acks[to.String()] += len(m.Acks)
	var wait chan struct{}
	if c.release != nil && m.Type == c.parkType {
		wait, c.release = c.release, nil
		close(c.parked)
	}
	c.mu.Unlock()
	if wait != nil {
		<-wait
	}
	return c.PacketConn.WriteTo(p, to)
}

func (c *gateConn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return c.PacketConn.Close()
}

func (c *gateConn) written(typ wire.Type) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.dests[typ]...)
}

func (c *gateConn) ackItems() (total int, perDest map[string]int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	perDest = make(map[string]int, len(c.acks))
	for d, n := range c.acks {
		perDest[d] = n
		total += n
	}
	return total, perDest
}

func (c *gateConn) lateWrites() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.late
}

// wallNetwork is a zero-loss in-memory network on the wall clock.
func wallNetwork(t *testing.T) *lossy.Network {
	t.Helper()
	nw, err := lossy.NewNetwork(lossy.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// sendTriggers writes n raw triggers for distinct keys from conn to dst.
func sendTriggers(t *testing.T, conn net.PacketConn, dst net.Addr, prefix string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		m := wireTrigger(uint64(i+1), fmt.Sprintf("%s/%03d", prefix, i), []byte("v"))
		data, err := m.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.WriteTo(data, dst); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShutdownWithSweepInFlight: Shutdown must wait for a summary sweep
// that is mid-write, and once it has returned no sweep may run — not one
// the clock had already dispatched, not one re-armed by it. The tracer
// sees every summary datagram a sweep composes, written or fenced, so a
// sweep running against the closed transport still shows.
func TestShutdownWithSweepInFlight(t *testing.T) {
	nw := wallNetwork(t)
	peer := nw.Endpoint("peer")
	defer peer.Close()

	senders := 0
	newSender := func(interval time.Duration) (*Sender, *gateConn, *telemetry.Tracer) {
		senders++
		gc := newGateConn(nw.Endpoint(fmt.Sprintf("snd-%d", senders)))
		tr := telemetry.NewTracer(telemetry.TracerConfig{})
		cfg := fastConfig(SS)
		cfg.RefreshInterval = interval
		cfg.Timeout = time.Hour
		cfg.SummaryRefresh = true
		cfg.SummaryMaxKeys = 8
		cfg.Trace = tr
		snd, err := NewSender(gc, peer.LocalAddr(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			if err := snd.Install(fmt.Sprintf("k%02d", i), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		return snd, gc, tr
	}
	sweeps := func(tr *telemetry.Tracer) int { return tr.KindCounts()[telemetry.TraceSummary] }

	t.Run("mid-write", func(t *testing.T) {
		snd, gc, tr := newSender(2 * time.Millisecond)
		parked, release := gc.park(wire.TypeSummaryRefresh)
		<-parked // a sweep is inside WriteTo, holding the sweep lock
		done := make(chan struct{})
		go func() {
			snd.Close()
			close(done)
		}()
		select {
		case <-done:
			t.Fatal("Close returned while a sweep was still writing")
		case <-time.After(20 * time.Millisecond):
		}
		close(release)
		<-done
		settled, wrote := sweeps(tr), len(gc.written(wire.TypeSummaryRefresh))
		time.Sleep(20 * time.Millisecond) // ten sweep intervals
		if got := sweeps(tr); got != settled {
			t.Fatalf("a sweep ran after Shutdown returned (%d -> %d summary datagrams composed)", settled, got)
		}
		if got := len(gc.written(wire.TypeSummaryRefresh)); got != wrote || gc.lateWrites() != 0 {
			t.Fatalf("writes after Shutdown returned: %d -> %d, %d after the transport closed", wrote, got, gc.lateWrites())
		}
	})

	t.Run("any phase", func(t *testing.T) {
		// A 200 µs sweeper closed at arbitrary phases: whichever of "armed",
		// "dispatched" and "sweeping" Shutdown meets, nothing runs after it.
		for round := 0; round < 40; round++ {
			snd, gc, tr := newSender(200 * time.Microsecond)
			time.Sleep(time.Duration(round%8) * 97 * time.Microsecond)
			snd.Close()
			settled := sweeps(tr)
			time.Sleep(2 * time.Millisecond)
			if got := sweeps(tr); got != settled {
				t.Fatalf("round %d: a sweep ran after Shutdown returned (%d -> %d)", round, settled, got)
			}
			if gc.lateWrites() != 0 {
				t.Fatalf("round %d: %d writes after the transport closed", round, gc.lateWrites())
			}
		}
	})
}

// TestReceiverCloseWithFlushInFlight: a coalescing receiver closed while
// a flush callback is mid-write, a second one is dispatched behind it and
// more acks are pending must still put every ack on the wire before the
// transport closes, and write nothing after.
func TestReceiverCloseWithFlushInFlight(t *testing.T) {
	nw := wallNetwork(t)
	a, b := nw.Endpoint("a"), nw.Endpoint("b")
	defer a.Close()
	defer b.Close()
	gc := newGateConn(nw.Endpoint("rcv"))
	cfg := fastConfig(SSRT)
	cfg.CoalesceAcks = true
	rcv, err := NewReceiver(gc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const perPeer = 40
	parked, release := gc.park(wire.TypeAckBatch)
	sendTriggers(t, a, gc.LocalAddr(), "a", perPeer)
	<-parked // the first window's flush is inside WriteTo, holding ackMu
	// A second window opens behind it: its flush callback fires and waits.
	sendTriggers(t, b, gc.LocalAddr(), "b", perPeer)
	eventually(t, "second window queued", func() bool { return rcv.Len() == 2*perPeer })
	time.Sleep(5 * time.Millisecond)

	done := make(chan struct{})
	go func() {
		rcv.Close()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Close returned while a flush was still writing")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-done

	total, perDest := gc.ackItems()
	if total != 2*perPeer || perDest["a"] != perPeer || perDest["b"] != perPeer {
		t.Fatalf("acks on the wire before the transport closed: %v, want %d to each of a and b", perDest, perPeer)
	}
	time.Sleep(10 * time.Millisecond)
	if gc.lateWrites() != 0 {
		t.Fatalf("%d writes after the transport closed", gc.lateWrites())
	}
	if after, _ := gc.ackItems(); after != total {
		t.Fatalf("acks written after Close returned: %d -> %d", total, after)
	}
}
