package signal

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"softstate/internal/transport"
)

// severListener remembers the connections it accepts, so a test can cut
// them.
type severListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *severListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

// sever closes every connection accepted so far: both ends see it fail.
func (l *severListener) sever() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.Close()
	}
	l.conns = nil
}

// streamEndpoints builds a sender/receiver pair over the TCP stream
// backend: the receiver listens, the sender dials with a stable identity,
// and the one connection between them is accepted through the returned
// listener. Wall-clock with fast timers — the stream backend has no
// virtual-time form (reliable transport is exactly what the lossy virtual
// pipes are not).
func streamEndpoints(t *testing.T, proto Protocol) (*Sender, *Receiver, *severListener) {
	t.Helper()
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &severListener{Listener: tcp}
	rs := transport.NewStream("", ln, transport.Options{})
	ss := transport.NewStream("stream-test-sender", nil, transport.Options{})
	raddr, err := net.ResolveTCPAddr("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig(proto)
	snd, err := NewSender(ss, raddr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := NewReceiver(rs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		snd.Close()
		rcv.Close()
	})
	return snd, rcv, ln
}

// TestStreamSSRTRConverges runs the fully reliable soft-state variant
// over the framed TCP backend: installs converge, are acked, and an
// explicit reliable removal clears the state.
func TestStreamSSRTRConverges(t *testing.T) {
	snd, rcv, _ := streamEndpoints(t, SSRTR)
	const n = 20
	for i := 0; i < n; i++ {
		if err := snd.Install(fmt.Sprintf("flow/%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	eventually(t, "all keys held", func() bool { return rcv.Len() == n })
	eventually(t, "all installs acked", func() bool {
		return snd.Stats().Received["ack"] > 0 || snd.Stats().Received["ack-batch"] > 0
	})
	if err := snd.Remove("flow/0"); err != nil {
		t.Fatal(err)
	}
	eventually(t, "reliable removal", func() bool { return rcv.Len() == n-1 })
}

// TestStreamReconnectSeqResume is the regression test for the stream
// backend's identity handshake: severing every TCP connection mid-session
// must not reset the receiver-observed source address or sequence space —
// an update sent after the reconnect carries a higher seq on the same
// (source, key) entry and must be accepted, not discarded as a stale
// retransmission.
func TestStreamReconnectSeqResume(t *testing.T) {
	snd, rcv, ln := streamEndpoints(t, SSRTR)
	if err := snd.Install("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	eventually(t, "install", func() bool { _, ok := rcv.Get("k"); return ok })

	// Sever the TCP connection; state and sessions stay.
	ln.sever()

	if err := snd.Update("k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	eventually(t, "post-reconnect update accepted", func() bool {
		v, ok := rcv.Get("k")
		return ok && bytes.Equal(v, []byte("v2"))
	})
	ln.mu.Lock()
	redialed := len(ln.conns)
	ln.mu.Unlock()
	if redialed != 1 {
		t.Fatalf("%d connections accepted after the cut, want the one redial", redialed)
	}
	// Exactly one (source, key) entry: the reconnect did not register a
	// second source address for the same sender.
	if got := rcv.Len(); got != 1 {
		t.Fatalf("receiver holds %d entries after reconnect, want 1", got)
	}
	// Refreshes over the resumed connection keep the state alive.
	time.Sleep(4 * fastConfig(SSRTR).Timeout)
	if v, ok := rcv.Get("k"); !ok || !bytes.Equal(v, []byte("v2")) {
		t.Fatal("state did not survive refreshes after reconnect")
	}
}

// TestStreamHSOrphanRemoval runs the hard-state orphan detector over the
// stream backend: a sender that dies without removing its state stops
// answering probes and the receiver cleans up.
func TestStreamHSOrphanRemoval(t *testing.T) {
	snd, rcv, _ := streamEndpoints(t, HS)
	if err := snd.Install("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	eventually(t, "install", func() bool { _, ok := rcv.Get("k"); return ok })

	snd.Close()
	cfg := fastConfig(HS).withDefaults()
	budget := time.Duration(probeMisses+2) * cfg.Timeout * 4
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		if _, ok := rcv.Get("k"); !ok {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("orphaned hard state never removed over stream backend")
}
