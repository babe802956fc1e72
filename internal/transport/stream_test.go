package transport

import (
	"fmt"
	"net"
	"testing"
	"time"
)

func newListenerStream(t *testing.T, name string) *Stream {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s := NewStream(name, ln, Options{})
	t.Cleanup(func() { s.Close() })
	return s
}

func readOne(t *testing.T, s *Stream) (string, net.Addr) {
	t.Helper()
	ch := make(chan Message, 1)
	go func() {
		ms := NewBatch(1)
		if n, err := s.ReadBatch(ms); err == nil && n == 1 {
			ch <- ms[0]
		}
	}()
	select {
	case m := <-ch:
		return string(m.Data), m.Addr
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for stream datagram")
		return "", nil
	}
}

// TestStreamRoundTrip covers both directions: a dial-only client sends to
// the server's TCP address, and the server replies to the client's
// StreamAddr identity over the accepted connection.
func TestStreamRoundTrip(t *testing.T) {
	srv := newListenerStream(t, "")
	cli := NewStream("client-1", nil, Options{})
	defer cli.Close()

	srvAddr, err := net.ResolveTCPAddr("tcp", srv.LocalAddr().String())
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	if _, err := cli.WriteTo([]byte("ping"), srvAddr); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	data, from := readOne(t, srv)
	if data != "ping" {
		t.Fatalf("server got %q", data)
	}
	id, ok := from.(StreamAddr)
	if !ok || string(id) != "client-1" {
		t.Fatalf("source = %#v, want StreamAddr(client-1)", from)
	}

	if _, err := srv.WriteTo([]byte("pong"), from); err != nil {
		t.Fatalf("reply WriteTo: %v", err)
	}
	data, from = readOne(t, cli)
	if data != "pong" {
		t.Fatalf("client got %q", data)
	}
	if from.String() != srvAddr.String() {
		t.Fatalf("reply source = %v, want dialed addr %v", from, srvAddr)
	}
}

// TestStreamWriteBatchFlush checks WriteBatch coalesces many frames into
// one TCP write per peer (pending counted, one flush).
func TestStreamWriteBatchFlush(t *testing.T) {
	srv := newListenerStream(t, "")
	cli := NewStream("batcher", nil, Options{})
	defer cli.Close()
	srvAddr, _ := net.ResolveTCPAddr("tcp", srv.LocalAddr().String())

	const n = 10
	ms := NewBatch(n)
	for i := range ms {
		ms[i].Data = []byte(fmt.Sprintf("b-%02d", i))
		ms[i].Addr = srvAddr
	}
	if sent, err := cli.WriteBatch(ms); err != nil || sent != n {
		t.Fatalf("WriteBatch = %d, %v", sent, err)
	}
	if got, frames := cli.Stats().WriteDatagrams.Value(), cli.Stats().WriteFrames.Value(); got != n || frames != n {
		t.Fatalf("WriteDatagrams = %d, WriteFrames = %d, want %d each: a stream frame is one datagram", got, frames, n)
	}
	// One hello write + at most a couple of flushes, far fewer than n.
	if calls := cli.Stats().WriteCalls.Value(); calls >= n {
		t.Fatalf("WriteCalls = %d: stream did not coalesce %d frames", calls, n)
	}

	seen := make(map[string]bool)
	for len(seen) < n {
		data, _ := readOne(t, srv)
		seen[data] = true
	}
}

// TestStreamReconnectIdentity is the seq-resume foundation: after every
// TCP connection is severed, the next datagram from the same client must
// arrive with the same StreamAddr source, so receiver-side sessions (and
// their sequence spaces) carry over instead of restarting.
func TestStreamReconnectIdentity(t *testing.T) {
	srv := newListenerStream(t, "")
	cli := NewStream("sticky-id", nil, Options{})
	defer cli.Close()
	srvAddr, _ := net.ResolveTCPAddr("tcp", srv.LocalAddr().String())

	if _, err := cli.WriteTo([]byte("before"), srvAddr); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	_, from1 := readOne(t, srv)

	cli.disconnectAll()
	srv.disconnectAll()

	// The dialer redials lazily on the next write; one datagram may be
	// lost in the race with the teardown, so retry until one lands.
	got := make(chan net.Addr, 1)
	go func() {
		ms := NewBatch(1)
		for {
			n, err := srv.ReadBatch(ms)
			if err != nil {
				return
			}
			if n == 1 && string(ms[0].Data) == "after" {
				got <- ms[0].Addr
				return
			}
		}
	}()
	var from2 net.Addr
	deadline := time.After(5 * time.Second)
send:
	for {
		if _, err := cli.WriteTo([]byte("after"), srvAddr); err != nil {
			t.Fatalf("WriteTo after disconnect: %v", err)
		}
		select {
		case from2 = <-got:
			break send
		case <-deadline:
			t.Fatal("no datagram delivered after reconnect")
		case <-time.After(50 * time.Millisecond):
		}
	}

	if from1.String() != from2.String() {
		t.Fatalf("source changed across reconnect: %v -> %v", from1, from2)
	}
	if _, ok := from2.(StreamAddr); !ok {
		t.Fatalf("source = %#v, want StreamAddr", from2)
	}
}

// TestStreamUnreachablePeer checks datagram-loss semantics: writing to a
// dead TCP endpoint reports success (the datagram is "sent and lost") and
// never wedges the caller.
func TestStreamUnreachablePeer(t *testing.T) {
	cli := NewStream("lonely", nil, Options{})
	defer cli.Close()
	// Grab a port with nothing listening on it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	dead, _ := net.ResolveTCPAddr("tcp", ln.Addr().String())
	ln.Close()

	if n, err := cli.WriteTo([]byte("void"), dead); err != nil || n != 4 {
		t.Fatalf("WriteTo dead peer = %d, %v; want 4, nil", n, err)
	}
}

// disconnectAll closes every live peer connection without closing the
// stream: dialed peers re-establish on the next write, accepted peers
// when their dialer reconnects.
func (s *Stream) disconnectAll() {
	s.mu.Lock()
	peers := make([]*streamPeer, 0, len(s.peers))
	for _, p := range s.peers {
		peers = append(peers, p)
	}
	s.mu.Unlock()
	for _, p := range peers {
		p.mu.Lock()
		p.resetLocked()
		p.mu.Unlock()
	}
}
