package node

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"softstate/internal/clock"
	"softstate/internal/lossy"
	"softstate/internal/signal"
	"softstate/internal/wire"
)

// fastConfig uses millisecond timers so tests complete quickly while
// preserving the paper's R:T:Γ proportions.
func fastConfig(proto signal.Protocol) signal.Config {
	return signal.Config{
		Protocol:        proto,
		RefreshInterval: 30 * time.Millisecond,
		Timeout:         90 * time.Millisecond,
		Retransmit:      10 * time.Millisecond,
		Shards:          4,
	}
}

// eventually polls cond until it holds or the deadline passes.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// udpConn opens a loopback UDP socket or skips the test.
func udpConn(t *testing.T) net.PacketConn {
	t.Helper()
	c, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no UDP loopback: %v", err)
	}
	return c
}

// fanout builds one Node and count receivers over a virtual-time lossy
// switch: the whole 64-receiver topology shares one clock, so the tests
// advance simulated timeout windows instead of sleeping through them.
func fanout(t *testing.T, cfg signal.Config, count int) (*clock.Virtual, *Node, []*signal.Receiver, []net.Addr) {
	t.Helper()
	v := clock.NewVirtual()
	cfg.Clock = v
	nw, err := lossy.NewNetwork(lossy.Config{Clock: v})
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(nw.Endpoint("node"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	rcvs := make([]*signal.Receiver, count)
	addrs := make([]net.Addr, count)
	for i := range rcvs {
		rc := nw.Endpoint(fmt.Sprintf("peer%03d", i))
		addrs[i] = rc.LocalAddr()
		rcv, err := signal.NewReceiver(rc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rcvs[i] = rcv
	}
	t.Cleanup(func() {
		for _, r := range rcvs {
			r.Close()
		}
	})
	return v, n, rcvs, addrs
}

// TestNodeFanoutInstallAndDemux: one node maintains distinct state at many
// receivers over a single socket, and inbound ACKs demultiplex back to the
// right per-peer session.
func TestNodeFanoutInstallAndDemux(t *testing.T) {
	const peers, keys = 8, 16
	cfg := fastConfig(signal.SSRT)
	v, n, rcvs, addrs := fanout(t, cfg, peers)
	for p := 0; p < peers; p++ {
		for k := 0; k < keys; k++ {
			if err := n.Install(addrs[p], fmt.Sprintf("flow/%d", k), []byte(fmt.Sprintf("peer%d", p))); err != nil {
				t.Fatal(err)
			}
		}
	}
	for p := 0; p < peers; p++ {
		p := p
		within(t, v, time.Second, fmt.Sprintf("peer %d installs", p), func() bool { return rcvs[p].Len() == keys })
		val, ok := rcvs[p].Get("flow/0")
		if !ok || !bytes.Equal(val, []byte(fmt.Sprintf("peer%d", p))) {
			t.Fatalf("peer %d holds %q", p, val)
		}
	}
	// Reliable triggers: every session must see its ACKs and quiesce.
	within(t, v, time.Second, "all triggers acked", func() bool {
		return n.Stats().Received["ack"] >= peers*keys
	})
	if got := len(n.ss.Peers()); got != peers {
		t.Fatalf("node tracks %d peers, want %d", got, peers)
	}
	if n.Live() != peers*keys {
		t.Fatalf("node live = %d, want %d", n.Live(), peers*keys)
	}
}

// TestNodeFanoutSummaryRefresh is the acceptance bar live: 64 peers kept
// alive from one socket, refreshed exclusively by per-peer summary
// datagrams — no per-key refreshes — through several timeout windows.
func TestNodeFanoutSummaryRefresh(t *testing.T) {
	const peers, keys = 64, 8
	cfg := fastConfig(signal.SS)
	cfg.RefreshInterval = 40 * time.Millisecond
	cfg.Timeout = 160 * time.Millisecond
	cfg.SummaryRefresh = true
	cfg.Shards = 2 // 64 receivers also run in this test; bound goroutines
	v, n, rcvs, addrs := fanout(t, cfg, peers)
	for p := 0; p < peers; p++ {
		for k := 0; k < keys; k++ {
			if err := n.Install(addrs[p], fmt.Sprintf("flow/%d", k), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
	}
	for p := 0; p < peers; p++ {
		p := p
		within(t, v, time.Second, fmt.Sprintf("peer %d installs", p), func() bool { return rcvs[p].Len() == keys })
	}
	v.Run(4 * cfg.Timeout)
	for p := 0; p < peers; p++ {
		if got := rcvs[p].Len(); got != keys {
			t.Fatalf("peer %d decayed to %d of %d keys despite summary refresh", p, got, keys)
		}
	}
	st := n.Stats()
	if st.Sent["refresh"] != 0 {
		t.Fatalf("summary mode sent %d per-key refreshes", st.Sent["refresh"])
	}
	if st.Sent["summary-refresh"] == 0 {
		t.Fatal("no summary refreshes sent")
	}
	// Each peer's 8 keys fit one datagram, so each sweep costs exactly
	// one datagram per peer: the renewal rate per datagram is the per-peer
	// key count, not 1.
	sweeps := st.Sent["summary-refresh"] / peers
	if sweeps < 2 {
		t.Fatalf("only %d sweeps in 4 timeout windows (%d summaries)", sweeps, st.Sent["summary-refresh"])
	}
}

// TestReadLoopAllocs bounds what a node's read loop allocates over a
// lossy link, which lends the datagrams it delivers: its batch of empty
// slots and the demultiplexing of an ack, under 64 KB. A loop that brought
// its own receive ring, four transport.MaxDatagram buffers, would allocate
// 256 KB per lane for buffers this transport never touches.
func TestReadLoopAllocs(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := allocatedUnder("node.(*Node).readLoop")
	v, n, _, addrs := fanout(t, fastConfig(signal.SSRT), 1)
	if err := n.Install(addrs[0], "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	within(t, v, time.Second, "the ack", func() bool { return n.Stats().Received["ack"] == 1 })
	if got := allocatedUnder("node.(*Node).readLoop") - before; got >= 64<<10 {
		t.Fatalf("the read loop allocated %d B, want under 64 KB", got)
	} else {
		t.Logf("the read loop allocated %d B", got)
	}
}

// allocatedUnder sums the bytes the memory profile has attributed, since
// the program started, to stacks through the function whose name ends in
// fn. The profile lags the heap by up to two collections.
func allocatedUnder(fn string) int64 {
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, _ = runtime.MemProfile(recs, true)
	var total int64
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if strings.HasSuffix(f.Function, fn) {
				total += r.AllocBytes
				break
			}
			if !more {
				break
			}
		}
	}
	return total
}

// TestNodeSelectiveRemove: removing one peer's keys leaves the other
// sessions untouched.
func TestNodeSelectiveRemove(t *testing.T) {
	const peers, keys = 4, 8
	cfg := fastConfig(signal.SSER)
	v, n, rcvs, addrs := fanout(t, cfg, peers)
	for p := 0; p < peers; p++ {
		for k := 0; k < keys; k++ {
			if err := n.Install(addrs[p], fmt.Sprintf("flow/%d", k), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
	}
	for p := 0; p < peers; p++ {
		p := p
		within(t, v, time.Second, "installs", func() bool { return rcvs[p].Len() == keys })
	}
	for k := 0; k < keys; k++ {
		if err := n.Remove(addrs[0], fmt.Sprintf("flow/%d", k)); err != nil {
			t.Fatal(err)
		}
	}
	within(t, v, time.Second, "peer 0 emptied", func() bool { return rcvs[0].Len() == 0 })
	for p := 1; p < peers; p++ {
		if rcvs[p].Len() != keys {
			t.Fatalf("peer %d lost state on peer 0's removal", p)
		}
	}
	if n.Live() != (peers-1)*keys {
		t.Fatalf("node live = %d, want %d", n.Live(), (peers-1)*keys)
	}
}

// TestNodeUnknownPeerCounted: datagrams from an address with no session
// are dropped and counted, not misrouted.
func TestNodeUnknownPeerCounted(t *testing.T) {
	nconn := udpConn(t)
	n, err := New(nconn, fastConfig(signal.SS))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	stray := udpConn(t)
	defer stray.Close()
	m := wireAck(7, "k")
	if _, err := stray.WriteTo(m, nconn.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	eventually(t, "stray counted", func() bool { return n.unknown.Value() == 1 })
}

// TestNodeCloseIdempotent mirrors the sender contract.
func TestNodeCloseIdempotent(t *testing.T) {
	n, err := New(udpConn(t), fastConfig(signal.SS))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if err := n.Install(&net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 1}, "k", nil); err != signal.ErrClosed {
		t.Fatalf("Install after close: %v", err)
	}
}

// wireAck builds a raw ack datagram.
func wireAck(seq uint64, key string) []byte {
	m := wire.Message{Type: wire.TypeAck, Seq: seq, Key: key}
	data, err := m.MarshalBinary()
	if err != nil {
		panic(err)
	}
	return data
}
