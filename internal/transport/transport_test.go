package transport

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"softstate/internal/wire"
)

func listenBatch(t *testing.T, o Options) Conn {
	t.Helper()
	c, err := ListenUDPBatch("127.0.0.1:0", o)
	if err != nil {
		t.Fatalf("ListenUDPBatch: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestUDPBatchRoundTrip pushes a full batch through WriteBatch and drains
// it with ReadBatch, checking payloads, source addresses, and that the
// counters show the frames coalesced into fewer kernel datagrams, sent in
// fewer calls than frames. (TestCoalescingBudget checks that one sendmmsg
// carries several datagrams.)
func TestUDPBatchRoundTrip(t *testing.T) {
	rx := listenBatch(t, Options{})
	tx := listenBatch(t, Options{})
	to := rx.LocalAddr().(*net.UDPAddr)

	const n = 16
	out := NewBatch(n)
	for i := range out {
		out[i].Data = []byte(fmt.Sprintf("datagram-%02d", i))
		out[i].Addr = to
	}
	if sent, err := tx.WriteBatch(out); err != nil || sent != n {
		t.Fatalf("WriteBatch = %d, %v; want %d, nil", sent, err, n)
	}

	in := NewBatch(n)
	got := make(map[string]bool)
	deadline := time.Now().Add(5 * time.Second)
	for len(got) < n {
		rx.SetReadDeadline(deadline)
		cnt, err := rx.ReadBatch(in)
		if err != nil {
			t.Fatalf("ReadBatch: %v (got %d/%d)", err, len(got), n)
		}
		for i := 0; i < cnt; i++ {
			got[string(in[i].Data)] = true
			if ua, ok := in[i].Addr.(*net.UDPAddr); !ok || ua.Port != tx.LocalAddr().(*net.UDPAddr).Port {
				t.Fatalf("datagram %d from %v, want port %d", i, in[i].Addr, tx.LocalAddr().(*net.UDPAddr).Port)
			}
		}
	}
	for i := 0; i < n; i++ {
		if !got[fmt.Sprintf("datagram-%02d", i)] {
			t.Fatalf("missing datagram %d; got %v", i, got)
		}
	}

	// The 16 frames share one destination, so they cross the kernel
	// coalesced, in at most 3 datagrams (1 on a loopback budget).
	ts, rs := tx.Stats(), rx.Stats()
	if ts.WriteFrames.Value() != n || rs.ReadFrames.Value() != n {
		t.Fatalf("frames written %d, read %d; want %d each", ts.WriteFrames.Value(), rs.ReadFrames.Value(), n)
	}
	if w, r := ts.WriteDatagrams.Value(), rs.ReadDatagrams.Value(); w > 3 || r != w {
		t.Fatalf("kernel datagrams written %d, read %d; want the same count, at most 3", w, r)
	}
	if ts.WriteCalls.Value() >= n {
		t.Fatalf("WriteCalls = %d: sendmmsg did not batch %d frames", ts.WriteCalls.Value(), n)
	}
}

// listenBatch6 is listenBatch on ::1, skipping the test on a host with
// no IPv6 loopback.
func listenBatch6(t *testing.T) Conn {
	t.Helper()
	c, err := ListenUDPBatch("[::1]:0", Options{})
	if err != nil {
		t.Skipf("no IPv6 loopback: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestUDPBatchTruncated feeds the ring a datagram larger than its slot
// buffers, MaxDatagram: it must be counted, dropped, and not block
// delivery of the intact datagram behind it. MaxDatagram is IPv4's
// largest UDP payload, so the datagram crosses ::1: 65,520 B is under
// IPv6's limit of 65,527.
func TestUDPBatchTruncated(t *testing.T) {
	rx := listenBatch6(t)
	tx, err := net.Dial("udp", rx.LocalAddr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer tx.Close()

	big := make([]byte, 65520)
	if _, err := tx.Write(big); err != nil {
		t.Fatalf("write big: %v", err)
	}
	if _, err := tx.Write([]byte("small")); err != nil {
		t.Fatalf("write small: %v", err)
	}

	ms := NewBatch(4)
	rx.SetReadDeadline(time.Now().Add(5 * time.Second))
	cnt, err := rx.ReadBatch(ms)
	if err != nil {
		t.Fatalf("ReadBatch: %v", err)
	}
	if cnt != 1 || string(ms[0].Data) != "small" {
		t.Fatalf("ReadBatch = %d (%q), want 1 (\"small\")", cnt, ms[0].Data)
	}
	if got := rx.Stats().Truncated.Value(); got != 1 {
		t.Fatalf("Truncated = %d, want 1", got)
	}
}

// TestUDPBatchMultiSocket checks SO_REUSEPORT sharding: every datagram
// sent at the shared port is delivered by exactly one of the fan-out
// lanes, and the lanes share one Stats.
func TestUDPBatchMultiSocket(t *testing.T) {
	rx := listenBatch(t, Options{Sockets: 4})
	lanes := Fanout(rx)
	if len(lanes) != 4 {
		t.Fatalf("Fanout lanes = %d, want 4", len(lanes))
	}
	for _, l := range lanes {
		if l.Stats() != rx.Stats() {
			t.Fatal("lanes must share the combined conn's Stats")
		}
	}

	const n = 64
	got := make(chan string, n)
	for _, l := range lanes {
		go func(c Conn) {
			ms := NewBatch(8)
			for {
				cnt, err := c.ReadBatch(ms)
				if err != nil {
					return
				}
				for i := 0; i < cnt; i++ {
					got <- string(ms[i].Data)
				}
			}
		}(l)
	}

	// Distinct source sockets so the kernel's flow hash can spread load.
	for i := 0; i < n; i++ {
		c, err := net.Dial("udp", rx.LocalAddr().String())
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		if _, err := fmt.Fprintf(c, "m-%02d", i); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		c.Close()
	}

	seen := make(map[string]bool)
	timeout := time.After(5 * time.Second)
	for len(seen) < n {
		select {
		case s := <-got:
			seen[s] = true
		case <-timeout:
			t.Fatalf("received %d/%d datagrams", len(seen), n)
		}
	}
}

// TestUDPBatchSingleSocketPortsDistinct: single-socket listeners do not
// set SO_REUSEPORT, so port-0 binds held open together never share a port.
// With the option set the kernel handed one port to two of 65 binds in
// about one set in twelve; 64 sets miss that with probability under 1%.
func TestUDPBatchSingleSocketPortsDistinct(t *testing.T) {
	for round := 0; round < 64; round++ {
		owner := make(map[string]int)
		conns := make([]Conn, 0, 65)
		for i := 0; i < 65; i++ {
			c, err := ListenUDPBatch("127.0.0.1:0", Options{})
			if err != nil {
				t.Fatalf("round %d bind %d: %v", round, i, err)
			}
			conns = append(conns, c)
			addr := c.LocalAddr().String()
			if j, dup := owner[addr]; dup {
				t.Errorf("round %d: binds %d and %d both got %s", round, j, i, addr)
			}
			owner[addr] = i
		}
		for _, c := range conns {
			c.Close()
		}
		if t.Failed() {
			return
		}
	}
}

// TestUDPBatchPlainPathCounts checks the single-datagram surface shares
// the batch path's accounting.
func TestUDPBatchPlainPathCounts(t *testing.T) {
	rx := listenBatch(t, Options{})
	tx := listenBatch(t, Options{})
	if _, err := tx.WriteTo([]byte("one"), rx.LocalAddr()); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	buf := make([]byte, 64)
	rx.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, _, err := rx.ReadFrom(buf)
	if err != nil || string(buf[:n]) != "one" {
		t.Fatalf("ReadFrom = %q, %v", buf[:n], err)
	}
	// The writer counts a send once sendmmsg returns, which can be after
	// the reader has the datagram; Close waits for the writer.
	tx.Close()
	if tx.Stats().WriteCalls.Value() != 1 || tx.Stats().WriteDatagrams.Value() != 1 {
		t.Fatalf("plain WriteTo counted %d calls / %d datagrams, want 1/1",
			tx.Stats().WriteCalls.Value(), tx.Stats().WriteDatagrams.Value())
	}
	if rx.Stats().ReadCalls.Value() != 1 || rx.Stats().ReadDatagrams.Value() != 1 {
		t.Fatalf("plain ReadFrom counted %d calls / %d datagrams, want 1/1",
			rx.Stats().ReadCalls.Value(), rx.Stats().ReadDatagrams.Value())
	}
}

// TestWriteChunksPartial drives the partial-completion loop with a
// transmit stub that accepts a few messages at a time, errors mid-way, or
// stalls, checking offsets resume exactly where the kernel stopped.
func TestWriteChunksPartial(t *testing.T) {
	var offs []int
	sent, err := writeChunks(10, func(off int) (int, error) {
		offs = append(offs, off)
		if off < 7 {
			return 3, nil
		}
		return 10 - off, nil
	})
	if sent != 10 || err != nil {
		t.Fatalf("writeChunks = %d, %v; want 10, nil", sent, err)
	}
	want := []int{0, 3, 6, 9}
	if len(offs) != len(want) {
		t.Fatalf("offsets = %v, want %v", offs, want)
	}
	for i := range want {
		if offs[i] != want[i] {
			t.Fatalf("offsets = %v, want %v", offs, want)
		}
	}

	boom := errors.New("boom")
	sent, err = writeChunks(10, func(off int) (int, error) {
		if off >= 4 {
			return 0, boom
		}
		return 2, nil
	})
	if sent != 4 || !errors.Is(err, boom) {
		t.Fatalf("writeChunks = %d, %v; want 4, boom", sent, err)
	}

	// A zero count without error must stop, not spin.
	sent, err = writeChunks(5, func(off int) (int, error) { return 0, nil })
	if sent != 0 || err != nil {
		t.Fatalf("writeChunks stall = %d, %v; want 0, nil", sent, err)
	}
}

// TestWrapBatch checks the pass-through batcher: per-slot WriteTo order
// and one-datagram reads.
func TestWrapBatch(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	rx := Wrap(pc)
	defer rx.Close()
	pc2, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	tx := Wrap(pc2)
	defer tx.Close()

	out := NewBatch(3)
	for i := range out {
		out[i].Data = []byte{byte('a' + i)}
		out[i].Addr = rx.LocalAddr()
	}
	if sent, err := tx.WriteBatch(out); err != nil || sent != 3 {
		t.Fatalf("WriteBatch = %d, %v", sent, err)
	}
	if tx.Stats().WriteCalls.Value() != 3 {
		t.Fatalf("wrap WriteCalls = %d, want 3 (one per datagram)", tx.Stats().WriteCalls.Value())
	}
	in := NewBatch(3)
	rx.SetReadDeadline(time.Now().Add(5 * time.Second))
	cnt, err := rx.ReadBatch(in)
	if err != nil || cnt != 1 {
		t.Fatalf("wrap ReadBatch = %d, %v; want 1 datagram per call", cnt, err)
	}
}

// TestLargestFrameEveryBackend: the longest frame the codec encodes, a
// traced trigger with a MaxKeyLen key and a MaxValueLen value, is exactly
// wire.MaxFrameLen bytes, the stream's frame bound, and crosses every
// backend byte for byte — udp-batch's receive ring, a stream's frame,
// Wrap's read buffer — with nothing counted as truncated.
// (TestFullBudgetDatagram sends a coalesced datagram of MaxDatagram bytes
// to the two datagram readers.)
func TestLargestFrameEveryBackend(t *testing.T) {
	frame, err := (&wire.Message{Type: wire.TypeTrigger, Seq: 1, Key: strings.Repeat("k", wire.MaxKeyLen),
		Value: bytes.Repeat([]byte{0xA5}, wire.MaxValueLen), Trace: wire.TraceContext{OriginNs: 1}}).MarshalBinary()
	if err != nil || len(frame) != wire.MaxFrameLen || maxFramePayload != wire.MaxFrameLen {
		t.Fatalf("largest frame: %d bytes (%v), want wire.MaxFrameLen %d, the stream's bound %d",
			len(frame), err, wire.MaxFrameLen, maxFramePayload)
	}
	crossed := func(name string, rx Conn, send func() error) {
		t.Helper()
		if err := send(); err != nil {
			t.Fatalf("%s: send: %v", name, err)
		}
		ms := NewBatch(4)
		rx.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, err := rx.ReadBatch(ms)
		if err != nil || n != 1 || !bytes.Equal(ms[0].Data, frame) {
			t.Fatalf("%s: ReadBatch = %d, %v; %d bytes, want the %d-byte frame", name, n, err, len(ms[0].Data), len(frame))
		}
		if got := rx.Stats().Truncated.Value(); got != 0 {
			t.Fatalf("%s: Truncated = %d", name, got)
		}
	}

	rx, tx := listenBatch(t, Options{}), listenBatch(t, Options{})
	crossed("udp-batch", rx, func() error {
		_, err := tx.WriteBatch([]Message{{Data: frame, Addr: rx.LocalAddr()}})
		return err
	})

	srv := newListenerStream(t, "")
	cli := NewStream("largest", nil, Options{})
	defer cli.Close()
	crossed("stream", srv, func() error {
		srvAddr, err := net.ResolveTCPAddr("tcp", srv.LocalAddr().String())
		if err != nil {
			return err
		}
		_, err = cli.WriteTo(frame, srvAddr)
		return err
	})

	pcs := make([]net.PacketConn, 2)
	for i := range pcs {
		if pcs[i], err = net.ListenPacket("udp", "127.0.0.1:0"); err != nil {
			t.Fatalf("listen: %v", err)
		}
		defer pcs[i].Close()
	}
	wrx, wtx := Wrap(pcs[0]), Wrap(pcs[1])
	crossed("wrap", wrx, func() error {
		_, err := wtx.WriteTo(frame, wrx.LocalAddr())
		return err
	})
}
