//go:build linux && (amd64 || arm64)

package transport

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"softstate/internal/telemetry"
	"softstate/internal/wire"
)

// ringState reads the free list: its length, the open sockets that cap
// it, and how many rings have been allocated so far.
func ringState() (free, open, made int) {
	readRings.mu.Lock()
	defer readRings.mu.Unlock()
	return len(readRings.free), readRings.open, readRings.made
}

// holds reports whether data lies in r's buffers: a datagram read into
// one of its slots, or a frame of one.
func holds(r *mmsgRing, data []byte) bool {
	p := uintptr(unsafe.Pointer(unsafe.SliceData(data)))
	base := uintptr(unsafe.Pointer(unsafe.SliceData(r.bufs)))
	return p >= base && p < base+uintptr(len(r.bufs))
}

// waitHome waits until the ring that data was read into is back on the
// free list, that is, until the lane that read it has parked. The check
// takes the free list's lock, so what the lane wrote before it gave the
// ring back is visible to the caller afterwards.
func waitHome(t *testing.T, data []byte) {
	t.Helper()
	home := func() bool {
		readRings.mu.Lock()
		defer readRings.mu.Unlock()
		return slices.ContainsFunc(readRings.free, func(r *mmsgRing) bool { return holds(r, data) })
	}
	for deadline := time.Now().Add(5 * time.Second); !home(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the lane never gave its ring back")
		}
	}
}

func recvWithin(t *testing.T, got <-chan []byte) []byte {
	t.Helper()
	select {
	case d := <-got:
		return d
	case <-time.After(5 * time.Second):
		t.Fatal("no datagram within 5 s")
		return nil
	}
}

// ringBytesMax fences a receive ring's buffers: a lane mid-stride holds
// at most 280,000 B of them, however its slots are cut.
const ringBytesMax = 280_000

// TestRingsFollowDemand: a udp-batch lane borrows a receive ring,
// ringSlots buffers of MaxDatagram bytes within ringBytesMax, only while
// it has datagrams. 64 lanes that each read one datagram and park
// allocate one or two rings between them, not 64; a parked lane holds
// none; a warm lane's read-then-park cycle allocates nothing; and once
// every lane has closed, the free list holds no ring.
func TestRingsFollowDemand(t *testing.T) {
	r := newReadRing()
	if got := len(r.bufs); got != ringSlots*MaxDatagram || got > ringBytesMax || len(r.hs) != ringSlots {
		t.Fatalf("a receive ring holds %d slots, %d bytes of buffers; want %d × %d = %d, at most %d",
			len(r.hs), got, ringSlots, MaxDatagram, ringSlots*MaxDatagram, ringBytesMax)
	}
	free, open, made0 := ringState()
	if free != 0 || open != 0 {
		t.Fatalf("before the test: %d rings free, %d udp-batch sockets open; want none", free, open)
	}

	const lanes = 64
	rxs := make([]Conn, lanes)
	var wg sync.WaitGroup
	got, quit := make(chan []byte), make(chan struct{})
	closeAll := sync.OnceFunc(func() {
		close(quit)
		for _, c := range rxs {
			if c != nil {
				c.Close()
			}
		}
		wg.Wait()
	})
	defer closeAll()
	for i := range rxs {
		c, err := ListenUDPBatch("127.0.0.1:0", Options{})
		if err != nil {
			t.Fatal(err)
		}
		rxs[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			ms := NewBatch(0)
			for {
				if _, err := c.ReadBatch(ms); err != nil {
					return
				}
				select {
				case got <- ms[0].Data:
				case <-quit:
					return
				}
			}
		}()
	}

	tx, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	for i, c := range rxs {
		if _, err := tx.WriteTo([]byte("ping"), c.LocalAddr()); err != nil {
			t.Fatal(err)
		}
		d := recvWithin(t, got)
		if string(d) != "ping" {
			t.Fatalf("lane %d read %q", i, d)
		}
		waitHome(t, d)
	}
	free, _, made := ringState()
	if made-made0 > 4 {
		t.Fatalf("%d lanes that each read one datagram allocated %d rings, want at most 4", lanes, made-made0)
	}
	if free != made-made0 {
		t.Fatalf("%d of the %d rings allocated are on the free list: a parked lane holds the rest", free, made-made0)
	}

	// A warm lane: one datagram in, read, and the lane parks again. The
	// receive has no timeout of its own (a timer would allocate); the test
	// binary's -timeout bounds it.
	peer, err := net.DialUDP("udp", nil, rxs[0].LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	ping := []byte("ping")
	cycle := func() {
		if _, err := peer.Write(ping); err != nil {
			t.Fatal(err)
		}
		waitHome(t, <-got)
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("a warm lane's read-then-park cycle allocates %v times, want 0", allocs)
	}

	closeAll()
	if free, open, _ := ringState(); free != 0 || open != 0 {
		t.Fatalf("after every lane closed: %d rings free, %d sockets open; want none", free, open)
	}
}

// TestLentRingIsStable: the frame a lane was handed stays byte for byte
// what it read while seven other lanes read 1,000 strides through the free
// list, until that lane's own next ReadBatch. The frame is the first of
// seven a udp-batch writer coalesced into one datagram, read through a
// one-slot batch: the ring is not given back while the other six wait in
// it, and the next six ReadBatch calls deliver them from it. Only the call
// after those goes to the kernel, finds nothing, and clears the lane's
// slots before the ring goes back. A ring given back when ReadBatch
// returns is lent to the next lane to wake and overwritten.
func TestLentRingIsStable(t *testing.T) {
	const others = 7
	var lanes [1 + others]Conn
	for i := range lanes {
		lanes[i] = listenBatch(t, Options{})
	}
	tx, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	payload := func(lane, stride int) []byte {
		p := bytes.Repeat([]byte{byte(0x10 * lane)}, 512)
		p[0], p[1] = byte(stride>>8), byte(stride)
		return p
	}

	var wg sync.WaitGroup
	quit := make(chan struct{})
	defer func() {
		close(quit)
		for _, c := range lanes {
			c.Close()
		}
		wg.Wait()
	}()

	// Lane 0 reads one frame, holds it, and reads the other six and then
	// once more only when told. delivered is lane 0's own count.
	const coalesced = 7
	ms0 := NewBatch(1)
	held, again, rest := make(chan []byte, 1), make(chan struct{}), make(chan []byte, coalesced-1)
	delivered := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		if n, err := lanes[0].ReadBatch(ms0); err != nil || n != 1 {
			held <- nil
			return
		}
		delivered++
		held <- ms0[0].Data
		select {
		case <-again:
			for range coalesced - 1 {
				if n, err := lanes[0].ReadBatch(ms0); err != nil || n != 1 {
					rest <- nil
					return
				}
				delivered++
				rest <- bytes.Clone(ms0[0].Data)
			}
			lanes[0].ReadBatch(ms0) // parks until the lane closes
		case <-quit:
		}
	}()
	txb := listenBatch(t, Options{})
	frames := make([]Message, coalesced)
	for i := range frames {
		frames[i] = Message{Data: payload(0, i), Addr: lanes[0].LocalAddr()}
	}
	if _, err := txb.WriteBatch(frames); err != nil {
		t.Fatal(err)
	}
	if got := txb.Stats().WriteDatagrams.Value(); got != 1 {
		t.Fatalf("%d frames to one peer left in %d datagrams, want 1", coalesced, got)
	}
	want := payload(0, 0)
	var data []byte
	select {
	case data = <-held:
	case <-time.After(5 * time.Second):
		t.Fatal("lane 0 read nothing")
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("lane 0 read %d bytes, want its first 512-byte frame", len(data))
	}

	// When lane 0's ring goes back, lane 0 must have taken every frame and
	// its slots must already be clear. The hook runs under the free list's
	// lock, on lane 0's goroutine, so delivered is lane 0's own and early
	// and dirty are read under the lock.
	early, dirty := false, false
	readRings.mu.Lock()
	readRings.onPut = func(r *mmsgRing) {
		if !holds(r, data) {
			return
		}
		early = early || delivered < coalesced
		if slices.ContainsFunc(ms0, func(m Message) bool { return m.Data != nil }) {
			dirty = true
		}
	}
	readRings.mu.Unlock()
	defer func() {
		readRings.mu.Lock()
		readRings.onPut = nil
		readRings.mu.Unlock()
	}()

	// The other lanes read 1,000 strides, seven at a time.
	type stride struct {
		lane int
		d    []byte
	}
	got := make(chan stride)
	for i := 1; i <= others; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ms := NewBatch(0)
			for {
				n, err := lanes[i].ReadBatch(ms)
				if err != nil {
					return
				}
				for _, m := range ms[:n] {
					select {
					case got <- stride{i, bytes.Clone(m.Data)}:
					case <-quit:
						return
					}
				}
			}
		}()
	}
	for s := 0; s < 1000; s += others {
		for i := 1; i <= others; i++ {
			if _, err := tx.WriteTo(payload(i, s), lanes[i].LocalAddr()); err != nil {
				t.Fatal(err)
			}
		}
		for range others {
			select {
			case r := <-got:
				if !bytes.Equal(r.d, payload(r.lane, s)) {
					t.Fatalf("stride %d: lane %d read a datagram that is not its own", s, r.lane)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("stride %d: a lane read nothing", s)
			}
		}
		if !bytes.Equal(data, want) {
			t.Fatalf("after %d strides of the other lanes, lane 0's datagram changed", s+others)
		}
	}

	// Lane 0's next six ReadBatch calls deliver the frames left in its
	// ring; the one after finds nothing, clears its slots, and parks.
	close(again)
	for i := 1; i < coalesced; i++ {
		select {
		case d := <-rest:
			if !bytes.Equal(d, payload(0, i)) {
				t.Fatalf("lane 0's frame %d: %d bytes, not the frame written", i, len(d))
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("lane 0 read %d of its %d frames", i, coalesced)
		}
	}
	waitHome(t, data)
	readRings.mu.Lock()
	defer readRings.mu.Unlock()
	if early {
		t.Fatal("lane 0's ring went back while frames were still waiting in it")
	}
	if dirty {
		t.Fatal("lane 0's ring went back while lane 0's slots still pointed into it")
	}
	for i, m := range ms0 {
		if m.Data != nil || m.Addr != nil {
			t.Fatalf("lane 0 parked with slot %d still set", i)
		}
	}
}

// frameOf is a size-byte frame: the wire version, then fill.
func frameOf(size int, fill byte) []byte {
	b := bytes.Repeat([]byte{fill}, size)
	b[0] = wire.Version
	return b
}

// readRaw reads n datagrams from a plain kernel socket, exactly as they
// crossed.
func readRaw(t *testing.T, pc *net.UDPConn, n int) [][]byte {
	t.Helper()
	pc.SetReadDeadline(time.Now().Add(5 * time.Second))
	out := make([][]byte, n)
	buf := make([]byte, 1<<16)
	for i := range out {
		m, _, err := pc.ReadFrom(buf)
		if err != nil {
			t.Fatalf("datagram %d of %d: %v", i, n, err)
		}
		out[i] = bytes.Clone(buf[:m])
	}
	return out
}

// TestCoalescingBudget: with route MTUs injected, a run of frames to one
// peer is packed into datagrams of at most min(MaxDatagram, MTU − 28)
// bytes, or 1,232 when the probe fails; a frame that cannot share goes
// out alone, byte for byte. The probe runs once per destination IP.
func TestCoalescingBudget(t *testing.T) {
	rx, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	rx.SetReadBuffer(4 << 20) // three full datagrams queue at once
	fail := errors.New("no route")
	repeat := func(size, n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = size
		}
		return out
	}
	for _, c := range []struct {
		name  string
		mtu   int
		err   error
		sizes []int
		want  []int // frames per datagram
	}{
		{"mtu 1400: 1.2 KB frames travel alone", 1400, nil, repeat(1200, 4), []int{1, 1, 1, 1}},
		// 1 + 14 × (2 + 4,677) is 65,507 B exactly; one byte more per
		// frame leaves room for 13.
		{"mtu 65535: capped at MaxDatagram", 65535, nil, repeat(4677, 32), []int{14, 14, 4}},
		{"mtu 65535: a byte more per frame, one frame fewer", 65535, nil, repeat(4678, 28), []int{13, 13, 2}},
		{"failed probe: 1,232 B holds two 613 B frames", 0, fail, repeat(613, 4), []int{2, 2}},
		{"failed probe: not two 614 B frames", 0, fail, repeat(614, 3), []int{1, 1, 1}},
		{"a frame over the budget goes alone", 0, fail, []int{100, 2000, 100, 100}, []int{1, 1, 2}},
	} {
		t.Run(c.name, func(t *testing.T) {
			tx := listenBatch(t, Options{}).(*batchConn)
			probes := 0
			tx.mtu = func(*net.UDPAddr) (int, error) { probes++; return c.mtu, c.err }
			budget := payloadBudget(c.mtu, c.err, false)
			ms := make([]Message, len(c.sizes))
			for i, size := range c.sizes {
				ms[i] = Message{Data: frameOf(size, byte(i)), Addr: rx.LocalAddr()}
			}
			for range 2 {
				if n, err := tx.WriteBatch(ms); err != nil || n != len(ms) {
					t.Fatalf("WriteBatch = %d, %v", n, err)
				}
				f := 0
				for d, dg := range readRaw(t, rx, len(c.want)) {
					k := c.want[d]
					if k == 1 {
						if !bytes.Equal(dg, ms[f].Data) {
							t.Fatalf("datagram %d: %d bytes, want frame %d as itself", d, len(dg), f)
						}
						f++
						continue
					}
					if len(dg) > budget {
						t.Fatalf("datagram %d: %d bytes over the %d-byte budget", d, len(dg), budget)
					}
					var fc frameCursor
					if !fc.load(dg, nil) || dg[0] != coalescedMark {
						t.Fatalf("datagram %d: not a coalesced datagram", d)
					}
					for m := (Message{}); fc.next(&m); f++ {
						if !bytes.Equal(m.Data, ms[f].Data) {
							t.Fatalf("datagram %d: frame %d changed", d, f)
						}
						k--
					}
					if k != 0 {
						t.Fatalf("datagram %d carries %d frames, want %d", d, c.want[d]-k, c.want[d])
					}
				}
			}
			if probes != 1 {
				t.Fatalf("the route MTU was probed %d times for one IP, want once", probes)
			}
			st := tx.Stats()
			if st.WriteFrames.Value() != int64(2*len(ms)) || st.WriteDatagrams.Value() != int64(2*len(c.want)) {
				t.Fatalf("WriteFrames %d, WriteDatagrams %d; want %d, %d",
					st.WriteFrames.Value(), st.WriteDatagrams.Value(), 2*len(ms), 2*len(c.want))
			}
			// Every case lays out several datagrams per batch, and all of
			// them leave in one sendmmsg.
			if st.WriteCalls.Value() != 2 {
				t.Fatalf("WriteCalls = %d for %d datagrams, want 2: one sendmmsg per WriteBatch",
					st.WriteCalls.Value(), st.WriteDatagrams.Value())
			}
		})
	}
}

// TestLoopbackBatchIsOneDatagram: on a real loopback route, 127.0.0.1 and
// ::1, a 32-frame WriteBatch of summary-sized frames leaves as one kernel
// datagram, and the reader sees every frame in order.
func TestLoopbackBatchIsOneDatagram(t *testing.T) {
	for _, c := range []struct {
		name   string
		listen func(*testing.T) Conn
	}{
		{"127.0.0.1", func(t *testing.T) Conn { return listenBatch(t, Options{}) }},
		{"::1", listenBatch6},
	} {
		t.Run(c.name, func(t *testing.T) {
			rx := c.listen(t)
			tx := c.listen(t)
			ms := make([]Message, DefaultBatchSize)
			for i := range ms {
				ms[i] = Message{Data: frameOf(1200, byte(i)), Addr: rx.LocalAddr()}
			}
			if n, err := tx.WriteBatch(ms); err != nil || n != len(ms) {
				t.Fatalf("WriteBatch = %d, %v", n, err)
			}
			if got := tx.Stats().WriteDatagrams.Value(); got != 1 {
				t.Fatalf("%d frames to one loopback peer left in %d datagrams, want 1", len(ms), got)
			}
			in := NewBatch(0)
			rx.SetReadDeadline(time.Now().Add(5 * time.Second))
			for f := 0; f < len(ms); {
				n, err := rx.ReadBatch(in)
				if err != nil {
					t.Fatalf("read %d of %d frames: %v", f, len(ms), err)
				}
				for _, m := range in[:n] {
					if !bytes.Equal(m.Data, ms[f].Data) {
						t.Fatalf("frame %d: %d bytes, not the frame written", f, len(m.Data))
					}
					f++
				}
			}
		})
	}
}

// TestFullBudgetDatagram: a coalesced datagram of exactly MaxDatagram
// bytes, the budget of a 65,535-byte route, crosses both datagram readers,
// udp-batch and Wrap, every frame whole and nothing counted as truncated
// or malformed.
func TestFullBudgetDatagram(t *testing.T) {
	const frames, size = 14, 4677
	if 1+frames*(lenPrefix+size) != MaxDatagram {
		t.Fatalf("%d frames of %d B do not fill MaxDatagram", frames, size)
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wrx := Wrap(pc)
	defer wrx.Close()
	for _, rx := range []Conn{listenBatch(t, Options{}), wrx} {
		tx := listenBatch(t, Options{}).(*batchConn)
		tx.mtu = func(*net.UDPAddr) (int, error) { return 65535, nil }
		ms := make([]Message, frames)
		for i := range ms {
			ms[i] = Message{Data: frameOf(size, byte(i)), Addr: rx.LocalAddr()}
		}
		if _, err := tx.WriteBatch(ms); err != nil {
			t.Fatal(err)
		}
		if got := tx.Stats().WriteDatagrams.Value(); got != 1 {
			t.Fatalf("%d frames filling the budget left in %d datagrams, want 1", frames, got)
		}
		in := NewBatch(0)
		rx.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, err := rx.ReadBatch(in)
		if err != nil || n != frames {
			t.Fatalf("%T: ReadBatch = %d, %v; want the datagram's %d frames", rx, n, err, frames)
		}
		for i := range ms {
			if !bytes.Equal(in[i].Data, ms[i].Data) {
				t.Fatalf("%T: frame %d: %d bytes, not the frame written", rx, i, len(in[i].Data))
			}
		}
		if st := rx.Stats(); st.Truncated.Value() != 0 || st.Malformed.Value() != 0 {
			t.Fatalf("%T: Truncated %d, Malformed %d; want none", rx, st.Truncated.Value(), st.Malformed.Value())
		}
	}
}

// TestRingHoldsFourBatches: one recvmmsg fills the ring's four slots with
// four queued 32-frame datagrams, and four 32-slot ReadBatch calls
// deliver their 128 frames in order from it.
func TestRingHoldsFourBatches(t *testing.T) {
	rx, tx := listenBatch(t, Options{}), listenBatch(t, Options{})
	const batches = ringSlots
	frame := func(b, i int) []byte {
		f := frameOf(100, byte(i))
		f[1], f[2] = byte(b), byte(i)
		return f
	}
	ms := make([]Message, DefaultBatchSize)
	for b := range batches {
		for i := range ms {
			ms[i] = Message{Data: frame(b, i), Addr: rx.LocalAddr()}
		}
		if _, err := tx.WriteBatch(ms); err != nil {
			t.Fatal(err)
		}
	}
	if got := tx.Stats().WriteDatagrams.Value(); got != batches {
		t.Fatalf("%d batches left in %d datagrams, want %d", batches, got, batches)
	}
	in := NewBatch(DefaultBatchSize)
	rx.SetReadDeadline(time.Now().Add(5 * time.Second))
	for b := range batches {
		n, err := rx.ReadBatch(in)
		if err != nil || n != DefaultBatchSize {
			t.Fatalf("call %d: ReadBatch = %d, %v; want %d frames", b, n, err, DefaultBatchSize)
		}
		for i, m := range in[:n] {
			if !bytes.Equal(m.Data, frame(b, i)) {
				t.Fatalf("call %d, frame %d: not batch %d's frame %d", b, i, b, i)
			}
		}
	}
	st := rx.Stats()
	if st.ReadCalls.Value() != 1 || st.ReadDatagrams.Value() != batches {
		t.Fatalf("ReadCalls %d, ReadDatagrams %d; want one recvmmsg of %d datagrams",
			st.ReadCalls.Value(), st.ReadDatagrams.Value(), batches)
	}
}

// TestBudgetCacheBounded: the budget cache probes each destination IP
// once while it holds it, and never holds more than maxBudgets IPs.
func TestBudgetCacheBounded(t *testing.T) {
	tx := listenBatch(t, Options{}).(*batchConn)
	probes := 0
	tx.mtu = func(*net.UDPAddr) (int, error) { probes++; return 1500, nil }
	ip := func(i int) *net.UDPAddr {
		return &net.UDPAddr{IP: net.IPv4(10, 0, byte(i>>8), byte(i)), Port: 9}
	}
	for i := 0; i < maxBudgets; i++ {
		if b := tx.budget(ip(i)); b != 1500-ipv4Overhead {
			t.Fatalf("budget = %d, want %d", b, 1500-ipv4Overhead)
		}
		tx.budget(ip(i))
	}
	if probes != maxBudgets || len(tx.budgets) != maxBudgets {
		t.Fatalf("%d IPs: %d probes, %d cached; want %d each", maxBudgets, probes, len(tx.budgets), maxBudgets)
	}
	for i := maxBudgets; i < 4*maxBudgets; i++ {
		tx.budget(ip(i))
		if len(tx.budgets) > maxBudgets {
			t.Fatalf("%d IPs: %d cached, want at most %d", i+1, len(tx.budgets), maxBudgets)
		}
	}
}

// TestRouteMTU: the kernel answers the probe for loopback.
func TestRouteMTU(t *testing.T) {
	mtu, err := routeMTU(&net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9})
	if err != nil || mtu < 1280 {
		t.Fatalf("routeMTU(127.0.0.1) = %d, %v; want at least 1,280", mtu, err)
	}
}

// TestCoalescedToWrapReader: a udp-batch writer's coalesced datagrams
// reach a plain socket behind Wrap — the backend ListenUDPBatch is on
// other platforms — frame for frame, through ReadBatch and through
// ReadFrom.
func TestCoalescedToWrapReader(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rx := Wrap(pc)
	defer rx.Close()
	tx := listenBatch(t, Options{})
	ms := make([]Message, 7)
	for i := range ms {
		ms[i] = Message{Data: frameOf(1200, byte(i)), Addr: rx.LocalAddr()}
	}
	rx.SetReadDeadline(time.Now().Add(5 * time.Second))

	if _, err := tx.WriteBatch(ms); err != nil {
		t.Fatal(err)
	}
	in := NewBatch(0)
	n, err := rx.ReadBatch(in)
	if err != nil || n != len(ms) {
		t.Fatalf("ReadBatch = %d, %v; want the datagram's %d frames", n, err, len(ms))
	}
	for i := range ms {
		if !bytes.Equal(in[i].Data, ms[i].Data) || in[i].Addr.String() != tx.LocalAddr().String() {
			t.Fatalf("ReadBatch frame %d: %d bytes from %v", i, len(in[i].Data), in[i].Addr)
		}
	}

	if _, err := tx.WriteBatch(ms); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, MaxDatagram)
	for i := range ms {
		n, from, err := rx.ReadFrom(buf)
		if err != nil || !bytes.Equal(buf[:n], ms[i].Data) || from.String() != tx.LocalAddr().String() {
			t.Fatalf("ReadFrom frame %d: %d bytes from %v, %v", i, n, from, err)
		}
	}
	st := rx.Stats()
	if st.ReadDatagrams.Value() != 2 || st.ReadFrames.Value() != 14 || tx.Stats().WriteDatagrams.Value() != 2 {
		t.Fatalf("datagrams written %d, read %d, frames read %d; want 2, 2, 14",
			tx.Stats().WriteDatagrams.Value(), st.ReadDatagrams.Value(), st.ReadFrames.Value())
	}
}

// TestCursorDrainsOneSlot: a one-slot ReadBatch drains a seven-frame
// datagram in seven calls over one recvmmsg, and the whole write-then-
// drain cycle allocates nothing.
func TestCursorDrainsOneSlot(t *testing.T) {
	rx, tx := listenBatch(t, Options{}), listenBatch(t, Options{})
	ms := make([]Message, 7)
	for i := range ms {
		ms[i] = Message{Data: frameOf(512, byte(i)), Addr: rx.LocalAddr()}
	}
	in := NewBatch(1)
	cycle := func() {
		if _, err := tx.WriteBatch(ms); err != nil {
			t.Fatal(err)
		}
		for i := range ms {
			if n, err := rx.ReadBatch(in); err != nil || n != 1 || !bytes.Equal(in[0].Data, ms[i].Data) {
				t.Fatalf("call %d: %d frames, %v", i, n, err)
			}
		}
	}
	cycle() // the route probe and the ring's first loan
	st := rx.Stats()
	calls, dgrams := st.ReadCalls.Value(), st.ReadDatagrams.Value()
	cycle()
	if got := st.ReadCalls.Value() - calls; got != 1 {
		t.Fatalf("seven one-slot reads of one datagram made %d recvmmsg calls, want 1", got)
	}
	if got := st.ReadDatagrams.Value() - dgrams; got != 1 {
		t.Fatalf("ReadDatagrams grew by %d, want 1", got)
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("a write of seven frames and their seven reads allocate %v times, want 0", allocs)
	}
}

// TestMalformedCounted: a datagram the ring cannot deliver is counted,
// never skipped in silence, and the intact datagram behind it still
// arrives. Each case stands in slot 0 of a lent ring, an intact frame in
// slot 1.
func TestMalformedCounted(t *testing.T) {
	good := coalesce([]Message{{Data: frameOf(8, 1)}, {Data: frameOf(8, 2)}}, MaxDatagram)[0]
	for _, c := range []struct {
		name      string
		data      []byte
		sa        []byte // the source sockaddr; nil for a loopback one
		trunc     bool
		malformed int64
		truncated int64
	}{
		{"undecodable source family", frameOf(8, 0), []byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, false, 1, 0},
		{"source too short", frameOf(8, 0), []byte{syscall.AF_INET, 0}, false, 1, 0},
		{"length past the end", []byte{coalescedMark, 0, 9, wire.Version}, nil, false, 1, 0},
		{"empty frame", []byte{coalescedMark, 0, 0, 0, 1, wire.Version}, nil, false, 1, 0},
		{"trailing byte", append(bytes.Clone(good), 0), nil, false, 1, 0},
		{"mark alone", []byte{coalescedMark}, nil, false, 1, 0},
		{"truncated", frameOf(8, 0), nil, true, 0, 1},
		{"well formed", good, nil, false, 0, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			bc := listenBatch(t, Options{}).(*batchConn)
			bc.rmu.Lock()
			defer bc.rmu.Unlock()
			bc.rr = readRings.get()
			defer bc.releaseRing()
			var lo [syscall.SizeofSockaddrAny]byte
			salen := encodeSockaddr(&lo, &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9})
			put := func(i int, data, sa []byte, trunc bool) {
				h := &bc.rr.hs[i]
				h.n = uint32(copy(bc.rr.buf(i), data))
				if sa == nil {
					sa = lo[:salen]
				}
				h.hdr.Namelen = uint32(copy(bc.rr.sas[i][:], sa))
				h.hdr.Flags = 0
				if trunc {
					h.hdr.Flags = syscall.MSG_TRUNC
				}
			}
			put(0, c.data, c.sa, c.trunc)
			put(1, []byte("intact"), nil, false)
			bc.rcnt, bc.rnext = 2, 0
			ms := NewBatch(4)
			n := bc.deliver(ms)
			if n == 0 || string(ms[n-1].Data) != "intact" {
				t.Fatalf("delivered %d frames, the last not the intact datagram", n)
			}
			if c.name == "well formed" && n != 3 {
				t.Fatalf("a well-formed datagram delivered %d frames, want 2", n-1)
			}
			if got := bc.st.Malformed.Value(); got != c.malformed {
				t.Fatalf("Malformed = %d, want %d", got, c.malformed)
			}
			if got := bc.st.Truncated.Value(); got != c.truncated {
				t.Fatalf("Truncated = %d, want %d", got, c.truncated)
			}
		})
	}
}

// TestConcurrentWriteBatch: two goroutines write coalescing batches on one
// conn while its peer reads; every frame arrives whole (run under -race).
func TestConcurrentWriteBatch(t *testing.T) {
	rx, tx := listenBatch(t, Options{}), listenBatch(t, Options{})
	const writers, batches = 2, 8
	frame := func(w, b, i int) []byte {
		f := frameOf(100, byte(w<<4|i%16))
		f[1], f[2], f[3] = byte(w), byte(b), byte(i)
		return f
	}
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ms := make([]Message, DefaultBatchSize)
			for b := range batches {
				for i := range ms {
					ms[i] = Message{Data: frame(w, b, i), Addr: rx.LocalAddr()}
				}
				if _, err := tx.WriteBatch(ms); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	seen := make(map[[3]byte]bool)
	in := NewBatch(0)
	rx.SetReadDeadline(time.Now().Add(5 * time.Second))
	for len(seen) < writers*batches*DefaultBatchSize {
		n, err := rx.ReadBatch(in)
		if err != nil {
			t.Fatalf("read %d of %d frames: %v", len(seen), writers*batches*DefaultBatchSize, err)
		}
		for _, m := range in[:n] {
			id := [3]byte{m.Data[1], m.Data[2], m.Data[3]}
			if !bytes.Equal(m.Data, frame(int(id[0]), int(id[1]), int(id[2]))) || seen[id] {
				t.Fatalf("frame %v arrived damaged or twice", id)
			}
			seen[id] = true
		}
	}
	wg.Wait()
}

// writeRingState reads the write rings' free list: its length, the open
// sockets that cap it, and how many rings have been allocated so far.
func writeRingState() (free, open, made int) {
	writeRings.mu.Lock()
	defer writeRings.mu.Unlock()
	return len(writeRings.free), writeRings.open, writeRings.made
}

// TestWriteRingsFollowWriters: a udp-batch writer borrows a write ring for
// one WriteBatch only. When WriteBatch returns, the conn keeps no view of
// it and the free list has it back with no iovec left pointing at a
// caller's frame; writers on four conns at once allocate at most four
// rings between them; a warm WriteBatch allocates nothing; and once every
// socket has closed, the free list holds no ring.
func TestWriteRingsFollowWriters(t *testing.T) {
	free, open, made0 := writeRingState()
	if free != 0 || open != 0 {
		t.Fatalf("before the test: %d write rings free, %d udp-batch sockets open; want none", free, open)
	}
	const writers, batches = 4, 50
	rx, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	txs := make([]*batchConn, writers)
	for i := range txs {
		c, err := ListenUDPBatch("127.0.0.1:0", Options{})
		if err != nil {
			t.Fatal(err)
		}
		txs[i] = c.(*batchConn)
	}
	closeAll := sync.OnceFunc(func() {
		for _, c := range txs {
			c.Close()
		}
	})
	defer closeAll()
	// Nobody reads rx: the kernel drops what overflows its buffer, and
	// the writers never wait for it.
	batch := func() []Message {
		ms := make([]Message, 3*DefaultBatchSize)
		for i := range ms {
			ms[i] = Message{Data: frameOf(64, byte(i)), Addr: rx.LocalAddr()}
		}
		return ms
	}
	var wg sync.WaitGroup
	for _, c := range txs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ms := batch()
			for range batches {
				if _, err := c.WriteBatch(ms); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	free, _, made := writeRingState()
	if made-made0 > writers {
		t.Fatalf("%d concurrent writers allocated %d write rings, want at most %d", writers, made-made0, writers)
	}
	if free != made-made0 {
		t.Fatalf("%d of the %d write rings allocated are on the free list after every WriteBatch returned", free, made-made0)
	}
	writeRings.mu.Lock()
	for _, r := range writeRings.free {
		for i := range r.iovs {
			if r.iovs[i].Base != nil {
				writeRings.mu.Unlock()
				t.Fatalf("a free write ring's iovec %d still points at a caller's bytes", i)
			}
		}
	}
	writeRings.mu.Unlock()
	for i, c := range txs {
		if c.whs != nil {
			t.Fatalf("conn %d still holds the headers of its last sendmmsg", i)
		}
	}

	ms := batch()
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := txs[0].WriteBatch(ms); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a warm WriteBatch allocates %v times, want 0", allocs)
	}

	closeAll()
	if free, open, _ := writeRingState(); free != 0 || open != 0 {
		t.Fatalf("after every socket closed: %d write rings free, %d sockets open; want none", free, open)
	}
}

// TestFullWriteRingToOnePeer: a whole write ring of the shortest frames,
// MaxWriteBatch of one byte each, to one peer is one coalesced datagram of
// 2 × MaxWriteBatch iovecs, within the kernel's UIO_MAXIOV, sent in one
// sendmmsg; every frame arrives, in order.
func TestFullWriteRingToOnePeer(t *testing.T) {
	rx, tx := listenBatch(t, Options{}), listenBatch(t, Options{})
	ms := make([]Message, MaxWriteBatch)
	for i := range ms {
		ms[i] = Message{Data: []byte{byte(i)}, Addr: rx.LocalAddr()}
	}
	if n, err := tx.WriteBatch(ms); err != nil || n != len(ms) {
		t.Fatalf("WriteBatch = %d, %v; want %d", n, err, len(ms))
	}
	if st := tx.Stats(); st.WriteCalls.Value() != 1 || st.WriteDatagrams.Value() != 1 {
		t.Fatalf("%d one-byte frames to one peer: %d sendmmsg calls, %d datagrams; want 1 and 1",
			len(ms), st.WriteCalls.Value(), st.WriteDatagrams.Value())
	}
	in := NewBatch(0)
	rx.SetReadDeadline(time.Now().Add(5 * time.Second))
	for f := 0; f < len(ms); {
		n, err := rx.ReadBatch(in)
		if err != nil {
			t.Fatalf("read %d of %d frames: %v", f, len(ms), err)
		}
		for _, m := range in[:n] {
			if !bytes.Equal(m.Data, ms[f].Data) {
				t.Fatalf("frame %d reads %x, want %x", f, m.Data, ms[f].Data)
			}
			f++
		}
	}
}

// numbered is a frame of size bytes whose bytes 1–2 carry n.
func numbered(n, size int) []byte {
	f := frameOf(size, byte(n))
	f[1], f[2] = byte(n>>8), byte(n)
	return f
}

// readNumbers reads frames from rx until it holds want of them, and
// returns their numbers in arrival order.
func readNumbers(t *testing.T, rx Conn, want int) []int {
	t.Helper()
	var got []int
	in := NewBatch(0)
	rx.SetReadDeadline(time.Now().Add(5 * time.Second))
	for len(got) < want {
		n, err := rx.ReadBatch(in)
		if err != nil {
			t.Fatalf("read %d of %d frames: %v", len(got), want, err)
		}
		for _, m := range in[:n] {
			got = append(got, int(m.Data[1])<<8|int(m.Data[2]))
		}
	}
	return got
}

// TestQueuedWritesKeepCallOrder: one goroutine's WriteTo calls and the
// WriteBatch after them reach each reader in call order, both for a run to
// one peer and for frames that alternate between two peers. WriteBatch
// sends the queue before its own batch even when it wins the socket from
// the writer, which is what the test's held-back writer provokes.
func TestQueuedWritesKeepCallOrder(t *testing.T) {
	rxs := []Conn{listenBatch(t, Options{}), listenBatch(t, Options{})}
	tx := listenBatch(t, Options{}).(*batchConn)
	var want [2][]int
	n := 0
	send := func(peer int) Message {
		m := Message{Data: numbered(n, 40), Addr: rxs[peer].LocalAddr()}
		want[peer] = append(want[peer], n)
		n++
		return m
	}
	// Eight rounds of 30 never fill the queue, even if the writer never
	// wins the socket back from the test.
	for round := range 8 {
		tx.wmu.Lock() // the writer waits: the queue fills behind it
		for i := range 30 {
			peer := 0
			if round%2 == 1 {
				peer = i % 2 // interleaved peers
			}
			m := send(peer)
			if _, err := tx.WriteTo(m.Data, m.Addr); err != nil {
				tx.wmu.Unlock()
				t.Fatal(err)
			}
		}
		tx.wmu.Unlock()
		batch := []Message{send(0), send(1), send(0), send(0)}
		if k, err := tx.WriteBatch(batch); err != nil || k != len(batch) {
			t.Fatalf("WriteBatch = %d, %v", k, err)
		}
	}
	for peer, rx := range rxs {
		if got := readNumbers(t, rx, len(want[peer])); !slices.Equal(got, want[peer]) {
			t.Fatalf("peer %d received %v,\nwant %v", peer, got, want[peer])
		}
	}
}

// TestQueuedRunIsOneDatagram: frames WriteTo queues while the writer is
// held back leave together, a run to one loopback peer as one datagram in
// one sendmmsg, every frame whole and in order.
func TestQueuedRunIsOneDatagram(t *testing.T) {
	rx := listenBatch(t, Options{})
	tx := listenBatch(t, Options{}).(*batchConn)
	const frames = 100
	tx.wmu.Lock()
	for i := range frames {
		if _, err := tx.WriteTo(numbered(i, 40), rx.LocalAddr()); err != nil {
			tx.wmu.Unlock()
			t.Fatal(err)
		}
	}
	tx.wmu.Unlock()
	got := readNumbers(t, rx, frames)
	for i, n := range got {
		if n != i {
			t.Fatalf("frame %d arrived as number %d", i, n)
		}
	}
	tx.Close() // waits for the writer, so its counts are final
	if st := tx.Stats(); st.WriteCalls.Value() != 1 || st.WriteDatagrams.Value() != 1 || st.WriteFrames.Value() != frames {
		t.Fatalf("%d queued frames to one peer: %d sendmmsg calls, %d datagrams, %d frames; want 1, 1, %d",
			frames, st.WriteCalls.Value(), st.WriteDatagrams.Value(), st.WriteFrames.Value(), frames)
	}
}

// TestFullQueueSentByProducer: a WriteTo that finds the queue full sends it
// before queuing its own frame, and producers racing the writer with the
// largest frames never make a queue hold more than MaxWriteBatch frames or
// allocate more than queueBytesMax bytes.
func TestFullQueueSentByProducer(t *testing.T) {
	rx, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close() // nobody reads it: the kernel drops what overflows
	tx := listenBatch(t, Options{}).(*batchConn)
	to := rx.LocalAddr()

	// A full queue the writer was never told of: only a producer can send it.
	tx.qmu.Lock()
	for i := range MaxWriteBatch {
		tx.q.push(numbered(i, 16), to)
	}
	tx.qmu.Unlock()
	if _, err := tx.WriteTo(numbered(MaxWriteBatch, 16), to); err != nil {
		t.Fatal(err)
	}
	if got := tx.st.WriteFrames.Value(); got < MaxWriteBatch {
		t.Fatalf("WriteTo returned with %d frames sent, want the full queue's %d first", got, MaxWriteBatch)
	}

	const producers, each = 4, 200
	check := func() {
		tx.qmu.Lock()
		defer tx.qmu.Unlock()
		if len(tx.q.ms) > MaxWriteBatch || cap(tx.q.data) > queueBytesMax {
			t.Errorf("queue holds %d frames in %d bytes of storage, over %d and %d",
				len(tx.q.ms), cap(tx.q.data), MaxWriteBatch, queueBytesMax)
		}
	}
	var wg sync.WaitGroup
	for p := range producers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				if _, err := tx.WriteTo(frameOf(wire.MaxFrameLen, byte(p+i)), to); err != nil {
					t.Error(err)
					return
				}
				check()
			}
		}()
	}
	wg.Wait()
	tx.Close()
	check()
	tx.wmu.Lock()
	if cap(tx.out.data) > queueBytesMax {
		t.Errorf("the sent queue kept %d bytes of storage, over %d", cap(tx.out.data), queueBytesMax)
	}
	tx.wmu.Unlock()
	if got, want := tx.st.WriteFrames.Value(), int64(MaxWriteBatch+1+producers*each); got != want || tx.st.WriteFailed.Value() != 0 {
		t.Fatalf("%d frames sent, %d failed; want %d and none", got, tx.st.WriteFailed.Value(), want)
	}
}

// TestCloseSendsQueue: Close sends what is queued, even frames the writer
// was never told of, refuses later writes with net.ErrClosed, and leaves
// no goroutine of the socket's behind.
func TestCloseSendsQueue(t *testing.T) {
	rx, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	base := runtime.NumGoroutine()
	c, err := ListenUDPBatch("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	tx := c.(*batchConn)
	const frames = 10
	tx.qmu.Lock()
	for i := range frames {
		tx.q.push(numbered(i, 40), rx.LocalAddr())
	}
	tx.qmu.Unlock()
	if err := tx.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.WriteTo(numbered(frames, 40), rx.LocalAddr()); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("WriteTo after Close = %v, want net.ErrClosed", err)
	}
	var fc frameCursor
	for i, m := 0, (Message{}); i < frames; i++ {
		if !fc.next(&m) {
			fc.load(readRaw(t, rx, 1)[0], nil)
			fc.next(&m)
		}
		if n := int(m.Data[1])<<8 | int(m.Data[2]); n != i {
			t.Fatalf("frame %d arrived as number %d", i, n)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the socket opened", runtime.NumGoroutine(), base)
		}
	}
}

// TestWarmWriteToAllocatesNothing: once both queues have held a full
// queue's worth, a WriteTo allocates nothing, nor does a send of the queue.
func TestWarmWriteToAllocatesNothing(t *testing.T) {
	rx, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	tx := listenBatch(t, Options{}).(*batchConn)
	to := rx.LocalAddr()
	frame := frameOf(40, 1)
	for range 2 { // fill q, then the buffer it was swapped with
		tx.wmu.Lock()
		for range MaxWriteBatch {
			tx.WriteTo(frame, to)
		}
		tx.wmu.Unlock()
		tx.flush()
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, err := tx.WriteTo(frame, to); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a warm WriteTo allocates %v times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, err := tx.WriteTo(frame, to); err != nil {
			t.Fatal(err)
		}
		tx.flush()
	}); allocs != 0 {
		t.Fatalf("a warm WriteTo and its send allocate %v times, want 0", allocs)
	}
}

// TestWriteFailuresCounted: a frame longer than a datagram is refused at
// once, and a frame the writer cannot send is counted in WriteFailed,
// never dropped in silence. A datagram the kernel refuses (port 0 is
// EINVAL) costs its own frames only, the frames queued behind it still
// arrive; a socket closed under a queued send fails every frame.
func TestWriteFailuresCounted(t *testing.T) {
	rx := listenBatch(t, Options{})
	tx := listenBatch(t, Options{}).(*batchConn)
	if _, err := tx.WriteTo(make([]byte, MaxDatagram+1), rx.LocalAddr()); !errors.Is(err, syscall.EMSGSIZE) {
		t.Fatalf("WriteTo of %d bytes = %v, want EMSGSIZE", MaxDatagram+1, err)
	}
	bad := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0}
	tx.wmu.Lock()
	for i := range 6 {
		to := rx.LocalAddr()
		if i == 2 || i == 3 {
			to = bad
		}
		tx.WriteTo(numbered(i, 40), to)
	}
	tx.wmu.Unlock()
	if got := readNumbers(t, rx, 4); !slices.Equal(got, []int{0, 1, 4, 5}) {
		t.Fatalf("received %v, want [0 1 4 5]", got)
	}
	tx.flush() // the writer has sent; this waits for it to have counted
	if got := tx.st.WriteFailed.Value(); got != 2 {
		t.Fatalf("WriteFailed = %d after a refused two-frame datagram, want 2", got)
	}

	tx.wmu.Lock()
	for i := range 5 {
		tx.WriteTo(numbered(i, 40), rx.LocalAddr())
	}
	tx.uc.Close() // the socket dies under the queued send
	tx.wmu.Unlock()
	tx.flush()
	if got := tx.st.WriteFailed.Value(); got != 2+5 {
		t.Fatalf("WriteFailed = %d after 5 frames met a closed socket, want 7", got)
	}
}

// TestOverflowCounted: datagrams the kernel drops on a full receive queue
// are counted. A writer overruns the reader's SO_RCVBUF, shrunk to 4 KB,
// while the reader waits; the reader drains what was queued, and the next
// datagram's SO_RXQ_OVFL report makes Overflowed exactly what was sent
// and never read.
func TestOverflowCounted(t *testing.T) {
	rx := listenBatch(t, Options{})
	var serr error
	if err := rx.(*batchConn).rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF, 4<<10)
	}); err != nil || serr != nil {
		t.Fatal(err, serr)
	}
	tx, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	const sent = 500
	for i := range sent {
		if _, err := tx.WriteTo(numbered(i, 1000), rx.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	st := rx.Stats()
	in := NewBatch(0)
	for {
		rx.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		if _, err := rx.ReadBatch(in); err != nil {
			break // drained
		}
	}
	read := st.ReadDatagrams.Value()
	if read == 0 || read == sent {
		t.Fatalf("the reader took %d of %d datagrams; the test needs an overrun queue", read, sent)
	}
	if got := st.Overflowed.Value(); got != 0 {
		t.Fatalf("Overflowed = %d before any datagram queued after the drops", got)
	}
	if _, err := tx.WriteTo(numbered(sent, 1000), rx.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	rx.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := rx.ReadBatch(in); err != nil {
		t.Fatal(err)
	}
	if got := st.Overflowed.Value(); got != sent-read {
		t.Fatalf("Overflowed = %d, want the %d datagrams sent and never read", got, sent-read)
	}
}

// TestWriteBatchRefusesForeignAddr: WriteBatch refuses a message whose
// Addr is no *net.UDPAddr with the EINVAL error WriteTo gives it, returns
// the count of the messages sent before it, and sends none after it.
func TestWriteBatchRefusesForeignAddr(t *testing.T) {
	rx := listenBatch(t, Options{})
	tx := listenBatch(t, Options{})
	to, foreign := rx.LocalAddr(), &net.IPAddr{IP: net.IPv4(127, 0, 0, 1)}
	if _, err := tx.WriteTo(numbered(9, 40), foreign); !errors.Is(err, syscall.EINVAL) {
		t.Fatalf("WriteTo to a %T: %v, want EINVAL", foreign, err)
	}
	n, err := tx.WriteBatch([]Message{{numbered(0, 40), to}, {numbered(1, 40), to}, {numbered(2, 40), foreign}, {numbered(3, 40), to}})
	var oe *net.OpError
	if n != 2 || !errors.As(err, &oe) || !errors.Is(err, syscall.EINVAL) || oe.Addr != foreign {
		t.Fatalf("WriteBatch = %d, %v; want 2 and an EINVAL *net.OpError naming the %T", n, err, foreign)
	}
	if got := readNumbers(t, rx, 2); !slices.Equal(got, []int{0, 1}) {
		t.Fatalf("received %v, want [0 1]", got)
	}
	rx.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if k, err := rx.ReadBatch(NewBatch(0)); err == nil {
		t.Fatalf("%d frames arrived from behind the refused message", k)
	}
}

// TestWriteBatchEmptyIP: a destination with no IP is 0.0.0.0, as a plain
// UDP socket reads it (signald -peer :port), so a batch and a queued frame
// to it reach the local listener on that port through sendmmsg: the
// batch's run in one datagram, the queued frame in one more.
func TestWriteBatchEmptyIP(t *testing.T) {
	rx := listenBatch(t, Options{})
	tx := listenBatch(t, Options{})
	to := &net.UDPAddr{Port: rx.LocalAddr().(*net.UDPAddr).Port}
	if n, err := tx.WriteBatch([]Message{{numbered(0, 40), to}, {numbered(1, 40), to}}); n != 2 || err != nil {
		t.Fatalf("WriteBatch = %d, %v", n, err)
	}
	if _, err := tx.WriteTo(numbered(2, 40), to); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if got := readNumbers(t, rx, 3); !slices.Equal(got, []int{0, 1, 2}) {
		t.Fatalf("received %v, want [0 1 2]", got)
	}
	tx.Close() // waits for the writer, which counts after its sendmmsg
	st := tx.Stats()
	if calls, dgrams := st.WriteCalls.Value(), st.WriteDatagrams.Value(); calls != 2 || dgrams != 2 {
		t.Fatalf("%d write calls, %d datagrams; want 2 sendmmsg calls of one datagram each", calls, dgrams)
	}
}

// TestWriteBatchEmptyIPBudget: a run to a destination with no IP is
// packed at the route's budget, as a run to 127.0.0.1 is, and not at the
// 1,232-B fallback of a probe that read 0.0.0.0 as neither family: 40
// frames of 100 B leave as one datagram to either.
func TestWriteBatchEmptyIPBudget(t *testing.T) {
	rx := listenBatch(t, Options{})
	port := rx.LocalAddr().(*net.UDPAddr).Port
	for _, to := range []*net.UDPAddr{{IP: net.IPv4(127, 0, 0, 1), Port: port}, {Port: port}} {
		tx := listenBatch(t, Options{})
		ms := make([]Message, 40)
		want := make([]int, len(ms))
		for i := range ms {
			ms[i], want[i] = Message{Data: numbered(i, 100), Addr: to}, i
		}
		if n, err := tx.WriteBatch(ms); n != len(ms) || err != nil {
			t.Fatalf("WriteBatch to %v = %d, %v", to, n, err)
		}
		if got := readNumbers(t, rx, len(ms)); !slices.Equal(got, want) {
			t.Fatalf("to %v: received %v, want %v", to, got, want)
		}
		if d := tx.Stats().WriteDatagrams.Value(); d != 1 {
			t.Fatalf("40 frames of 100 B to %v left in %d datagrams, want 1", to, d)
		}
	}
}

// TestWriteBatchEmptyFrame: an empty frame leaves through sendmmsg as an
// empty datagram of its own, splitting the run of frames around it: one
// call, three datagrams, and the reader gets the three frames in order.
func TestWriteBatchEmptyFrame(t *testing.T) {
	rx := listenBatch(t, Options{})
	tx := listenBatch(t, Options{})
	to := rx.LocalAddr()
	if n, err := tx.WriteBatch([]Message{{numbered(1, 40), to}, {[]byte{}, to}, {numbered(2, 30), to}}); n != 3 || err != nil {
		t.Fatalf("WriteBatch = %d, %v", n, err)
	}
	st := tx.Stats()
	if calls, dgrams := st.WriteCalls.Value(), st.WriteDatagrams.Value(); calls != 1 || dgrams != 3 {
		t.Fatalf("%d write calls, %d datagrams; want one sendmmsg of 3", calls, dgrams)
	}
	var lens []int
	in := NewBatch(0)
	rx.SetReadDeadline(time.Now().Add(5 * time.Second))
	for len(lens) < 3 {
		n, err := rx.ReadBatch(in)
		if err != nil {
			t.Fatalf("read %d of 3 frames: %v", len(lens), err)
		}
		for _, m := range in[:n] {
			lens = append(lens, len(m.Data))
		}
	}
	if !slices.Equal(lens, []int{40, 0, 30}) {
		t.Fatalf("received frames of %v bytes, want [40 0 30]", lens)
	}
}

// TestReadBufferGauge: ListenUDPBatch reads back the receive buffer the
// kernel granted, which the kernel may cap below the request, and
// /metrics shows it.
func TestReadBufferGauge(t *testing.T) {
	c := listenBatch(t, Options{Sockets: 2})
	for _, lane := range Fanout(c) {
		var granted int
		var serr error
		if err := lane.(*batchConn).rc.Control(func(fd uintptr) {
			granted, serr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
		}); err != nil || serr != nil {
			t.Fatal(err, serr)
		}
		if got := c.Stats().ReadBuffer.Value(); got != int64(granted) || granted == 0 {
			t.Fatalf("ReadBuffer = %d, getsockopt(SO_RCVBUF) = %d", got, granted)
		}
	}
	reg := telemetry.NewRegistry()
	c.Stats().Register(reg, nil)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("softstate_transport_read_buffer_bytes %d\n", c.Stats().ReadBuffer.Value())
	if !strings.Contains(sb.String(), want) {
		t.Fatalf("/metrics lacks %q:\n%s", want, sb.String())
	}
}
