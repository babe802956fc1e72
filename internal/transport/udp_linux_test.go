//go:build linux && (amd64 || arm64)

package transport

import (
	"bytes"
	"net"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// ringState reads the free list: its length, the open sockets that cap
// it, and how many rings have been allocated so far.
func ringState() (free, open, made int) {
	readRings.mu.Lock()
	defer readRings.mu.Unlock()
	return len(readRings.free), readRings.open, readRings.made
}

// holds reports whether data was read into one of r's slots.
func holds(r *mmsgRing, data []byte) bool {
	for i := 0; i < DefaultBatchSize; i++ {
		if unsafe.SliceData(r.buf(i)) == unsafe.SliceData(data) {
			return true
		}
	}
	return false
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

// TestRingsFollowDemand: a udp-batch lane borrows a receive ring, 32
// slots of the longest frame the codec encodes, only while it has
// datagrams. 64 lanes that each read one datagram and park allocate one
// or two rings between them, not 64; a parked lane holds none; a warm
// lane's read-then-park cycle allocates nothing; and once every lane has
// closed, the free list holds no ring.
func TestRingsFollowDemand(t *testing.T) {
	if got, want := len(newReadRing().bufs), DefaultBatchSize*8744; got != want {
		t.Fatalf("a receive ring holds %d bytes of buffers, want %d × 8,744 = %d", got, DefaultBatchSize, want)
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

// TestLentRingIsStable: the datagram a lane was handed stays byte for
// byte what it read while seven other lanes read 1,000 strides through
// the free list, until that lane's own next ReadBatch; that call clears
// the lane's slots before the ring goes back. A ring given back when
// ReadBatch returns is lent to the next lane to wake and overwritten.
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

	// Lane 0 reads one datagram, holds it, and reads again only when told.
	ms0 := NewBatch(0)
	held, again := make(chan []byte, 1), make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		if n, err := lanes[0].ReadBatch(ms0); err != nil || n != 1 {
			held <- nil
			return
		}
		held <- ms0[0].Data
		select {
		case <-again:
			lanes[0].ReadBatch(ms0) // parks until the lane closes
		case <-quit:
		}
	}()
	want := payload(0, 0)
	if _, err := tx.WriteTo(want, lanes[0].LocalAddr()); err != nil {
		t.Fatal(err)
	}
	var data []byte
	select {
	case data = <-held:
	case <-time.After(5 * time.Second):
		t.Fatal("lane 0 read nothing")
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("lane 0 read %d bytes, want its 512-byte datagram", len(data))
	}

	// When lane 0's ring goes back, lane 0's slots must already be clear.
	// The hook runs under the free list's lock, so dirty is read under it.
	dirty := false
	readRings.mu.Lock()
	readRings.onPut = func(r *mmsgRing) {
		if holds(r, data) && slices.ContainsFunc(ms0, func(m Message) bool { return m.Data != nil }) {
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

	// Lane 0's next ReadBatch finds nothing, clears its slots, and parks.
	close(again)
	waitHome(t, data)
	readRings.mu.Lock()
	defer readRings.mu.Unlock()
	if dirty {
		t.Fatal("lane 0's ring went back while lane 0's slots still pointed into it")
	}
	for i, m := range ms0 {
		if m.Data != nil || m.Addr != nil {
			t.Fatalf("lane 0 parked with slot %d still set", i)
		}
	}
}
