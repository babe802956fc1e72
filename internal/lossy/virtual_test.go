package lossy

import (
	"fmt"
	"net"
	"testing"
	"time"

	"softstate/internal/clock"
)

// reader drains a conn on its own goroutine, mirroring a protocol read
// loop, and records arrival virtual times.
type reader struct {
	got chan string
}

func startReader(t *testing.T, c net.PacketConn, v *clock.Virtual) *reader {
	t.Helper()
	r := &reader{got: make(chan string, 1024)}
	go func() {
		buf := make([]byte, 2048)
		for {
			n, _, err := c.ReadFrom(buf)
			if err != nil {
				close(r.got)
				return
			}
			r.got <- fmt.Sprintf("%s@%v", buf[:n], v.Elapsed())
		}
	}()
	return r
}

// TestVirtualPipeDeliversAtVirtualDelay: datagrams arrive exactly one
// configured delay after the write, in virtual time, with no wall waiting.
func TestVirtualPipeDeliversAtVirtualDelay(t *testing.T) {
	v := clock.NewVirtual()
	a, b, err := Pipe(Config{Delay: 30 * time.Millisecond, Clock: v})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	r := startReader(t, b, v)
	if _, err := a.WriteTo([]byte("hello"), nil); err != nil {
		t.Fatal(err)
	}
	v.Run(29 * time.Millisecond)
	select {
	case got := <-r.got:
		t.Fatalf("datagram arrived early: %s", got)
	default:
	}
	v.Run(time.Millisecond)
	select {
	case got := <-r.got:
		if got != "hello@30ms" {
			t.Fatalf("got %q, want hello@30ms", got)
		}
	default:
		t.Fatal("datagram never arrived")
	}
}

// TestVirtualPipeGateOrdersProcessing: the clock must not advance past a
// delivery until the reader has consumed it — the reader's observed
// arrival time equals the delivery time even though it runs on its own
// goroutine.
func TestVirtualPipeGateOrdersProcessing(t *testing.T) {
	v := clock.NewVirtual()
	a, b, err := Pipe(Config{Delay: 10 * time.Millisecond, Clock: v})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	r := startReader(t, b, v)
	for i := 0; i < 20; i++ {
		if _, err := a.WriteTo([]byte(fmt.Sprintf("m%02d", i)), nil); err != nil {
			t.Fatal(err)
		}
		v.Run(time.Millisecond)
	}
	v.Run(time.Second)
	for i := 0; i < 20; i++ {
		want := fmt.Sprintf("m%02d@%v", i, time.Duration(i+10)*time.Millisecond)
		select {
		case got := <-r.got:
			if got != want {
				t.Fatalf("datagram %d = %q, want %q", i, got, want)
			}
		default:
			t.Fatalf("datagram %d never arrived", i)
		}
	}
}

// TestVirtualPipeCloseReleasesGate: a reader that abandons its conn
// mid-stream leaves handed and queued datagrams pinning the gate — the
// clock stalls, by design, until Close retires them all.
func TestVirtualPipeCloseReleasesGate(t *testing.T) {
	v := clock.NewVirtual()
	a, b, err := Pipe(Config{Delay: 5 * time.Millisecond, Clock: v})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	readOne := make(chan struct{})
	go func() {
		buf := make([]byte, 64)
		b.ReadFrom(buf) // take one datagram, never retire it
		close(readOne)
	}()
	for i := 0; i < 10; i++ {
		a.WriteTo([]byte("x"), nil)
	}
	done := make(chan struct{})
	go func() {
		v.Run(time.Second) // stalls on the abandoned reader until Close
		close(done)
	}()
	<-readOne
	select {
	case <-done:
		t.Fatal("clock advanced past unprocessed datagrams")
	case <-time.After(50 * time.Millisecond):
	}
	b.Close() // retires the handed datagram and drains the queue
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not release the gate")
	}
}

// TestNetworkRoutesByAddress: a Network endpoint reaches any named peer
// and unknown destinations are dropped, not errors.
func TestNetworkRoutesByAddress(t *testing.T) {
	nw, err := NewNetwork(Config{})
	if err != nil {
		t.Fatal(err)
	}
	hub := nw.Endpoint("hub")
	p1 := nw.Endpoint("p1")
	p2 := nw.Endpoint("p2")
	defer hub.Close()
	defer p1.Close()
	defer p2.Close()
	if _, err := hub.WriteTo([]byte("to-1"), p1.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if _, err := hub.WriteTo([]byte("to-2"), p2.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if _, err := hub.WriteTo([]byte("void"), addr("nobody")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	p1.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, from, err := p1.ReadFrom(buf)
	if err != nil || string(buf[:n]) != "to-1" || from.String() != "hub" {
		t.Fatalf("p1 read %q from %v, err %v", buf[:n], from, err)
	}
	p2.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, _, err = p2.ReadFrom(buf)
	if err != nil || string(buf[:n]) != "to-2" {
		t.Fatalf("p2 read %q, err %v", buf[:n], err)
	}
	// Replies route back by the sender name carried as the source address.
	if _, err := p1.WriteTo([]byte("re"), from); err != nil {
		t.Fatal(err)
	}
	hub.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, from, err = hub.ReadFrom(buf)
	if err != nil || string(buf[:n]) != "re" || from.String() != "p1" {
		t.Fatalf("hub read %q from %v, err %v", buf[:n], from, err)
	}
	if got := nw.Endpoint("p1"); got != p1 {
		t.Fatal("Endpoint is not idempotent per name")
	}
}

// TestNetworkDeterministicLoss: with one seed, which datagrams a virtual
// network drops is a pure function of write order — the foundation of the
// sim harness's same-seed reproducibility.
func TestNetworkDeterministicLoss(t *testing.T) {
	run := func() string {
		v := clock.NewVirtual()
		nw, err := NewNetwork(Config{Loss: 0.4, Seed: 1234, Clock: v})
		if err != nil {
			t.Fatal(err)
		}
		src := nw.Endpoint("src")
		dst := nw.Endpoint("dst")
		defer src.Close()
		defer dst.Close()
		got := make(chan byte, 64)
		go func() {
			buf := make([]byte, 64)
			for {
				n, _, err := dst.ReadFrom(buf)
				if err != nil {
					close(got)
					return
				}
				if n == 1 {
					got <- buf[0]
				}
			}
		}()
		for i := 0; i < 64; i++ {
			src.WriteTo([]byte{byte(i)}, dst.LocalAddr())
		}
		v.Run(time.Second)
		pattern := make([]byte, 64)
		for i := range pattern {
			pattern[i] = '.'
		}
		for {
			select {
			case b := <-got:
				pattern[b] = 'x'
				continue
			default:
			}
			break
		}
		return string(pattern)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("drop patterns diverge:\n%s\n%s", a, b)
	}
	if a == "" {
		t.Fatal("no datagrams observed")
	}
}
