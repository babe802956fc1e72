package lossy

import (
	"bytes"
	"net"
	"testing"
	"time"
)

func TestPipeDelivers(t *testing.T) {
	a, b, err := Pipe(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	msg := []byte("hello signaling")
	if _, err := a.WriteTo(msg, b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	b.SetReadDeadline(time.Now().Add(time.Second))
	n, from, err := b.ReadFrom(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:n], msg) {
		t.Fatalf("got %q", buf[:n])
	}
	if from.String() != "pipe-a" {
		t.Fatalf("from = %v", from)
	}
}

func TestPipeBidirectional(t *testing.T) {
	a, b, err := Pipe(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	if _, err := b.WriteTo([]byte("reply"), a.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	a.SetReadDeadline(time.Now().Add(time.Second))
	n, _, err := a.ReadFrom(buf)
	if err != nil || string(buf[:n]) != "reply" {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

func TestPipeDatagramBoundaries(t *testing.T) {
	a, b, err := Pipe(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	a.WriteTo([]byte("one"), nil)
	a.WriteTo([]byte("two"), nil)
	buf := make([]byte, 16)
	b.SetReadDeadline(time.Now().Add(time.Second))
	n, _, _ := b.ReadFrom(buf)
	if string(buf[:n]) != "one" {
		t.Fatalf("first = %q", buf[:n])
	}
	n, _, _ = b.ReadFrom(buf)
	if string(buf[:n]) != "two" {
		t.Fatalf("second = %q", buf[:n])
	}
}

func TestPipeTotalLoss(t *testing.T) {
	a, b, err := Pipe(Config{Loss: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	for i := 0; i < 20; i++ {
		a.WriteTo([]byte("x"), nil)
	}
	b.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if _, _, err := b.ReadFrom(make([]byte, 4)); err == nil {
		t.Fatal("read succeeded despite total loss")
	}
}

func TestPipeLossRate(t *testing.T) {
	a, b, err := Pipe(Config{Loss: 0.5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	const n = 400
	for i := 0; i < n; i++ {
		a.WriteTo([]byte{byte(i)}, nil)
	}
	got := 0
	buf := make([]byte, 4)
	for {
		b.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		if _, _, err := b.ReadFrom(buf); err != nil {
			break
		}
		got++
	}
	if got < n/4 || got > 3*n/4 {
		t.Fatalf("delivered %d of %d at 50%% loss", got, n)
	}
}

func TestPipeDelay(t *testing.T) {
	a, b, err := Pipe(Config{Delay: 60 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	start := time.Now()
	a.WriteTo([]byte("slow"), nil)
	buf := make([]byte, 8)
	b.SetReadDeadline(time.Now().Add(time.Second))
	if _, _, err := b.ReadFrom(buf); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("delivered after %v, want ≥50ms", elapsed)
	}
}

func TestPipeReadDeadline(t *testing.T) {
	a, b, err := Pipe(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	b.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	_, _, err = b.ReadFrom(make([]byte, 4))
	ne, ok := err.(net.Error)
	if !ok || !ne.Timeout() {
		t.Fatalf("err = %v, want timeout", err)
	}
}

func TestPipeClose(t *testing.T) {
	a, b, err := Pipe(Config{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := b.ReadFrom(make([]byte, 4))
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	b.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("ReadFrom succeeded after Close")
		}
	case <-time.After(time.Second):
		t.Fatal("ReadFrom did not unblock on Close")
	}
	if _, err := b.WriteTo([]byte("x"), nil); err == nil {
		t.Fatal("WriteTo succeeded after Close")
	}
	if err := b.Close(); err != nil {
		t.Fatal("double Close errored")
	}
	a.Close()
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Loss: -0.1},
		{Loss: 1.1},
		{Delay: -time.Second},
		{Delay: time.Millisecond, Jitter: time.Second},
	}
	for i, cfg := range bad {
		if _, _, err := Pipe(cfg); err == nil {
			t.Fatalf("case %d accepted", i)
		}
		if _, err := NewNetwork(cfg); err == nil {
			t.Fatalf("NewNetwork case %d accepted", i)
		}
	}
}

// TestPipeHandsOutOneAddress: a datagram crossing a pipe allocates nothing
// once the link's buffers are warm. The sender's address is boxed into a
// net.Addr once per endpoint, not once per datagram, and every read returns
// that same value, so a reader that remembers its last source compares two
// equal pointers.
func TestPipeHandsOutOneAddress(t *testing.T) {
	a, b, err := Pipe(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	msg, buf := []byte("hello signaling"), make([]byte, 64)
	var from net.Addr
	cross := func() {
		a.WriteTo(msg, b.LocalAddr())
		if _, from, err = b.ReadFrom(buf); err != nil {
			t.Fatal(err)
		}
	}
	cross()
	if allocs := testing.AllocsPerRun(200, cross); allocs != 0 {
		t.Fatalf("a datagram across the pipe allocates %v times, want 0", allocs)
	}
	if from != a.LocalAddr() {
		t.Fatalf("read from %v, the writer is %v", from, a.LocalAddr())
	}
}
