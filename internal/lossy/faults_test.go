package lossy

import (
	"net"
	"testing"
	"time"
)

// faultNet builds a wall-mode zero-impairment switch with two endpoints.
func faultNet(t *testing.T) (*Network, net.PacketConn, net.PacketConn) {
	t.Helper()
	nw, err := NewNetwork(Config{})
	if err != nil {
		t.Fatal(err)
	}
	a := nw.Endpoint("a")
	b := nw.Endpoint("b")
	t.Cleanup(func() { a.Close(); b.Close() })
	return nw, a, b
}

// expectDelivery asserts one datagram written src → dst arrives (or, with
// want=false, that nothing arrives within a short grace window).
func expectDelivery(t *testing.T, src, dst net.PacketConn, payload string, want bool) {
	t.Helper()
	if _, err := src.WriteTo([]byte(payload), dst.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	grace := time.Second
	if !want {
		grace = 50 * time.Millisecond
	}
	dst.SetReadDeadline(time.Now().Add(grace))
	n, _, err := dst.ReadFrom(buf)
	if want {
		if err != nil || string(buf[:n]) != payload {
			t.Fatalf("expected %q delivered, got n=%d err=%v", payload, n, err)
		}
		return
	}
	if err == nil {
		t.Fatalf("datagram %q crossed a blocked link", buf[:n])
	}
}

func TestPartitionBlocksAndHeals(t *testing.T) {
	nw, a, b := faultNet(t)
	expectDelivery(t, a, b, "before", true)
	nw.Partition([]string{"a"}, []string{"b"})
	expectDelivery(t, a, b, "across", false)
	expectDelivery(t, b, a, "across-back", false)
	nw.Heal()
	expectDelivery(t, a, b, "after", true)
	expectDelivery(t, b, a, "after-back", true)
}

func TestPartitionUnnamedEndpointsShareSideZero(t *testing.T) {
	nw, a, b := faultNet(t)
	c := nw.Endpoint("c")
	defer c.Close()
	nw.Partition([]string{"a"})
	expectDelivery(t, b, c, "same-side", true)
	expectDelivery(t, a, c, "cross", false)
}

func TestSetLinkLossAsymmetric(t *testing.T) {
	nw, a, b := faultNet(t)
	nw.SetLinkLoss("a", "b", 1)
	expectDelivery(t, a, b, "degraded", false)
	expectDelivery(t, b, a, "healthy-direction", true)
	nw.SetLinkLoss("a", "b", -1)
	expectDelivery(t, a, b, "restored", true)
}

func TestRestartReplacesEndpointSameAddress(t *testing.T) {
	nw, a, b := faultNet(t)
	expectDelivery(t, a, b, "first-life", true)

	b2 := nw.Restart("b")
	defer b2.Close()
	if b2.LocalAddr().String() != b.LocalAddr().String() {
		t.Fatalf("restart moved the address: %v → %v", b.LocalAddr(), b2.LocalAddr())
	}
	// The old conn is dead: reads fail, writes fail.
	if _, _, err := b.ReadFrom(make([]byte, 16)); err == nil {
		t.Fatal("read on the crashed conn succeeded")
	}
	if _, err := b.WriteTo([]byte("ghost"), a.LocalAddr()); err == nil {
		t.Fatal("write on the crashed conn succeeded")
	}
	// Traffic to the shared address reaches the new incarnation.
	expectDelivery(t, a, b2, "second-life", true)
	expectDelivery(t, b2, a, "replies-flow", true)
}
