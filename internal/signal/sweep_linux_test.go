//go:build linux && (amd64 || arm64)

package signal

import (
	"fmt"
	"net"
	"testing"
	"time"

	"softstate/internal/transport"
)

// TestSweepOneDatagramPerPeer: over udp-batch on loopback, a steady sweep
// of P peers × 4,096 keys — 64 frames of 64 keys a peer — leaves as one
// coalesced datagram a peer, MaxWriteBatch frames (four peers' runs) to a
// sendmmsg: P datagrams in ⌈64P/256⌉ calls. Five peers make the last call
// a partial one.
func TestSweepOneDatagramPerPeer(t *testing.T) {
	const peers, keys, perFrame = 5, 4096, 64
	conn, err := transport.ListenUDPBatch("127.0.0.1:0", transport.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ss := NewSessions(conn, Config{
		Protocol: SS, Shards: 4, SummaryRefresh: true, SummaryMaxKeys: perFrame,
		RefreshInterval: 24 * time.Hour, Timeout: 72 * time.Hour, // sweeps are made by hand
	})
	defer ss.Shutdown()
	for p := 0; p < peers; p++ {
		// Nobody reads the peers: the kernel drops what overflows their
		// buffers, and the sender never waits for them.
		rx, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		defer rx.Close()
		sess := ss.Session(rx.LocalAddr())
		for k := 0; k < keys; k++ {
			if err := sess.Install(fmt.Sprintf("flow/%04d", k), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
	}
	ss.SummarySweep() // encodes the frames
	st := conn.Stats()
	dgrams, calls := st.WriteDatagrams.Value(), st.WriteCalls.Value()
	if n := ss.SummarySweep(); n != peers*keys/perFrame {
		t.Fatalf("the sweep wrote %d frames, want %d", n, peers*keys/perFrame)
	}
	wantCalls := (peers*keys/perFrame + transport.MaxWriteBatch - 1) / transport.MaxWriteBatch
	if got := st.WriteDatagrams.Value() - dgrams; got != peers {
		t.Fatalf("a sweep of %d peers left in %d datagrams, want one a peer", peers, got)
	}
	if got := st.WriteCalls.Value() - calls; got != int64(wantCalls) {
		t.Fatalf("a sweep of %d frames took %d sendmmsg calls, want %d", peers*keys/perFrame, got, wantCalls)
	}
}
