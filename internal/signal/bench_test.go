package signal

import (
	"fmt"
	"net"
	"testing"
	"time"

	"softstate/internal/wire"
)

// discardConn is a PacketConn that swallows writes and blocks reads, so
// benchmarks measure the sender, not a transport.
type discardConn struct {
	done chan struct{}
}

func newDiscardConn() *discardConn { return &discardConn{done: make(chan struct{})} }

func (c *discardConn) WriteTo(p []byte, _ net.Addr) (int, error) { return len(p), nil }

func (c *discardConn) ReadFrom(p []byte) (int, net.Addr, error) {
	<-c.done
	return 0, nil, net.ErrClosed
}

func (c *discardConn) Close() error {
	select {
	case <-c.done:
	default:
		close(c.done)
	}
	return nil
}

func (c *discardConn) LocalAddr() net.Addr              { return discardAddr{} }
func (c *discardConn) SetDeadline(time.Time) error      { return nil }
func (c *discardConn) SetReadDeadline(time.Time) error  { return nil }
func (c *discardConn) SetWriteDeadline(time.Time) error { return nil }

type discardAddr struct{}

func (discardAddr) Network() string { return "discard" }
func (discardAddr) String() string  { return "discard" }

// benchSender builds a sender over a discarding transport with nKeys
// installed and background refreshing disabled (long interval), so the
// benchmark drives refresh rounds explicitly.
func benchSender(b *testing.B, nKeys int, summary bool) *Sender {
	b.Helper()
	cfg := Config{
		Protocol:        SS,
		RefreshInterval: time.Hour, // rounds driven by hand below
		Timeout:         3 * time.Hour,
		SummaryRefresh:  summary,
		SummaryMaxKeys:  64,
		Shards:          64,
	}
	snd, err := NewSender(newDiscardConn(), discardAddr{}, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { snd.Close() })
	for i := 0; i < nKeys; i++ {
		if err := snd.Install(fmt.Sprintf("flow/%06d", i), []byte("10Mbps")); err != nil {
			b.Fatal(err)
		}
	}
	return snd
}

// refreshRound emulates one full per-key refresh cycle: every live key
// emits one refresh datagram, exactly what the wheel does per interval.
func refreshRound(s *Sender) int {
	sent := 0
	s.ss.tbl.Range(func(ck string, e *senderEntry) bool {
		if e.removing {
			return true
		}
		s.ss.send(wire.Message{Type: wire.TypeRefresh, Seq: e.seq, Key: userKey(ck), Value: e.value}, s.sess.peer)
		sent++
		return true
	})
	return sent
}

// BenchmarkSenderRefreshPerKey measures one refresh round with per-key
// datagrams: the paper's plain soft-state refresh cost at 4096 keys.
func BenchmarkSenderRefreshPerKey(b *testing.B) {
	const keys = 4096
	snd := benchSender(b, keys, false)
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		total += refreshRound(snd)
	}
	b.ReportMetric(float64(total)/float64(b.N), "datagrams/round")
	b.ReportMetric(float64(b.N)*keys/b.Elapsed().Seconds(), "keys-refreshed/s")
}

// BenchmarkSenderRefreshSummary measures the same renewal work as one
// summary sweep (RFC 2961-style): 64 keys per datagram, ≥10× fewer
// datagrams for the identical key set. steady: the key set holds still, so
// every sweep re-sends the frames the first one encoded. dirty: one key is
// replaced before every sweep (inside the timed region), so every sweep
// scans the table, sorts and re-encodes all 64 frames.
func BenchmarkSenderRefreshSummary(b *testing.B) {
	const keys = 4096
	for _, dirty := range []bool{false, true} {
		b.Run(map[bool]string{false: "steady", true: "dirty"}[dirty], func(b *testing.B) {
			snd := benchSender(b, keys, true)
			snd.ss.SummarySweep()
			before := snd.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			total := 0
			for i := 0; i < b.N; i++ {
				if dirty {
					_ = snd.Remove(fmt.Sprintf("flow/%06d", i%keys))
					_ = snd.Install(fmt.Sprintf("flow/%06d", i%keys), []byte("10Mbps"))
				}
				total += snd.ss.SummarySweep()
			}
			after := snd.Stats()
			b.ReportMetric(float64(total)/float64(b.N), "datagrams/round")
			b.ReportMetric(float64(b.N)*keys/b.Elapsed().Seconds(), "keys-refreshed/s")
			b.ReportMetric(float64(after.SummaryFramesEncoded-before.SummaryFramesEncoded)/float64(after.SummaryFramesSent-before.SummaryFramesSent), "encoded/sent")
		})
	}
}

// BenchmarkSenderInstall measures trigger throughput into the sharded
// table across CPUs.
func BenchmarkSenderInstall(b *testing.B) {
	snd := benchSender(b, 0, false)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			_ = snd.Install(fmt.Sprintf("k/%d", i), []byte("v"))
			i++
		}
	})
}

// BenchmarkReceiverInstallExpire measures the receiver's full state
// lifecycle — install, timeout scheduling, expiry — through the wheel.
func BenchmarkReceiverInstallExpire(b *testing.B) {
	cfg := Config{
		Protocol:        SS,
		RefreshInterval: time.Hour,
		Timeout:         time.Millisecond,
		Shards:          64,
	}
	rcv, err := NewReceiver(newDiscardConn(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { rcv.Close() })
	sc := rcv.newDispatchScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rcv.handle(wire.Message{Type: wire.TypeTrigger, Seq: uint64(i), Key: fmt.Sprintf("k/%d", i%100_000), Value: []byte("v")}, discardAddr{}, sc)
	}
	b.StopTimer()
	// Drain scheduled expiries so Close is not fighting 100k timers.
	deadline := time.Now().Add(5 * time.Second)
	for rcv.Len() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
}

// BenchmarkSummaryHandleReceiver measures receiver-side bulk renewal: one
// summary datagram renewing 64 installed keys.
func BenchmarkSummaryHandleReceiver(b *testing.B) {
	cfg := Config{
		Protocol:        SS,
		RefreshInterval: time.Hour,
		Timeout:         time.Hour,
		Shards:          64,
	}
	rcv, err := NewReceiver(newDiscardConn(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { rcv.Close() })
	sc := rcv.newDispatchScratch()
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("k/%d", i)
		rcv.handle(wire.Message{Type: wire.TypeTrigger, Seq: 1, Key: keys[i], Value: []byte("v")}, discardAddr{}, sc)
	}
	m := wire.Message{Type: wire.TypeSummaryRefresh, Seq: 2, Keys: keys}
	data, err := m.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The path the read loop actually takes: validate and renew in
		// place off the encoded datagram.
		rcv.handleSummaryFast(data, discardAddr{}, sc)
	}
}
