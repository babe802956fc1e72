package signal

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"softstate/internal/clock"
	"softstate/internal/transport"
	"softstate/internal/wire"
)

// TestDispatchAllocs pins what the read loop allocates per frame when one
// kernel-socket source repeats: the source address is formatted once, not
// per frame, and a frame for an entry that exists is looked up straight
// from the scratch buffer, so neither the address string nor the (peer,
// key) table key is built again. What remains is the decoder's own key and
// value copies: 2 allocations per trigger, 1 per per-key probe-ack, 0 per
// summary, where formatting a *net.UDPAddr and concatenating the table key
// per frame made it 6, 4 and 3. A peer probe-ack — a hard-state receiver's
// whole steady state — is read in place and costs 0. The next row is a
// transport that hands out a fresh *net.UDPAddr with every datagram: the
// same IP and port behind another pointer is still the same source, told by
// value and not by formatting it again. The last row is the same bound on
// the reply path: a coalesced ack is queued without formatting the address
// again.
func TestDispatchAllocs(t *testing.T) {
	// SS sends no reply to any of these frames, so the counts below are the
	// receive path's alone (a reply borrows a pooled buffer, and under the
	// race detector sync.Pool drops a share of them at random).
	rcv, err := NewReceiver(newDiscardConn(), Config{Protocol: SS, Timeout: time.Hour, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rcv.Close()
	from := &net.UDPAddr{IP: net.IPv4(198, 51, 100, 7), Port: 4242}
	frame := func(m wire.Message) []byte {
		data, err := m.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	trigger := frame(wire.Message{Type: wire.TypeTrigger, Seq: 1, Key: "flow/42", Value: []byte("25Mbps")})
	probeAck := frame(wire.Message{Type: wire.TypeProbeAck, Seq: 1, Key: "flow/42"})
	summary := frame(wire.Message{Type: wire.TypeSummaryRefresh, Seq: 1, Keys: []string{"flow/42"},
		Fold: wire.StateHash("flow/42", 1, []byte("25Mbps"))})
	sc := rcv.newDispatchScratch()
	rcv.dispatch(trigger, from, sc) // the install: later frames find the entry
	if _, ok := rcv.GetFrom(from, "flow/42"); !ok {
		t.Fatal("trigger did not install")
	}
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"trigger", trigger},
		{"probe-ack", probeAck},
		{"summary-refresh", summary},
	} {
		expectDecoderAllocs(t, rcv, sc, c.name, c.data, from)
	}

	// A peer probe-ack at a hard-state receiver holding the sender's key, in
	// both outcomes: pairs that agree, and a pair that opens an audit. The
	// round timer runs on the wall clock an hour out, so no round runs beside
	// the measurement.
	hs, err := NewReceiver(newDiscardConn(), Config{Protocol: HS, Timeout: time.Hour, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer hs.Close()
	hsc := hs.newDispatchScratch()
	hs.dispatch(trigger, from, hsc)
	for name, p := range map[string]pair{"agreeing": {1, wire.StateHash("flow/42", 1, []byte("25Mbps"))}, "disagreeing": {2, 0}} {
		peerAck := frame(wire.Message{Type: wire.TypeProbeAck, Seq: 1, Value: wire.AppendPair(nil, p.count, p.fold)})
		if got := testing.AllocsPerRun(200, func() { hs.dispatch(peerAck, from, hsc) }); got != 0 {
			t.Errorf("peer probe-ack, %s pair: %.0f allocations per frame, want 0", name, got)
		}
	}
	if st := hs.Stats(); st.Received["probe-ack"] != 2*201 || st.DecodeErrors != 0 {
		t.Errorf("peer probe-acks: %d received, %d decode errors", st.Received["probe-ack"], st.DecodeErrors)
	}

	// Same address, fresh pointer each datagram (the pointers are made ahead
	// of the measurement; 202 covers AllocsPerRun's warm-up run). The 16-byte
	// form of the IPv4 address is the same source too.
	fresh := make([]*net.UDPAddr, 202)
	for i := range fresh {
		fresh[i] = &net.UDPAddr{IP: net.IPv4(198, 51, 100, 7), Port: 4242}
		if i%2 == 1 {
			fresh[i].IP = fresh[i].IP.To4()
		}
	}
	rcv.dispatch(summary, fresh[201], sc) // the first: told apart from the last row's pointer
	next := 0
	if got := testing.AllocsPerRun(200, func() {
		rcv.dispatch(summary, fresh[next], sc)
		next++
	}); got != 0 {
		t.Errorf("summary-refresh, fresh address pointer per datagram: %.0f allocations per frame, want 0", got)
	}
	if n := rcv.NumPeers(); n != 1 {
		t.Errorf("%d peer records for one address behind %d pointers", n, len(fresh))
	}

	// The reply path, under ack coalescing: every SS+RT trigger queues an
	// ack for its sender, and the batcher files it under the sender's
	// formatted address. One source repeating formats it once per flush
	// window, not once per ack. The virtual clock never advances, so the
	// window stays open and no flush runs beside the measurement.
	acking, err := NewReceiver(newDiscardConn(), Config{
		Protocol: SSRT, Timeout: time.Hour, Shards: 4, CoalesceAcks: true, Clock: clock.NewVirtual(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer acking.Close()
	sc = acking.newDispatchScratch()
	acking.dispatch(trigger, from, sc)
	expectDecoderAllocs(t, acking, sc, "trigger, coalesced ack", trigger, from)
}

// expectDecoderAllocs fails unless dispatching data allocates exactly what
// decoding it does: the generic decoder copies the key and the value out
// of the datagram (the summary path decodes in place), and dispatch must
// add nothing to that.
func expectDecoderAllocs(t *testing.T, rcv *Receiver, sc *dispatchScratch, name string, data []byte, from net.Addr) {
	t.Helper()
	decode := 0.0
	if wire.PeekType(data) != wire.TypeSummaryRefresh {
		decode = testing.AllocsPerRun(200, func() {
			var m wire.Message
			if err := m.UnmarshalBinary(data); err != nil {
				t.Fatal(err)
			}
		})
	}
	if got := testing.AllocsPerRun(200, func() { rcv.dispatch(data, from, sc) }); got != decode {
		t.Errorf("%s: %.0f allocations per frame, %.0f of them the decoder's", name, got, decode)
	}
}

// TestReadLoopAllocs bounds what a receiver's read loop allocates over a
// lossy link, which lends the datagrams it delivers: its batch of empty
// slots and one install's worth of dispatch, under 64 KB. A loop that
// brought its own receive ring, four transport.MaxDatagram buffers, would
// allocate 256 KB per lane for buffers this transport never touches. The
// sender's read loop reads the same way, so it is held to the same bound
// (a 64 KB buffer of its own would fail it).
func TestReadLoopAllocs(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	loops := []string{"signal.(*Receiver).readLoop", "signal.(*Sender).readLoop"}
	before := make([]int64, len(loops))
	for i, fn := range loops {
		before[i] = allocatedUnder(fn)
	}
	c := vEndpoints(t, SSRT, 0)
	if err := c.snd.Install("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	c.within(time.Second, "the install and its ack", func() bool {
		return c.rcv.Len() == 1 && c.snd.Stats().Received["ack"] == 1
	})
	for i, fn := range loops {
		if got := allocatedUnder(fn) - before[i]; got >= 64<<10 {
			t.Errorf("%s allocated %d B, want under 64 KB", fn, got)
		} else {
			t.Logf("%s allocated %d B", fn, got)
		}
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

// countingClock is the wall clock counting every reading taken of it.
type countingClock struct {
	clock.Clock
	reads atomic.Int64
}

func (c *countingClock) Now() time.Time {
	c.reads.Add(1)
	return c.Clock.Now()
}

func (c *countingClock) Since(t time.Time) time.Duration {
	c.reads.Add(1)
	return c.Clock.Since(t)
}

// strideConn hands a read loop the strides the test queues, one per
// ReadBatch, and tells the test each time the loop asks for the next one:
// by then the loop has dispatched the last.
type strideConn struct {
	*discardConn
	strides chan []transport.Message
	asked   chan struct{}
	st      transport.Stats
}

func (c *strideConn) ReadBatch(ms []transport.Message) (int, error) {
	select {
	case c.asked <- struct{}{}:
	case <-c.done:
		return 0, net.ErrClosed
	}
	select {
	case s := <-c.strides:
		return copy(ms, s), nil
	case <-c.done:
		return 0, net.ErrClosed
	}
}

func (c *strideConn) WriteBatch(ms []transport.Message) (int, error) { return len(ms), nil }
func (c *strideConn) Stats() *transport.Stats                        { return &c.st }

// TestSummaryStampsOncePerBatch: a read loop reads the clock for the
// summary path once per ReadBatch stride, at its first summary frame, not
// once per frame: a stride of 32 summary refreshes, walked or leased, costs
// one reading. A direct dispatch, outside a read loop, still reads once per
// frame.
func TestSummaryStampsOncePerBatch(t *testing.T) {
	clk := &countingClock{Clock: clock.System}
	conn := &strideConn{
		discardConn: newDiscardConn(),
		strides:     make(chan []transport.Message),
		asked:       make(chan struct{}),
	}
	rcv, err := NewReceiver(conn, Config{Protocol: SS, Clock: clk, Timeout: time.Hour, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rcv.Close()
	from := &net.UDPAddr{IP: net.IPv4(198, 51, 100, 7), Port: 4242}
	frame := func(m wire.Message) transport.Message {
		data, err := m.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return transport.Message{Data: data, Addr: from}
	}
	const frames = transport.DefaultBatchSize
	var triggers, summaries []transport.Message
	for i := 0; i < frames; i++ {
		key := fmt.Sprintf("flow/%02d", i)
		triggers = append(triggers, frame(wire.Message{Type: wire.TypeTrigger, Seq: 1, Key: key, Value: []byte("v")}))
		summaries = append(summaries, frame(wire.Message{Type: wire.TypeSummaryRefresh, Seq: 1, Keys: []string{key},
			Fold: wire.StateHash(key, 1, []byte("v"))}))
	}
	<-conn.asked
	stride := func(ms []transport.Message) int64 {
		before := clk.reads.Load()
		conn.strides <- ms
		<-conn.asked
		return clk.reads.Load() - before
	}
	stride(triggers)
	if rcv.Len() != frames {
		t.Fatalf("%d of %d triggers installed", rcv.Len(), frames)
	}
	for _, tier := range []string{"walked", "leased"} {
		if got := stride(summaries); got != 1 {
			t.Fatalf("a stride of %d %s summary refreshes read the clock %d times, want 1", frames, tier, got)
		}
	}
	if got := rcv.Stats().SummaryRenewals; got != 2*frames {
		t.Fatalf("%d summary renewals, want %d", got, 2*frames)
	}
	sc := rcv.newDispatchScratch()
	before := clk.reads.Load()
	for _, m := range summaries {
		rcv.dispatch(m.Data, m.Addr, sc)
	}
	if got := clk.reads.Load() - before; got != frames {
		t.Fatalf("%d summary refreshes dispatched outside a read loop read the clock %d times, want %d", frames, got, frames)
	}
}
