package lossy

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"softstate/internal/clock"
	"softstate/internal/transport"
)

// These tests pin what a change to the link's one delivery path can break:
// that a burst fares the same however its writer splits it, that the ring
// and the gate hold carry a burst of any size across one frozen instant,
// that a handed-out buffer is the reader's until its next ReadBatch, and
// the wall-mode bound and wake-up rules.

// arrival is one datagram as a reader saw it.
type arrival struct {
	At      time.Duration
	From    string
	Payload string
}

// arrivals is what one reader goroutine saw, readable once wg is done.
type arrivals struct {
	wg  sync.WaitGroup
	got []arrival
}

// recordArrivals drains c until it closes, alternating ReadBatch strides
// and single ReadFrom calls so both read forms are covered.
func recordArrivals(c net.PacketConn, v *clock.Virtual) *arrivals {
	r := &arrivals{}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		bc := transport.As(c)
		ms, buf := make([]transport.Message, 3), make([]byte, 2048)
		for turn := 0; ; turn++ {
			if turn%2 == 0 {
				n, err := bc.ReadBatch(ms)
				if err != nil {
					return
				}
				for _, m := range ms[:n] {
					r.got = append(r.got, arrival{v.Elapsed(), m.Addr.String(), string(m.Data)})
				}
				continue
			}
			n, from, err := bc.ReadFrom(buf)
			if err != nil {
				return
			}
			r.got = append(r.got, arrival{v.Elapsed(), from.String(), string(buf[:n])})
		}
	}()
	return r
}

// TestBurstSplitsDeliverAlike: the same seeded burst — loss, a per-link
// loss override, a partition that comes and goes mid-burst, two writers,
// three destinations interleaved — written as whole WriteBatch calls, as
// single WriteTo calls, or as a mix of chunk sizes reaches every reader as
// the identical (instant, source, payload) sequence and leaves every
// endpoint's rng at the same next draw.
func TestBurstSplitsDeliverAlike(t *testing.T) {
	dests := []string{"d0", "d1", "d2"}
	names := append([]string{"src", "alt"}, dests...)
	// split says how the next write of a segment is cut: n datagrams, as a
	// WriteBatch or (n == 1 only) a WriteTo.
	type split func(left int) (n int, single bool)
	run := func(cfg Config, cut split, faults bool) (map[string][]arrival, map[string]float64) {
		v := newCountedClock()
		cfg.Clock = v
		nw, err := NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		conns := map[string]transport.Conn{}
		for _, name := range names {
			conns[name] = transport.As(nw.Endpoint(name))
		}
		readers := map[string]*arrivals{}
		for _, d := range dests {
			readers[d] = recordArrivals(conns[d], v.Virtual)
		}
		if faults {
			nw.SetLinkLoss("src", "d1", 0.6)
		}
		segment := func(seg int) {
			for _, w := range []string{"src", "alt"} {
				var ms []transport.Message
				for i := 0; i < 40; i++ {
					d := dests[(i/2+i/7)%3] // runs of one and two, the odd three
					ms = append(ms, transport.Message{
						Data: []byte(fmt.Sprintf("%s/%d/%02d→%s", w, seg, i, d)),
						Addr: conns[d].LocalAddr(),
					})
				}
				for len(ms) > 0 {
					n, single := cut(len(ms))
					if single {
						if _, err := conns[w].WriteTo(ms[0].Data, ms[0].Addr); err != nil {
							t.Fatal(err)
						}
					} else if _, err := conns[w].WriteBatch(ms[:n]); err != nil {
						t.Fatal(err)
					}
					ms = ms[n:]
				}
			}
		}
		segment(0)
		v.Run(time.Millisecond)
		if faults {
			nw.Partition([]string{"d2"})
		}
		segment(1)
		v.Run(3 * time.Millisecond)
		nw.Heal()
		segment(2)
		v.Run(time.Second)
		if busy := v.Busy(); busy != 0 {
			t.Fatalf("gate busy=%d after the run", busy)
		}
		got, next := map[string][]arrival{}, map[string]float64{}
		for _, name := range names {
			conns[name].Close()
			next[name] = conns[name].(*pipeConn).rng.Float64()
		}
		for d, r := range readers {
			r.wg.Wait()
			got[d] = r.got
		}
		return got, next
	}
	whole := func(left int) (int, bool) { return left, false }
	single := func(int) (int, bool) { return 1, true }
	turn := 0
	mixed := func(left int) (int, bool) {
		turn++
		n := []int{1, 3, 1, 7, 2, 33}[turn%6]
		return min(n, left), n == 1 && turn%4 == 0
	}
	for _, cfg := range []Config{
		{Loss: 0.15, Delay: 5 * time.Millisecond, Jitter: 2 * time.Millisecond, Seed: 77},
		{Loss: 0.15, Delay: 5 * time.Millisecond, Seed: 77}, // one due instant per burst: the batch-join path
		{Loss: 0.15, Seed: 77},
	} {
		want, wantNext := run(cfg, whole, true)
		delivered := 0
		for _, d := range dests {
			delivered += len(want[d])
		}
		if delivered < 60 || delivered > 200 {
			t.Fatalf("%+v: %d of 240 datagrams delivered: the script does not exercise loss", cfg, delivered)
		}
		for name, cut := range map[string]split{"single": single, "mixed": mixed} {
			got, next := run(cfg, cut, true)
			for _, d := range dests {
				if !reflect.DeepEqual(got[d], want[d]) {
					t.Errorf("%+v: %s writes reached %s as\n%v\nwhole batches as\n%v", cfg, name, d, got[d], want[d])
				}
			}
			if !reflect.DeepEqual(next, wantNext) {
				t.Errorf("%+v: %s writes left the rngs at %v, whole batches at %v", cfg, name, next, wantNext)
			}
		}
		// A blackholed link draws like an open one, so a partition never
		// shifts the loss pattern of the traffic around it. (The override on
		// src → d1 changes no count either: 0 < p < 1 draws once, as 0.15 does.)
		if _, next := run(cfg, whole, false); !reflect.DeepEqual(next, wantNext) {
			t.Errorf("%+v: the faults moved the rngs: %v with, %v without", cfg, wantNext, next)
		}
	}
}

// TestPipeOrder: a directed link is FIFO when Jitter is zero, whatever the
// loss, the delay and the write form; with jitter every datagram draws its
// own delay and later ones overtake.
func TestPipeOrder(t *testing.T) {
	send := func(cfg Config) []int {
		v := clock.NewVirtual()
		cfg.Clock = v
		a, b, err := Pipe(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := recordArrivals(b, v)
		w := transport.As(a)
		for i := 0; i < 100; {
			if i%3 == 0 {
				w.WriteTo([]byte{byte(i)}, b.LocalAddr())
				i++
			} else {
				ms := []transport.Message{{Data: []byte{byte(i)}, Addr: b.LocalAddr()}, {Data: []byte{byte(i + 1)}, Addr: b.LocalAddr()}}
				w.WriteBatch(ms)
				i += 2
			}
			if i%10 == 0 {
				v.Run(time.Millisecond)
			}
		}
		v.Run(time.Second)
		a.Close()
		b.Close()
		r.wg.Wait()
		var seq []int
		for _, a := range r.got {
			seq = append(seq, int(a.Payload[0]))
		}
		return seq
	}
	inversions := func(seq []int) (n int) {
		for i := range seq {
			for j := i + 1; j < len(seq); j++ {
				if seq[i] > seq[j] {
					n++
				}
			}
		}
		return n
	}
	for _, cfg := range []Config{
		{},
		{Delay: 10 * time.Millisecond},
		{Loss: 0.3, Seed: 5},
		{Loss: 0.3, Delay: 10 * time.Millisecond, Seed: 5},
	} {
		seq := send(cfg)
		if len(seq) < 50 || inversions(seq) != 0 {
			t.Errorf("%+v: %d datagrams arrived with %d inversions, want FIFO: %v", cfg, len(seq), inversions(seq), seq)
		}
	}
	if seq := send(Config{Delay: 10 * time.Millisecond, Jitter: 9 * time.Millisecond, Seed: 3}); inversions(seq) == 0 {
		t.Errorf("a jittered link delivered %d datagrams in order; it is documented to reorder", len(seq))
	}
}

// TestRestartMidBurstReleasesHold: Restart closes the old conn while its
// reader sits on a half-read burst — the hold goes, the clock moves, a
// batch still scheduled for the old conn fires into it and drops, and the
// fresh conn starts empty.
func TestRestartMidBurstReleasesHold(t *testing.T) {
	v := newCountedClock()
	nw, err := NewNetwork(Config{Delay: 5 * time.Millisecond, Clock: v})
	if err != nil {
		t.Fatal(err)
	}
	a, b := nw.Endpoint("a"), nw.Endpoint("b")
	defer a.Close()
	burst := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := a.WriteTo([]byte("datagram"), b.LocalAddr()); err != nil {
				t.Fatal(err)
			}
		}
	}
	burst(5) // due at 5 ms
	v.Run(2 * time.Millisecond)
	burst(5) // due at 7 ms, still scheduled when the conn dies
	readOne := make(chan struct{})
	go func() {
		if _, _, err := b.ReadFrom(make([]byte, 64)); err != nil {
			t.Error(err)
		}
		close(readOne) // and never comes back for the other four
	}()
	done := make(chan struct{})
	go func() { v.Run(10 * time.Millisecond); close(done) }()
	<-readOne
	if busy := v.Busy(); busy != 1 {
		t.Fatalf("busy=%d with a burst half read, want the one hold", busy)
	}
	b2 := nw.Restart("b")
	defer b2.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Restart did not release the crashed conn's hold")
	}
	if busy := v.Busy(); busy != 0 {
		t.Fatalf("busy=%d after the 7 ms batch fired into the closed conn", busy)
	}
	for _, c := range []*pipeConn{b.(*pipeConn), b2.(*pipeConn)} {
		c.mu.Lock()
		if c.ring.n != 0 || c.held || len(c.batches) != 0 {
			t.Errorf("%p: ring %d, held %v, %d pending batches after the run", c, c.ring.n, c.held, len(c.batches))
		}
		c.mu.Unlock()
	}
}

// TestHandedOutDataIsStable: what ReadBatch hands out is the reader's until
// its next ReadBatch — writers filling the same endpoint, and ReadFrom
// calls draining it, recycle other buffers, never a lent one.
func TestHandedOutDataIsStable(t *testing.T) {
	a, b, err := Pipe(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		payload := make([]byte, 1100)
		for seq := 0; ; seq++ {
			select {
			case <-stop:
				return
			default:
			}
			for i := range payload {
				payload[i] = byte(seq)
			}
			a.WriteTo(payload[:100+seq%1000], b.LocalAddr())
		}
	}()
	bc := transport.As(b)
	ms, scratch := make([]transport.Message, 8), make([]byte, 2048)
	uniform := func(p []byte) bool { return len(p) >= 100 && bytes.Count(p, p[:1]) == len(p) }
	for round := 0; round < 200; round++ {
		n, err := bc.ReadBatch(ms)
		if err != nil {
			t.Fatal(err)
		}
		var kept [8][]byte
		for i, m := range ms[:n] {
			if !uniform(m.Data) {
				t.Fatalf("round %d: datagram %d arrived torn", round, i)
			}
			kept[i] = append([]byte(nil), m.Data...)
		}
		// Let the writer churn the free list, and churn it from the read side.
		for i := 0; i < 4; i++ {
			b.SetReadDeadline(time.Now().Add(time.Second))
			if m, _, err := bc.ReadFrom(scratch); err != nil || !uniform(scratch[:m]) {
				t.Fatalf("round %d: ReadFrom: %d bytes, err %v", round, m, err)
			}
		}
		b.SetReadDeadline(time.Time{})
		for i, m := range ms[:n] {
			if !bytes.Equal(m.Data, kept[i]) {
				t.Fatalf("round %d: datagram %d changed while it was handed out", round, i)
			}
		}
	}
	close(stop)
	<-stopped
	a.Close()
}

// TestWallModeRing: without a gate nothing paces the writers, so the ring
// is bounded and overflows drop; one wake-up token serves any number of
// ReadFrom callers; and the endpoint is its own transport.Conn.
func TestWallModeRing(t *testing.T) {
	nw, err := NewNetwork(Config{})
	if err != nil {
		t.Fatal(err)
	}
	a, b := nw.Endpoint("a"), nw.Endpoint("b")
	defer a.Close()
	defer b.Close()
	if got := transport.As(b); got != b.(transport.Conn) {
		t.Fatalf("transport.As wrapped the endpoint in a %T", got)
	}

	for i := 0; i < pipeQueueDepth+100; i++ {
		a.WriteTo([]byte{byte(i)}, b.LocalAddr())
	}
	held := 0
	for buf := make([]byte, 4); ; held++ {
		b.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		if _, _, err := b.ReadFrom(buf); err != nil {
			break
		}
	}
	if held != pipeQueueDepth {
		t.Fatalf("an unread endpoint kept %d datagrams, want the first %d", held, pipeQueueDepth)
	}

	// Two readers block with deadlines; two datagrams arrive in one write.
	// The writer leaves one token, so the reader it wakes must pass the
	// wake-up on: neither may come back for a second datagram before both
	// have had one.
	b.SetReadDeadline(time.Now().Add(5 * time.Second))
	var both sync.WaitGroup
	errs := make(chan error, 2)
	both.Add(2)
	for i := 0; i < 2; i++ {
		go func() {
			_, _, err := b.ReadFrom(make([]byte, 4))
			errs <- err
			both.Done()
			both.Wait()
		}()
	}
	time.Sleep(20 * time.Millisecond) // let both block; either way both must be served
	ms := []transport.Message{{Data: []byte("x"), Addr: b.LocalAddr()}, {Data: []byte("y"), Addr: b.LocalAddr()}}
	if _, err := transport.As(a).WriteBatch(ms); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("a blocked reader was not served: %v", err)
		}
	}
}

// BenchmarkLinkBurst is the virtual link's own row: a 64 × 1.1 KB burst —
// one peer's share of a summary sweep — written, fired as one kernel event
// and drained, per datagram. single is the same burst through WriteTo and
// ReadFrom, the path triggers and probes take.
func BenchmarkLinkBurst(b *testing.B) {
	const burst = 2 * transport.DefaultBatchSize
	payload := make([]byte, 1100)
	for _, single := range []bool{false, true} {
		name := "batch"
		if single {
			name = "single"
		}
		b.Run(name, func(b *testing.B) {
			v := clock.NewVirtual()
			nw, err := NewNetwork(Config{Clock: v})
			if err != nil {
				b.Fatal(err)
			}
			src, dst := transport.As(nw.Endpoint("src")), transport.As(nw.Endpoint("dst"))
			var read int // the gate orders the reader's writes before Run returns
			done := make(chan struct{})
			go func() {
				defer close(done)
				ms, buf := make([]transport.Message, transport.DefaultBatchSize), make([]byte, 2048)
				for {
					n, err := 1, error(nil)
					if single {
						_, _, err = dst.ReadFrom(buf)
					} else {
						n, err = dst.ReadBatch(ms)
					}
					if err != nil {
						return
					}
					read += n
				}
			}()
			out := make([]transport.Message, burst)
			for i := range out {
				out[i] = transport.Message{Data: payload, Addr: dst.LocalAddr()}
			}
			cross := func() {
				if single {
					for i := range out {
						src.WriteTo(out[i].Data, out[i].Addr)
					}
				} else { // a sweep leaves in DefaultBatchSize strides
					src.WriteBatch(out[:burst/2])
					src.WriteBatch(out[burst/2:])
				}
				v.Run(0)
			}
			cross() // warm the free lists
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cross()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*burst), "ns/datagram")
			if want := (b.N + 1) * burst; read != want {
				b.Fatalf("reader saw %d of %d datagrams", read, want)
			}
			src.Close()
			dst.Close()
			<-done
		})
	}
}

// TestLongBatchAllocatesNothing: a WriteBatch of 256 datagrams, eight times
// the stack stretch its fates are drawn in, allocates nothing once the
// link's buffers are warm, nor do the reads that drain it.
func TestLongBatchAllocatesNothing(t *testing.T) {
	a, b, err := Pipe(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	tx, rx := transport.As(a), transport.As(b)
	ms := make([]transport.Message, 256)
	for i := range ms {
		ms[i] = transport.Message{Data: []byte{byte(i)}, Addr: b.LocalAddr()}
	}
	in := transport.NewBatch(0)
	cross := func() {
		if n, err := tx.WriteBatch(ms); err != nil || n != len(ms) {
			t.Fatalf("WriteBatch = %d, %v", n, err)
		}
		for got := 0; got < len(ms); {
			n, err := rx.ReadBatch(in)
			if err != nil {
				t.Fatal(err)
			}
			got += n
		}
	}
	cross()
	if allocs := testing.AllocsPerRun(50, cross); allocs != 0 {
		t.Fatalf("a %d-datagram batch across the pipe allocates %v times, want 0", len(ms), allocs)
	}
}
