package lossy

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"softstate/internal/clock"
	"softstate/internal/transport"
)

// These tests prove the quiesce gate stays balanced across the batched
// delivery handoff: every Enter is matched by an Exit for normal batch
// draining, for a conn closed mid-batch, and for a burst larger than the
// wall-mode queue bound (which the ring carries whole).

// countedClock is a virtual clock whose gate also counts the units of
// induced work outstanding, so a test can see Enter and Exit pair up.
type countedClock struct {
	*clock.Virtual
	busy atomic.Int64
}

func newCountedClock() *countedClock { return &countedClock{Virtual: clock.NewVirtual()} }

func (c *countedClock) Gate() clock.Gate { return c }
func (c *countedClock) Enter()           { c.busy.Add(1); c.Virtual.Enter() }
func (c *countedClock) Exit()            { c.busy.Add(-1); c.Virtual.Exit() }
func (c *countedClock) Busy() int        { return int(c.busy.Load()) }

// virtualPipe builds a zero-loss virtual-time pipe.
func virtualPipe(t *testing.T, v clock.Clock) (a, b net.PacketConn) {
	t.Helper()
	a, b, err := Pipe(Config{Clock: v})
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// drainN reads exactly n datagrams then keeps reading until closed,
// reporting the total read on the returned channel.
func drainN(conn net.PacketConn) <-chan int {
	out := make(chan int, 1)
	go func() {
		buf := make([]byte, 2048)
		total := 0
		for {
			if _, _, err := conn.ReadFrom(buf); err != nil {
				out <- total
				return
			}
			total++
		}
	}()
	return out
}

func TestGateBalancedAcrossBatchHandoff(t *testing.T) {
	v := newCountedClock()
	a, b := virtualPipe(t, v)
	got := drainN(b)
	const n = 200
	for i := 0; i < n; i++ {
		if _, err := a.WriteTo([]byte("datagram"), b.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	v.Run(time.Millisecond) // all deliveries are due at the same instant
	if busy := v.Busy(); busy != 0 {
		t.Fatalf("gate not drained after batch: busy=%d", busy)
	}
	b.Close()
	a.Close()
	if total := <-got; total != n {
		t.Fatalf("reader got %d of %d datagrams", total, n)
	}
	if busy := v.Busy(); busy != 0 {
		t.Fatalf("gate unbalanced after close: busy=%d", busy)
	}
}

func TestGateBalancedOnCloseDuringBatch(t *testing.T) {
	v := newCountedClock()
	a, b := virtualPipe(t, v)
	// The reader consumes one datagram of a five-datagram batch, then
	// closes the conn with the rest still queued: Close must release the
	// batch's gate hold so the clock never stalls.
	closed := make(chan struct{})
	go func() {
		buf := make([]byte, 2048)
		if _, _, err := b.ReadFrom(buf); err != nil {
			t.Error(err)
		}
		b.Close()
		close(closed)
	}()
	for i := 0; i < 5; i++ {
		if _, err := a.WriteTo([]byte("datagram"), b.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	v.Run(time.Millisecond)
	<-closed
	if busy := v.Busy(); busy != 0 {
		t.Fatalf("gate unbalanced after close-during-batch: busy=%d", busy)
	}
	// The clock must still advance freely.
	done := make(chan struct{})
	go func() { v.Run(time.Second); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("clock stalled after close-during-batch")
	}
	a.Close()
}

// TestBatchLargerThanQueueStagesWithoutDropping: far more same-instant
// datagrams than the wall-mode bound, or than one ReadBatch stride, cross
// in one kernel event and one gate hold — nothing drops, the clock stays
// at the delivery instant while the reader works through the ring, and
// the hold goes when the reader comes back and finds it empty. (The name
// predates the ring: a surplus used to be staged beside a bounded queue.)
func TestBatchLargerThanQueueStagesWithoutDropping(t *testing.T) {
	v := newCountedClock()
	a, b := virtualPipe(t, v)
	const n = 5000
	for i := 0; i < n; i++ {
		if _, err := a.WriteTo([]byte("datagram"), b.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	drained := make(chan struct{})
	go func() {
		bc := transport.As(b)
		ms := make([]transport.Message, transport.DefaultBatchSize)
		for total := 0; ; {
			cnt, err := bc.ReadBatch(ms)
			if err != nil {
				return
			}
			if busy, at := v.Busy(), v.Elapsed(); busy != 1 || at != 0 {
				t.Errorf("after %d of %d: busy=%d at %v, want one hold at the delivery instant", total, n, busy, at)
			}
			if total += cnt; total == n {
				close(drained)
			}
		}
	}()
	v.Run(time.Millisecond) // returns once the reader's next call found the ring empty
	select {
	case <-drained:
	default:
		t.Fatal("the clock moved on before the burst was read whole")
	}
	if busy := v.Busy(); busy != 0 {
		t.Fatalf("gate not drained after the burst: busy=%d", busy)
	}
	b.Close()
	a.Close()
}

// TestBurstCopiesGivenBackAfterDrain: the datagram copies an install-size
// burst draws go back once the burst is read and a smaller one follows:
// the conn's free stack keeps what the later traffic drew, not the
// burst's thousand-odd buffers, and its backing array shrinks with it.
func TestBurstCopiesGivenBackAfterDrain(t *testing.T) {
	v := clock.NewVirtual()
	a, b := virtualPipe(t, v)
	defer a.Close()
	defer b.Close()
	done := drainN(b)
	free := func() (n, capacity int) {
		c := b.(*pipeConn)
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.bufFree), cap(c.bufFree)
	}
	for _, burst := range []int{pipeQueueDepth, 10} {
		for i := 0; i < burst; i++ {
			if _, err := a.WriteTo([]byte("datagram"), b.LocalAddr()); err != nil {
				t.Fatal(err)
			}
		}
		v.Run(time.Millisecond) // returns once the reader found the ring empty
	}
	// One read call's worth of buffers, as transport batches it.
	const bound = transport.DefaultBatchSize
	if n, capacity := free(); n > bound || capacity > 4*bound {
		t.Fatalf("after a %d-datagram burst and a 10-datagram one the conn keeps %d free buffers in an array of %d, want ≤ %d in ≤ %d",
			pipeQueueDepth, n, capacity, bound, 4*bound)
	}
	b.Close()
	if got := <-done; got != pipeQueueDepth+10 {
		t.Fatalf("reader saw %d datagrams, want %d", got, pipeQueueDepth+10)
	}
}

// TestBurstArraysGivenBackAfterDrain: a burst far longer than the queue
// bound crosses at one instant in one packet array, which the conn gives
// back once the burst is read: neither the empty ring nor the recycled
// batches keep more than pipeQueueDepth packet slots, after the burst or
// after the small burst that follows it and would take a kept array over.
func TestBurstArraysGivenBackAfterDrain(t *testing.T) {
	v := clock.NewVirtual()
	a, b := virtualPipe(t, v)
	defer a.Close()
	defer b.Close()
	done := drainN(b)
	tx := transport.As(a)
	ms := make([]transport.Message, transport.MaxWriteBatch)
	for i := range ms {
		ms[i] = transport.Message{Data: []byte("datagram"), Addr: b.LocalAddr()}
	}
	slots := func() int {
		c := b.(*pipeConn)
		c.mu.Lock()
		defer c.mu.Unlock()
		n := cap(c.ring.buf)
		for bt := c.batchFree; bt != nil; bt = bt.next {
			n += cap(bt.pkts)
		}
		for _, bt := range c.batches {
			n += cap(bt.pkts)
		}
		return n
	}
	for _, burst := range []int{65536, 10} {
		for sent := 0; sent < burst; sent += len(ms) {
			if _, err := tx.WriteBatch(ms[:min(len(ms), burst-sent)]); err != nil {
				t.Fatal(err)
			}
		}
		v.Run(time.Millisecond) // returns once the reader found the ring empty
		if n := slots(); n > pipeQueueDepth {
			t.Fatalf("after a %d-datagram burst drained the conn keeps %d packet slots, want ≤ %d",
				burst, n, pipeQueueDepth)
		}
	}
	b.Close()
	if got := <-done; got != 65536+10 {
		t.Fatalf("reader saw %d datagrams, want %d", got, 65536+10)
	}
}
