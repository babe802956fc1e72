// Package lossy provides transports for exercising the signaling runtime
// under adverse conditions: an in-memory net.PacketConn pair (Pipe) or
// many-endpoint switch (Network) with configurable loss, delay, and jitter
// (deterministic enough for tests), and a wrapper that injects the same
// impairments into any real net.PacketConn (e.g. a UDP socket) for demos.
//
// All impairment timing goes through a clock.Clock. Under clock.System the
// transports behave as before — delayed datagrams ride time.AfterFunc.
// Under a *clock.Virtual every delivery (even a zero-delay one) becomes a
// kernel event, and the conns participate in the clock's quiesce gate:
// delivering a datagram to a reader goroutine holds virtual time still
// until that reader has fully processed it (tracked as Enter on enqueue,
// Exit when the reader returns for the next datagram). That is what makes
// whole-protocol runs deterministic: at most one protocol goroutine is
// ever reacting to an event while the clock decides what fires next. In
// virtual mode each conn must have at most one reader goroutine.
package lossy

import (
	"errors"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"softstate/internal/bufpool"
	"softstate/internal/clock"
	"softstate/internal/rand"
)

// Config describes channel impairments.
type Config struct {
	// Loss is the probability a written datagram is silently dropped.
	Loss float64
	// Delay is the mean one-way delay added to each datagram.
	Delay time.Duration
	// Jitter, when positive, spreads the delay uniformly over
	// [Delay-Jitter, Delay+Jitter].
	Jitter time.Duration
	// Seed drives the loss/jitter stream (0 means a fixed default). The
	// stream is a pure function of the seed, so two Pipes (or two
	// Networks) built from one Config draw the same drops in the same
	// order; links that must fail independently are endpoints of one
	// Network, or carry distinct seeds.
	Seed uint64
	// Clock schedules deliveries (clock.System when nil). Pass a
	// *clock.Virtual to run the link in simulated time.
	Clock clock.Clock
	// Unbatched disables same-tick delivery batching in virtual mode:
	// every datagram becomes its own kernel event and its own quiesce-gate
	// hold, the pre-batching semantics. It exists for the determinism
	// regression tests that prove batched and unbatched runs produce
	// identical results; production simulations leave it false.
	Unbatched bool
}

func (c Config) validate() error {
	if c.Loss < 0 || c.Loss > 1 || math.IsNaN(c.Loss) {
		return errors.New("lossy: loss probability outside [0,1]")
	}
	if c.Delay < 0 || c.Jitter < 0 {
		return errors.New("lossy: negative delay or jitter")
	}
	if c.Jitter > c.Delay {
		return errors.New("lossy: jitter exceeds mean delay")
	}
	return nil
}

// gate returns the virtual clock when the config runs in simulated time.
func (c Config) gate() *clock.Virtual {
	v, _ := c.Clock.(*clock.Virtual)
	return v
}

// addr is a trivial net.Addr for the in-memory transport.
type addr string

func (a addr) Network() string { return "lossy" }
func (a addr) String() string  { return string(a) }

// packet is one queued datagram.
type packet struct {
	data []byte
	from net.Addr
}

// Pipe returns two connected in-memory PacketConns, a ↔ b, each direction
// independently subjected to cfg. Datagram boundaries are preserved; FIFO
// order is maintained (delays are applied to the queue head, mirroring the
// paper's no-reorder channel). The two directions split their streams off
// cfg.Seed; a second Pipe built from the same cfg shares both streams with
// the first (see Config.Seed).
func Pipe(cfg Config) (a, b net.PacketConn, err error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x10551055
	}
	rng := rand.NewSource(seed)
	ca := newPipeConn("pipe-a", cfg, rng.Split())
	cb := newPipeConn("pipe-b", cfg, rng.Split())
	peerA, peerB := cb, ca
	ca.route = func(net.Addr) *pipeConn { return peerA }
	cb.route = func(net.Addr) *pipeConn { return peerB }
	return ca, cb, nil
}

// Network is an in-memory switch: any number of named endpoints, every
// datagram between them subject to the shared impairment config, each
// endpoint drawing its own loss/jitter stream (split off cfg.Seed in
// endpoint-creation order, so a world is reproducible from one seed). It is
// the many-party form of Pipe, letting one node.Node fan out to dozens of
// receivers inside a single (virtual or wall) clock domain.
type Network struct {
	cfg Config
	mu  sync.Mutex // guards rng during endpoint creation and rules edits
	rng *rand.Source
	eps sync.Map // name → *pipeConn; lock-free on the per-write route lookup

	// rules holds the current fault state (partitions, downed endpoints,
	// per-link loss overrides) as an immutable snapshot: writes swap in a
	// fresh copy under mu, the per-datagram policy check is one atomic
	// load. nil means no faults — the common case costs a nil check.
	rules atomic.Pointer[netRules]
}

// NewNetwork creates an empty switch.
func NewNetwork(cfg Config) (*Network, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x0e171e57
	}
	return &Network{cfg: cfg, rng: rand.NewSource(seed)}, nil
}

// Endpoint creates (or returns) the endpoint named name. Datagrams written
// on it are routed by destination address to the endpoint of that name;
// unknown destinations are silently dropped, like an unroutable network.
func (nw *Network) Endpoint(name string) net.PacketConn {
	if c, ok := nw.eps.Load(name); ok {
		return c.(*pipeConn)
	}
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if c, ok := nw.eps.Load(name); ok {
		return c.(*pipeConn)
	}
	c := newPipeConn(name, nw.cfg, nw.rng.Split())
	c.route = nw.lookup
	c.policy = nw.policyFor
	nw.eps.Store(name, c)
	return c
}

// lookup resolves a destination address to its endpoint. It runs on every
// WriteTo, so it reads the endpoint table lock-free: wall-clock fan-out
// writes from many goroutines no longer contend on a switch mutex.
func (nw *Network) lookup(to net.Addr) *pipeConn {
	if to == nil {
		return nil
	}
	if c, ok := nw.eps.Load(to.String()); ok {
		return c.(*pipeConn)
	}
	return nil
}

// pipeConn is one endpoint of an in-memory pair or switch.
type pipeConn struct {
	name  net.Addr // an addr, boxed once: every datagram written here carries it
	cfg   Config
	clk   clock.Clock
	gate  *clock.Virtual // non-nil in virtual mode
	route func(to net.Addr) *pipeConn
	// policy, when non-nil, consults the owning Network's fault rules per
	// write: allow=false blackholes the datagram (partition, downed
	// endpoint), loss ≥ 0 overrides the configured loss probability for
	// this directed link. Pipe conns have no policy.
	policy func(from, to string) (allow bool, loss float64)

	mu     sync.Mutex
	rng    *rand.Source
	queue  chan packet // never closed; done signals shutdown instead
	done   chan struct{}
	closed bool

	// Virtual-mode gate ledger. Deliveries due at the same virtual instant
	// coalesce into one delivBatch, one kernel event, and one gate hold:
	// gateHeld is that hold, unretired counts the datagrams in the queue
	// or in the reader's hands, and handed counts the ones returned by
	// ReadFrom but not yet retired by the reader's next call. A batch
	// larger than the queue stages its surplus in staged/stagedHead and
	// feeds the queue as the reader drains — the gate stays held (and
	// virtual time frozen) until the whole batch is processed, exactly
	// like the old one-event-per-datagram handoff, so batching never
	// drops what per-event delivery would have delivered.
	batches    map[time.Time]*delivBatch // pending batches by due instant
	lastBatch  *delivBatch               // the pending batch joined last: a burst's datagrams share an instant
	batchFree  *delivBatch               // recycled batch objects (and their timers)
	staged     []packet
	stagedHead int
	unretired  int
	handed     int
	gateHeld   bool

	// Deadline-bearing reads share one reusable timer per conn instead of
	// allocating a timer and channel per call. dlBusy marks it claimed by
	// an in-flight read; a concurrent deadline read (legal on a wall-mode
	// PacketConn) falls back to a private one-shot timer.
	dlTimer clock.Timer
	dlCh    chan struct{}
	dlBusy  bool

	// bufFree recycles datagram copy buffers through the conn they are
	// delivered to: writers take a buffer under the destination's lock,
	// the reader returns it after copying out. Steady-state traffic
	// allocates no per-datagram buffers.
	bufFree [][]byte

	readDeadline time.Time
}

// maxFreeBufs bounds the recycled-buffer stack: the queue can hold
// pipeQueueDepth datagrams, plus slack for ones in the reader's hands.
const maxFreeBufs = pipeQueueDepth + 32

// allocLocked returns a length-n buffer, recycled when one fits; callers
// hold c.mu.
func (c *pipeConn) allocLocked(n int) []byte {
	if l := len(c.bufFree); l > 0 {
		b := c.bufFree[l-1]
		c.bufFree[l-1] = nil
		c.bufFree = c.bufFree[:l-1]
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}

// freeLocked recycles a delivered datagram's buffer; callers hold c.mu.
func (c *pipeConn) freeLocked(b []byte) {
	if len(c.bufFree) < maxFreeBufs {
		c.bufFree = append(c.bufFree, b)
	}
}

// delivBatch is one (conn, virtual instant) delivery batch: every datagram
// due at that instant at that conn, delivered by a single kernel event.
// Batch objects (and their timers, and their packet slices) are recycled
// through the owning conn's free list, so steady-state traffic schedules
// deliveries without allocating.
type delivBatch struct {
	conn *pipeConn
	due  time.Time
	pkts []packet
	tmr  clock.Timer
	next *delivBatch // free-list link
}

func (b *delivBatch) fire() { b.conn.fireBatch(b) }

const pipeQueueDepth = 1024

func newPipeConn(name string, cfg Config, rng *rand.Source) *pipeConn {
	return &pipeConn{
		name:  addr(name),
		cfg:   cfg,
		clk:   clock.Or(cfg.Clock),
		gate:  cfg.gate(),
		rng:   rng,
		queue: make(chan packet, pipeQueueDepth),
		done:  make(chan struct{}),
	}
}

// WriteTo applies the fault policy, loss, and delay, then enqueues at the
// destination.
func (c *pipeConn) WriteTo(p []byte, to net.Addr) (int, error) {
	lossP := c.cfg.Loss
	blocked := false
	if c.policy != nil && to != nil {
		allow, lp := c.policy(c.name.String(), to.String())
		if !allow {
			blocked = true
		} else if lp >= 0 {
			lossP = lp
		}
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, net.ErrClosed
	}
	// The loss draw happens even on a blocked link, so a conn consumes its
	// rng stream at the same rate whether or not a partition is active —
	// replays of the same seed and fault schedule stay byte-identical.
	drop := c.rng.Bernoulli(lossP)
	delay := c.sampleDelayLocked()
	c.mu.Unlock()

	peer := c.route(to)
	if blocked || drop || peer == nil {
		return len(p), nil // silently dropped, like a lossy network
	}
	if c.gate != nil {
		// In virtual mode every datagram rides the kernel — delivery order
		// is decided by the clock, not by goroutine races — and same-tick
		// datagrams to one conn share a single event and gate hold.
		peer.batchDeliver(p, c.name, delay)
		return len(p), nil
	}
	if delay <= 0 {
		peer.enqueue(p, c.name)
		return len(p), nil
	}
	data := peer.copyBuf(p)
	pkt := packet{data: data, from: c.name}
	c.clk.AfterFunc(delay, func() { peer.enqueueOwned(pkt) })
	return len(p), nil
}

// copyBuf copies p into a buffer recycled through this (destination)
// conn.
func (c *pipeConn) copyBuf(p []byte) []byte {
	c.mu.Lock()
	data := c.allocLocked(len(p))
	c.mu.Unlock()
	copy(data, p)
	return data
}

// batchDeliver schedules pkt for delivery at this conn after delay
// (virtual mode only). Datagrams due at the same instant join the same
// batch: one kernel event, one gate Enter/Exit pair, however many
// datagrams the instant carries. Under Config.Unbatched every datagram
// gets a private batch, reproducing the one-event-per-datagram semantics.
func (c *pipeConn) batchDeliver(p []byte, from net.Addr, delay time.Duration) {
	due := c.clk.Now().Add(delay)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	data := c.allocLocked(len(p))
	copy(data, p)
	var b *delivBatch
	if !c.cfg.Unbatched {
		// Consecutive datagrams are almost always due at one instant, so the
		// map is consulted only when the instant changes.
		if b = c.lastBatch; b == nil || b.due != due {
			if c.batches == nil {
				c.batches = make(map[time.Time]*delivBatch)
			}
			b = c.batches[due]
		}
	}
	if b == nil {
		if b = c.batchFree; b != nil {
			c.batchFree = b.next
			b.next = nil
		} else {
			b = &delivBatch{conn: c}
			b.tmr = c.clk.NewTimer(b.fire)
		}
		b.due = due
		if !c.cfg.Unbatched {
			c.batches[due] = b
		}
		b.tmr.Reset(delay)
	}
	c.lastBatch = b // read only when batching
	b.pkts = append(b.pkts, packet{data: data, from: from})
	c.mu.Unlock()
}

// fireBatch delivers a due batch: it runs as a kernel event on the clock
// driver, stages the batch's datagrams, feeds as many as fit into the
// queue, and takes one gate hold that the reader releases only after
// draining the entire batch.
func (c *pipeConn) fireBatch(b *delivBatch) {
	c.mu.Lock()
	if c.batches[b.due] == b {
		delete(c.batches, b.due)
	}
	if c.lastBatch == b {
		c.lastBatch = nil
	}
	if !c.closed {
		c.staged = append(c.staged, b.pkts...)
		c.feedStagedLocked()
	}
	clear(b.pkts)
	b.pkts = b.pkts[:0]
	b.next = c.batchFree
	c.batchFree = b
	c.mu.Unlock()
}

// maxStagedCap bounds the staging slice's retained capacity: install-size
// bursts may grow it, but an idle conn gives the memory back.
const maxStagedCap = 4096

// feedStagedLocked moves staged datagrams into the queue until it fills
// or the stage empties, and takes the gate hold covering them; callers
// hold c.mu. The gate prevents further kernel events until the reader
// retires everything fed, so a stage larger than the queue drains in
// reader-paced slices at one frozen virtual instant — never dropping, and
// never letting the clock advance mid-batch.
func (c *pipeConn) feedStagedLocked() {
	fed := 0
loop:
	for c.stagedHead < len(c.staged) {
		select {
		case c.queue <- c.staged[c.stagedHead]:
			c.staged[c.stagedHead] = packet{}
			c.stagedHead++
			fed++
		default:
			break loop
		}
	}
	if c.stagedHead == len(c.staged) {
		if cap(c.staged) > maxStagedCap {
			c.staged = nil
		} else {
			c.staged = c.staged[:0]
		}
		c.stagedHead = 0
	}
	if fed > 0 {
		c.unretired += fed
		if !c.gateHeld {
			c.gateHeld = true
			c.gate.Enter()
		}
	}
}

func (c *pipeConn) sampleDelayLocked() time.Duration {
	d := c.cfg.Delay
	if c.cfg.Jitter > 0 {
		span := 2 * c.cfg.Jitter.Seconds()
		d = time.Duration((c.cfg.Delay.Seconds() - c.cfg.Jitter.Seconds() + c.rng.Float64()*span) * float64(time.Second))
	}
	return d
}

// enqueue copies and delivers one datagram immediately (wall mode;
// virtual mode delivers through batches).
func (c *pipeConn) enqueue(p []byte, from net.Addr) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	data := c.allocLocked(len(p))
	copy(data, p)
	select {
	case c.queue <- packet{data: data, from: from}:
	default:
		c.freeLocked(data) // queue overflow behaves like router-buffer drop
	}
}

// enqueueOwned delivers a datagram whose buffer was already copied with
// copyBuf (the delayed wall-mode path).
func (c *pipeConn) enqueueOwned(p packet) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	select {
	case c.queue <- p:
	default:
		c.freeLocked(p.data)
	}
}

// retireLocked tells the gate the reader has finished processing every
// datagram previously returned. Once everything fed so far is retired it
// feeds the next queue-sized slice of a staged batch, and releases the
// hold only when the whole batch has drained; callers hold c.mu.
func (c *pipeConn) retireLocked() {
	if c.handed > 0 {
		c.unretired -= c.handed
		c.handed = 0
	}
	if c.unretired == 0 {
		if c.stagedHead < len(c.staged) {
			c.feedStagedLocked()
			return
		}
		if c.gateHeld {
			c.gateHeld = false
			c.gate.Exit()
		}
	}
}

// armDeadline arms a deadline timer for one read and returns its signal
// channel plus the timer to stop and whether the conn's shared timer was
// claimed. The shared timer and channel are created once per conn and
// reused by every non-overlapping deadline read (the common single-reader
// case allocates nothing); stale fires from a previous deadline are
// drained here and re-checked against the clock by the caller, so reuse
// never produces an early timeout. Overlapping deadline reads get a
// private one-shot timer, preserving the old any-number-of-readers
// semantics.
func (c *pipeConn) armDeadline(d time.Duration) (<-chan struct{}, clock.Timer, bool) {
	c.mu.Lock()
	if !c.dlBusy {
		c.dlBusy = true
		if c.dlTimer == nil {
			ch := make(chan struct{}, 1)
			c.dlCh = ch
			c.dlTimer = c.clk.AfterFunc(d, func() {
				select {
				case ch <- struct{}{}:
				default:
				}
			})
			t := c.dlTimer
			c.mu.Unlock()
			return ch, t, true
		}
		t, ch := c.dlTimer, c.dlCh
		c.mu.Unlock()
		select { // drain a stale fire from an earlier deadline
		case <-ch:
		default:
		}
		t.Reset(d)
		return ch, t, true
	}
	c.mu.Unlock()
	ch := make(chan struct{})
	t := c.clk.AfterFunc(d, func() { close(ch) })
	return ch, t, false
}

// releaseDeadline stops a read's deadline timer and, for the shared one,
// returns it to the conn.
func (c *pipeConn) releaseDeadline(t clock.Timer, shared bool) {
	t.Stop()
	if shared {
		c.mu.Lock()
		c.dlBusy = false
		c.mu.Unlock()
	}
}

// ReadFrom blocks for the next datagram, honoring the read deadline. A
// fresh call signals that the previous datagram has been fully processed,
// which is what lets the virtual clock advance past its batch.
func (c *pipeConn) ReadFrom(p []byte) (int, net.Addr, error) {
	c.mu.Lock()
	if c.gate != nil {
		c.retireLocked()
	}
	deadline := c.readDeadline
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return 0, nil, net.ErrClosed
	}
	var timeout <-chan struct{}
	var dlTmr clock.Timer
	var dlShared bool
	if !deadline.IsZero() {
		d := deadline.Sub(c.clk.Now())
		if d <= 0 {
			return 0, nil, timeoutError{}
		}
		timeout, dlTmr, dlShared = c.armDeadline(d)
		defer c.releaseDeadline(dlTmr, dlShared)
	}
	for {
		select {
		case pkt := <-c.queue:
			n := copy(p, pkt.data)
			c.mu.Lock()
			c.freeLocked(pkt.data)
			if c.gate != nil && !c.closed {
				// Count the datagram as handed to the reader; Close already
				// zeroed the ledger (and released the hold) if it raced
				// this dequeue.
				c.handed++
			}
			c.mu.Unlock()
			return n, pkt.from, nil
		case <-c.done:
			return 0, nil, net.ErrClosed
		case <-timeout:
			if c.clk.Now().Before(deadline) {
				// Stale fire from a previous deadline that slipped past the
				// drain (shared timer only); rearm for the remainder and
				// keep waiting.
				dlTmr.Reset(deadline.Sub(c.clk.Now()))
				continue
			}
			return 0, nil, timeoutError{}
		}
	}
}

// Close shuts the endpoint: pending reads unblock with net.ErrClosed and
// later deliveries are dropped. The queue channel is never closed, so a
// peer's in-flight WriteTo can race Close safely. In virtual mode Close
// zeroes the gate ledger and releases any held batch, so a closed
// endpoint can never stall the clock; batches still scheduled fire into
// the closed conn and drop their datagrams.
func (c *pipeConn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	if c.gate != nil {
		c.handed = 0
		c.unretired = 0
		c.staged = nil
		c.stagedHead = 0
		if c.gateHeld {
			c.gateHeld = false
			c.gate.Exit()
		}
	}
	for {
		select {
		case <-c.queue: // discard; the conn (and its free list) is dead
			continue
		default:
		}
		break
	}
	c.mu.Unlock()
	close(c.done)
	return nil
}

// LocalAddr returns the endpoint name.
func (c *pipeConn) LocalAddr() net.Addr { return c.name }

// SetDeadline sets the read deadline (writes never block).
func (c *pipeConn) SetDeadline(t time.Time) error { return c.SetReadDeadline(t) }

// SetReadDeadline sets the read deadline.
func (c *pipeConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.readDeadline = t
	return nil
}

// SetWriteDeadline is a no-op: writes never block.
func (c *pipeConn) SetWriteDeadline(time.Time) error { return nil }

type timeoutError struct{}

func (timeoutError) Error() string   { return "lossy: i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

// Conn wraps an existing PacketConn, injecting loss and delay on writes.
// Reads pass through unchanged. Useful to impair one direction of a real
// UDP exchange in demos.
type Conn struct {
	net.PacketConn

	mu  sync.Mutex
	cfg Config
	clk clock.Clock
	rng *rand.Source
	wg  sync.WaitGroup
}

// Wrap wraps conn with impairments. Virtual clocks are rejected: Conn
// impairs *real* transports (UDP demos), does no quiesce-gate accounting,
// and its Close would deadlock a simulation driver waiting on deliveries
// only that driver can fire — simulated runs use Pipe or Network instead.
func Wrap(conn net.PacketConn, cfg Config) (*Conn, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.gate() != nil {
		return nil, errors.New("lossy: Wrap does not support virtual clocks; use Pipe or Network")
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 0xfeedface
	}
	return &Conn{PacketConn: conn, cfg: cfg, clk: clock.Or(cfg.Clock), rng: rand.NewSource(seed)}, nil
}

// WriteTo drops or delays the datagram before handing it to the wrapped
// conn. Delayed writes are best-effort: an error after the delay is
// unreportable, exactly as a network drop would be.
func (c *Conn) WriteTo(p []byte, to net.Addr) (int, error) {
	c.mu.Lock()
	drop := c.rng.Bernoulli(c.cfg.Loss)
	var delay time.Duration
	if c.cfg.Delay > 0 {
		jit := c.cfg.Jitter.Seconds()
		d := c.cfg.Delay.Seconds()
		if jit > 0 {
			d = d - jit + c.rng.Float64()*2*jit
		}
		delay = time.Duration(d * float64(time.Second))
	}
	c.mu.Unlock()
	if drop {
		return len(p), nil
	}
	if delay <= 0 {
		return c.PacketConn.WriteTo(p, to)
	}
	buf := bufpool.Get()
	buf.B = append(buf.B[:0], p...)
	c.wg.Add(1)
	c.clk.AfterFunc(delay, func() {
		defer c.wg.Done()
		_, _ = c.PacketConn.WriteTo(buf.B, to)
		buf.Free()
	})
	return len(p), nil
}

// Close waits for delayed writes, then closes the wrapped conn.
func (c *Conn) Close() error {
	c.wg.Wait()
	return c.PacketConn.Close()
}
