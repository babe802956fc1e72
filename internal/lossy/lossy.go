// Package lossy provides transports for exercising the signaling runtime
// under adverse conditions: an in-memory net.PacketConn pair (Pipe) or
// many-endpoint switch (Network) with configurable loss, delay, and jitter
// (deterministic enough for tests). The endpoints are batching
// transport.Conns themselves.
//
// All impairment timing goes through a clock.Clock. Under clock.System the
// transports behave as before — delayed datagrams ride time.AfterFunc.
// Under a clock with a quiesce gate (clock.Virtual) every delivery, even a
// zero-delay one, becomes a kernel event, and the conns participate in the
// gate: delivering datagrams to a reader goroutine holds virtual time still
// until that reader has fully processed them (Enter when an event fills an
// empty ring, Exit when the reader comes back and finds it empty). That is
// what makes whole-protocol runs deterministic: at most one protocol
// goroutine is ever reacting to an event while the clock decides what fires
// next. In virtual mode each conn must have at most one reader goroutine.
package lossy

import (
	"errors"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"softstate/internal/clock"
	"softstate/internal/rand"
	"softstate/internal/transport"
)

// Config describes channel impairments.
type Config struct {
	// Loss is the probability a written datagram is silently dropped.
	Loss float64
	// Delay is the mean one-way delay added to each datagram.
	Delay time.Duration
	// Jitter, when positive, spreads the delay uniformly over
	// [Delay-Jitter, Delay+Jitter], drawn per datagram: a datagram that
	// draws a shorter delay overtakes the ones written before it, so a
	// jittered link reorders.
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
// independently subjected to cfg. Datagram boundaries are preserved. With
// cfg.Jitter == 0 each direction is FIFO, the paper's no-reorder channel,
// whatever the loss and delay (under the wall clock every delayed datagram
// rides its own runtime timer, so there only as far as the scheduler runs
// successive deadlines in order); with jitter every datagram draws its own
// delay and later ones overtake earlier ones. The two directions split
// their streams off cfg.Seed; a second Pipe built from the same cfg shares
// both streams with the first (see Config.Seed).
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

	// rules holds the current fault state (partitions, per-link loss
	// overrides) as an immutable snapshot: writes swap in a fresh copy
	// under mu, the per-datagram policy check is one atomic load. nil
	// means no faults — the common case costs a nil check.
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

// lookup resolves a destination address to its endpoint. It runs once per
// same-destination run of every write, so it reads the endpoint table
// lock-free: wall-clock fan-out writes from many goroutines do not contend
// on a switch mutex.
func (nw *Network) lookup(to net.Addr) *pipeConn {
	if to == nil {
		return nil
	}
	if c, ok := nw.eps.Load(to.String()); ok {
		return c.(*pipeConn)
	}
	return nil
}

// pipeConn is one endpoint of an in-memory pair or switch. It is a
// transport.Conn, so transport.As hands it to the signal layer as it is and
// a burst crosses the link in one WriteBatch and one ReadBatch.
type pipeConn struct {
	name  net.Addr // an addr, boxed once: every datagram written here carries it
	cfg   Config
	clk   clock.Clock
	gate  clock.Gate // non-nil in virtual mode
	route func(to net.Addr) *pipeConn
	// policy, when non-nil, consults the owning Network's fault rules per
	// write: allow=false blackholes the datagram (a partition), loss ≥ 0
	// overrides the configured loss probability for this directed link.
	// Pipe conns have no policy.
	policy func(from, to string) (allow bool, loss float64)
	st     transport.Stats

	mu     sync.Mutex
	rng    *rand.Source
	closed bool

	// ring is the one delivery queue: kernel events (virtual mode) and
	// writers or their delay timers (wall mode) append to it, reads take
	// from it. wake carries one token while it may be non-empty and is
	// closed by Close, so a reader without a deadline blocks on a plain
	// receive. lent holds the buffers the last ReadBatch handed out, to be
	// recycled by the next one.
	ring pktRing
	wake chan struct{}
	lent [][]byte

	// Virtual-mode deliveries due at the same instant coalesce into one
	// delivBatch and one kernel event, which appends the batch to the ring
	// and takes the gate hold. held is that hold: it is kept while the ring
	// is non-empty or datagrams are in the reader's hands, and released by
	// the read call that finds the ring empty — so virtual time stays frozen
	// until a whole burst, of any size, has been processed.
	batches   map[time.Time]*delivBatch // pending batches by due instant
	lastBatch *delivBatch               // the pending batch joined last: a burst's datagrams share an instant
	batchFree *delivBatch               // recycled batch objects (and their timers)
	held      bool

	// bufFree recycles datagram buffers through the conn they are delivered
	// to: writers take a buffer under the destination's lock and fill it —
	// the datagram's one copy — and the reader returns it once done with
	// it. Steady-state traffic allocates no per-datagram buffers. drawn
	// counts the buffers taken since the ring was last empty (keptBufs).
	bufFree [][]byte
	drawn   int

	// The read deadline is the conn's, as on any net.Conn: every blocked read
	// is held to the current one. dlTimer, made by the first read that has to
	// wait under a deadline, leaves the wake-up token when it runs out.
	readDeadline time.Time
	dlTimer      clock.Timer
}

var _ transport.Conn = (*pipeConn)(nil)

// pipeQueueDepth bounds the ring in wall mode, where nothing paces the
// writers; past it a delivery is dropped like a router-buffer overflow.
// Virtual mode never drops: the gate holds every writer until the ring is read.
const pipeQueueDepth = 1024

// maxFreeBufs bounds the recycled-buffer stack: the ring can hold
// pipeQueueDepth datagrams, plus slack for ones in the reader's hands.
// minFreeBufs is what the stack may always keep: one read call's worth.
const (
	maxFreeBufs = pipeQueueDepth + transport.DefaultBatchSize
	minFreeBufs = transport.DefaultBatchSize
)

// pktRing is a growable FIFO of datagrams: n of them from buf[head] on,
// wrapping at len(buf). Slots outside that stretch are zero.
type pktRing struct {
	buf     []packet
	head, n int
}

func (r *pktRing) push(p packet) {
	if r.n == len(r.buf) {
		grown := make([]packet, max(2*len(r.buf), 16))
		k := copy(grown, r.buf[r.head:])
		copy(grown[k:], r.buf[:r.head])
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = p // off the virtual hot path, where fireBatch swaps whole arrays in
	r.n++
}

func (r *pktRing) pop() packet {
	p := r.buf[r.head]
	r.buf[r.head] = packet{}
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return p
}

// keptPackets is the one rule for recycling a packet array, an empty
// ring's or a batch's going back to the free list: an array longer than
// pipeQueueDepth, grown by an install-size burst, is given back rather
// than kept for the next burst.
func keptPackets(buf []packet) []packet {
	if cap(buf) > pipeQueueDepth {
		return nil
	}
	return buf
}

// keptBufs is keptPackets' rule for the recycled buffers, applied when the
// ring is found empty: the stack keeps as many as the traffic since the
// last empty ring drew (and minFreeBufs), so an install burst's copies are
// given back once the traffic after it is smaller, while traffic of a
// steady size still finds every buffer it needs.
func keptBufs(free [][]byte, drawn int) [][]byte {
	keep := max(drawn, minFreeBufs)
	if len(free) <= keep {
		return free
	}
	clear(free[keep:])
	if cap(free) > 4*keep {
		return append(make([][]byte, 0, keep), free[:keep]...)
	}
	return free[:keep]
}

// allocLocked returns a length-n buffer, recycled when one fits; callers
// hold c.mu.
func (c *pipeConn) allocLocked(n int) []byte {
	c.drawn++
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

func newPipeConn(name string, cfg Config, rng *rand.Source) *pipeConn {
	clk := clock.Or(cfg.Clock)
	return &pipeConn{
		name: addr(name),
		cfg:  cfg,
		clk:  clk,
		gate: clk.Gate(),
		rng:  rng,
		wake: make(chan struct{}, 1),
	}
}

func (c *pipeConn) Stats() *transport.Stats { return &c.st }

// WriteTo is WriteBatch for one datagram.
func (c *pipeConn) WriteTo(p []byte, to net.Addr) (int, error) {
	m := [1]transport.Message{{Data: p, Addr: to}}
	if _, err := c.WriteBatch(m[:]); err != nil {
		return 0, err
	}
	return len(p), nil
}

// WriteBatch applies the fault policy, loss, and delay to every message in
// slice order — the rng stream is consumed exactly as len(ms) WriteTo calls
// would consume it — and hands each run of same-destination datagrams to
// its endpoint under one acquisition of that endpoint's lock. It works in
// stretches of DefaultBatchSize messages, each drawn under one acquisition
// of the sender's lock into a stack array, so a batch of any length
// allocates nothing. Dropped datagrams count as written, like on a lossy
// network.
func (c *pipeConn) WriteBatch(ms []transport.Message) (int, error) {
	// Under a virtual clock the writer is the driver or a gated reader, so
	// time cannot advance inside a write: one reading serves the batch.
	var now time.Time
	if c.gate != nil {
		now = c.clk.Now()
	}
	var stack [transport.DefaultBatchSize]time.Duration
	for lo := 0; lo < len(ms); lo += len(stack) {
		part := ms[lo:min(len(ms), lo+len(stack))]
		delays := stack[:len(part)]
		if !c.drawFates(part, delays) {
			if lo > 0 {
				c.st.ObserveWrite(int64(lo))
			}
			return lo, net.ErrClosed
		}
		c.deliver(part, delays, now)
	}
	c.st.ObserveWrite(int64(len(ms)))
	return len(ms), nil
}

// drawFates draws each message's delay into delays, negative for a
// datagram that is lost, under one acquisition of the sender's lock. It
// reports false, drawing nothing, once the conn is closed.
func (c *pipeConn) drawFates(ms []transport.Message, delays []time.Duration) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false
	}
	lossP, blocked := c.cfg.Loss, false
	for i := range ms {
		if c.policy != nil && (i == 0 || !sameAddr(ms[i].Addr, ms[i-1].Addr)) {
			lossP, blocked = c.linkPolicy(ms[i].Addr)
		}
		// The draws happen even on a blocked link, so a conn consumes its
		// rng stream at the same rate whether or not a partition is active —
		// replays of the same seed and fault schedule stay byte-identical.
		drop := c.rng.Bernoulli(lossP)
		delay := c.cfg.sampleDelay(c.rng)
		if drop || blocked {
			delay = -1
		}
		delays[i] = delay
	}
	return true
}

// deliver hands each run of same-destination datagrams of ms that were not
// lost to its endpoint.
func (c *pipeConn) deliver(ms []transport.Message, delays []time.Duration, now time.Time) {
	for lo := 0; lo < len(ms); {
		if delays[lo] < 0 {
			lo++
			continue
		}
		hi := lo + 1
		for hi < len(ms) && sameAddr(ms[hi].Addr, ms[lo].Addr) {
			hi++
		}
		if peer := c.route(ms[lo].Addr); peer != nil { // else unroutable: dropped
			peer.accept(c.name, ms[lo:hi], delays[lo:hi], now)
		}
		lo = hi
	}
}

// sameAddr reports whether two destinations are the same lossy address, the
// only kind a Network routes; anything else is looked up on its own.
func sameAddr(a, b net.Addr) bool {
	x, ok := a.(addr)
	y, ok2 := b.(addr)
	return ok && ok2 && x == y
}

// linkPolicy asks the owning Network's fault rules about the directed link
// to to: the loss probability to draw with — the configured one unless the
// link is open and overridden — and whether the link is blackholed.
func (c *pipeConn) linkPolicy(to net.Addr) (lossP float64, blocked bool) {
	if to == nil {
		return c.cfg.Loss, false
	}
	allow, lp := c.policy(c.name.String(), to.String())
	if !allow || lp < 0 {
		lp = c.cfg.Loss
	}
	return lp, !allow
}

// sampleDelay draws one datagram's delay; a link without jitter draws nothing.
func (c Config) sampleDelay(rng *rand.Source) time.Duration {
	d := c.Delay
	if c.Jitter > 0 {
		span := 2 * c.Jitter.Seconds()
		d = time.Duration((c.Delay.Seconds() - c.Jitter.Seconds() + rng.Float64()*span) * float64(time.Second))
	}
	return d
}

// accept takes one writer's run of datagrams at this (destination) conn.
// Each survivor is copied into a conn-owned buffer; in virtual mode it then
// rides the kernel — delivery order is decided by the clock, not by
// goroutine races — joining the batch of its due instant, and in wall mode
// it goes to the ring at once or when its delay timer fires.
func (c *pipeConn) accept(from net.Addr, ms []transport.Message, delays []time.Duration, now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	for i := range ms {
		delay := delays[i]
		if delay < 0 {
			continue
		}
		data := c.allocLocked(len(ms[i].Data))
		copy(data, ms[i].Data)
		switch {
		case c.gate != nil:
			c.joinLocked(packet{data: data, from: from}, now.Add(delay), delay)
		case delay == 0:
			c.pushLocked(packet{data: data, from: from})
		default:
			pkt := packet{data: data, from: from}
			c.clk.AfterFunc(delay, func() {
				c.mu.Lock()
				if !c.closed {
					c.pushLocked(pkt)
				}
				c.mu.Unlock()
			})
		}
	}
}

// joinLocked adds pkt to the batch due at this conn at due, delay from now:
// one kernel event and one gate hold per instant, however many datagrams
// the instant carries. The batch's timer is armed by its first datagram, so
// events fire in the order their instants were first written to.
func (c *pipeConn) joinLocked(pkt packet, due time.Time, delay time.Duration) {
	// Consecutive datagrams are almost always due at one instant, so the
	// map is consulted only when the instant changes.
	b := c.lastBatch
	if b == nil || b.due != due {
		if c.batches == nil {
			c.batches = make(map[time.Time]*delivBatch)
		}
		if b = c.batches[due]; b == nil {
			if b = c.batchFree; b != nil {
				c.batchFree, b.next = b.next, nil
			} else {
				b = &delivBatch{conn: c}
				b.tmr = c.clk.NewTimer(b.fire)
			}
			b.due = due
			c.batches[due] = b
			b.tmr.Reset(delay)
		}
		c.lastBatch = b
	}
	b.pkts = append(b.pkts, pkt)
}

// fireBatch delivers a due batch: it runs as a kernel event on the clock
// driver, appends the batch's datagrams to the ring and takes the gate
// hold, which the reader releases once it has drained the ring.
func (c *pipeConn) fireBatch(b *delivBatch) {
	c.mu.Lock()
	if c.batches[b.due] == b {
		delete(c.batches, b.due)
	}
	if c.lastBatch == b {
		c.lastBatch = nil
	}
	if !c.closed { // else the datagrams drop with the conn
		if c.ring.n == 0 {
			// As ever under a gate: no event fires before the last one's
			// datagrams are read. The batch becomes the ring as it stands,
			// and the ring's emptied array the next batch.
			c.ring, b.pkts = pktRing{buf: b.pkts, n: len(b.pkts)}, c.ring.buf[:0]
		}
		for _, pkt := range b.pkts {
			c.ring.push(pkt)
		}
		if !c.held {
			c.held = true
			c.gate.Enter()
		}
		c.wakeLocked()
	}
	clear(b.pkts)
	b.pkts = keptPackets(b.pkts[:0])
	b.next = c.batchFree
	c.batchFree = b
	c.mu.Unlock()
}

// pushLocked appends a wall-mode delivery to the ring; callers hold c.mu
// and have checked c.closed.
func (c *pipeConn) pushLocked(pkt packet) {
	if c.ring.n >= pipeQueueDepth {
		c.freeLocked(pkt.data) // overflow behaves like router-buffer drop
		return
	}
	c.ring.push(pkt)
	c.wakeLocked()
}

// wakeLocked leaves the wake-up token for a blocked reader; callers hold
// c.mu and have checked c.closed.
func (c *pipeConn) wakeLocked() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// awaitLocked starts a read. A fresh read call means the reader has fully
// processed what the previous one returned, so with the ring empty it
// releases the gate hold and lets the virtual clock move on; then it blocks
// until the ring holds a datagram, honoring the read deadline. It is
// entered with c.mu held and returns nil with c.mu still held, or the
// error with c.mu released.
func (c *pipeConn) awaitLocked() error {
	if c.ring.n == 0 {
		c.ring = pktRing{buf: keptPackets(c.ring.buf)}
		c.bufFree, c.drawn = keptBufs(c.bufFree, c.drawn), 0
		if c.held {
			c.held = false
			c.gate.Exit()
		}
	}
	for {
		left := time.Duration(1)
		if !c.readDeadline.IsZero() {
			left = c.readDeadline.Sub(c.clk.Now())
		}
		switch {
		case c.closed:
			c.mu.Unlock()
			return net.ErrClosed
		case left <= 0:
			c.wakeLocked() // the timer left one token: every blocked reader is due it
			c.mu.Unlock()
			return timeoutError{}
		case c.ring.n > 0:
			return nil
		case !c.readDeadline.IsZero():
			if c.dlTimer == nil {
				c.dlTimer = c.clk.NewTimer(c.kick)
			}
			c.dlTimer.Reset(left)
		}
		c.mu.Unlock()
		<-c.wake // a token, or Close
		c.mu.Lock()
	}
}

// leaveLocked ends a read and releases c.mu. Only one token is ever
// pending, so a wall-mode reader that leaves datagrams behind passes the
// wake-up on and concurrent ReadFrom callers all make progress.
func (c *pipeConn) leaveLocked() {
	if c.gate == nil && c.ring.n > 0 {
		c.wakeLocked()
	}
	c.mu.Unlock()
}

// ReadBatch blocks for the first datagram, then takes up to len(ms) from
// the ring under the one lock acquisition. Data is the conn-owned buffer
// the writer filled, not a copy: it is recycled by the next ReadBatch, so
// an endpoint has one ReadBatch consumer.
func (c *pipeConn) ReadBatch(ms []transport.Message) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	c.mu.Lock()
	for i, b := range c.lent {
		c.freeLocked(b)
		c.lent[i] = nil
	}
	c.lent = c.lent[:0]
	if err := c.awaitLocked(); err != nil {
		return 0, err
	}
	n := min(len(ms), c.ring.n)
	for i := 0; i < n; i++ {
		pkt := c.ring.pop()
		ms[i].Data, ms[i].Addr = pkt.data, pkt.from
		c.lent = append(c.lent, pkt.data)
	}
	c.leaveLocked()
	c.st.ObserveRead(int64(n))
	return n, nil
}

// ReadFrom takes one datagram and copies it into p. Any number of wall-mode
// goroutines may call it at once.
func (c *pipeConn) ReadFrom(p []byte) (int, net.Addr, error) {
	c.mu.Lock()
	if err := c.awaitLocked(); err != nil {
		return 0, nil, err
	}
	pkt := c.ring.pop()
	n := copy(p, pkt.data)
	c.freeLocked(pkt.data)
	c.leaveLocked()
	c.st.ObserveRead(1)
	return n, pkt.from, nil
}

// Close shuts the endpoint: pending reads unblock with net.ErrClosed and
// later deliveries are dropped — every path into the ring checks closed
// under c.mu, so a peer's in-flight write can race Close safely. In
// virtual mode Close empties the ring and releases the gate hold, so a
// closed endpoint can never stall the clock; batches still scheduled fire
// into the closed conn and drop their datagrams.
func (c *pipeConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	c.ring, c.lent = pktRing{}, nil // a reader may still hold lent's buffers; nobody reuses them
	if c.held {
		c.held = false
		c.gate.Exit()
	}
	close(c.wake)
	return nil
}

// LocalAddr returns the endpoint name.
func (c *pipeConn) LocalAddr() net.Addr { return c.name }

// SetDeadline sets the read deadline (writes never block).
func (c *pipeConn) SetDeadline(t time.Time) error { return c.SetReadDeadline(t) }

// SetReadDeadline sets the read deadline, for blocked reads too.
func (c *pipeConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline = t
	c.mu.Unlock()
	c.kick()
	return nil
}

// kick wakes a blocked read to look at the clock and the deadline again.
func (c *pipeConn) kick() {
	c.mu.Lock()
	if !c.closed {
		c.wakeLocked()
	}
	c.mu.Unlock()
}

// SetWriteDeadline is a no-op: writes never block.
func (c *pipeConn) SetWriteDeadline(time.Time) error { return nil }

type timeoutError struct{}

func (timeoutError) Error() string   { return "lossy: i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }
