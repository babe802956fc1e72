package signal

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"softstate/internal/bufpool"
	"softstate/internal/clock"
	"softstate/internal/telemetry"
	"softstate/internal/transport"
	"softstate/internal/variant"
	"softstate/internal/wire"
)

// endpoint is what the sender core and the receiver have in common: the
// fenced transport, the configuration and the mechanism bundle it selects,
// the clock, the message counters and the observability stream.
type endpoint struct {
	cfg  Config
	prof variant.Profile
	tp   fencedConn
	clk  clock.Clock
	born time.Time // clock origin for activity and renewal stamps

	ctrs   counters
	closed atomic.Bool
	events eventSink
	// trace is the per-key lifecycle tracer (nil-safe); measure gates the
	// clock reads that stamp latencies, and the histograms each endpoint
	// keeps exist only when it is set (Config.Metrics).
	trace   *telemetry.Tracer
	measure bool
}

func (ep *endpoint) init(conn net.PacketConn, cfg Config) {
	cfg = cfg.withDefaults()
	ep.cfg, ep.prof = cfg, variant.For(cfg.Protocol)
	ep.tp.bc = transport.As(conn)
	ep.clk = clock.Or(cfg.Clock)
	ep.born = ep.clk.Now()
	ep.events = eventSink{ch: make(chan Event, eventBuffer), fn: cfg.OnEvent}
	ep.trace, ep.measure = cfg.Trace, cfg.Metrics != nil
}

// Events exposes the observability stream; the channel closes when the
// endpoint is closed.
func (ep *endpoint) Events() <-chan Event { return ep.events.ch }

// Stats returns a snapshot of message counters.
func (ep *endpoint) Stats() Stats { return ep.ctrs.snapshot() }

// SentDatagrams returns the cumulative signaling datagrams written.
func (ep *endpoint) SentDatagrams() int64 { return total(&ep.ctrs.sent) }

// ReceivedDatagrams returns the cumulative signaling datagrams accepted.
func (ep *endpoint) ReceivedDatagrams() int64 { return total(&ep.ctrs.received) }

func (ep *endpoint) emit(ev Event) { ep.events.emit(ev) }

// send encodes m onto a pooled buffer and transmits it to to, counting it
// if the transport took it. The buffer is recycled as soon as the write
// returns — safe because every transport copies the frame before WriteTo
// returns: in-memory pipes and plain sockets send it, and a udp-batch
// socket queues a copy for its writer.
func (ep *endpoint) send(m wire.Message, to net.Addr) {
	if to == nil {
		return
	}
	buf := bufpool.Get()
	defer buf.Free()
	data, err := m.Append(buf.B[:0])
	if err != nil {
		return
	}
	buf.B = data
	if ep.tp.write(data, to) {
		ep.ctrs.sent[m.Type].Add(1)
	}
}

// fencedConn fences writes to a transport.Conn against its closure.
// Writers hold the read lock across WriteTo/WriteBatch and close takes
// the write lock, so a write never races or follows Close — both
// endpoints share this one implementation so the fence cannot drift
// between them.
type fencedConn struct {
	bc     transport.Conn
	mu     sync.RWMutex // write-held only to close bc
	closed bool
}

// write transmits data to to, reporting whether a live transport accepted
// it (temporary timeouts count as sent, like a lossy link). Safe under
// shard locks: the transport, not the state table, serializes writes.
func (tp *fencedConn) write(data []byte, to net.Addr) bool {
	tp.mu.RLock()
	defer tp.mu.RUnlock()
	if tp.closed {
		return false
	}
	_, err := tp.bc.WriteTo(data, to)
	return err == nil || isNetTemporary(err)
}

// writeBatch transmits every message in one transport batch (one syscall
// on batching backends) and returns how many a live transport accepted.
func (tp *fencedConn) writeBatch(ms []transport.Message) int {
	tp.mu.RLock()
	defer tp.mu.RUnlock()
	if tp.closed {
		return 0
	}
	n, _ := tp.bc.WriteBatch(ms)
	return n
}

// close fences the transport shut and closes the conn, unblocking any
// reader pending in ReadFrom/ReadBatch.
func (tp *fencedConn) close() error {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	tp.closed = true
	return tp.bc.Close()
}

// eventBuffer is the observability channel's size: events beyond a full
// buffer are dropped, never blocking the protocol.
const eventBuffer = 256

// eventSink is the non-blocking observability stream, fenced so emitters
// never race the channel closing. An optional synchronous hook (fn) sees
// every event, even ones the channel would drop.
type eventSink struct {
	ch     chan Event
	fn     func(Event)  // Config.OnEvent; may be nil
	mu     sync.RWMutex // write-held only to close ch
	closed bool
}

// emit delivers ev without ever blocking the protocol, dropping it if the
// buffer is full or the sink already closed. The hook runs first so
// consumers that need lossless delivery (relays) see every event.
func (es *eventSink) emit(ev Event) {
	if es.fn != nil {
		es.fn(ev)
	}
	es.mu.RLock()
	if !es.closed {
		select {
		case es.ch <- ev:
		default:
		}
	}
	es.mu.RUnlock()
}

// close closes the stream (idempotently); callers must have stopped all
// emitters that are not fenced by emit's read lock.
func (es *eventSink) close() {
	es.mu.Lock()
	if !es.closed {
		es.closed = true
		close(es.ch)
	}
	es.mu.Unlock()
}
