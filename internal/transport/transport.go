// Package transport is the kernel-socket layer of the signaling runtime:
// batched datagram I/O the node and signal layers write into instead of a
// raw net.PacketConn. A Conn moves many datagrams per syscall where the
// platform allows it, and counts what it does — syscalls, datagrams,
// batch-size distributions — so the paper's wire-cost metrics extend down
// to the kernel crossing.
//
// Three backends here share the Conn interface, and the in-memory links of
// internal/lossy implement it themselves (As returns them as they are), so
// the virtual-time harness batches natively too:
//
//   - udp-batch (ListenUDPBatch on linux/amd64 and linux/arm64): real
//     sendmmsg/recvmmsg over one or more SO_REUSEPORT sockets, the
//     production path. A read delivers up to DefaultBatchSize frames; a
//     sendmmsg lays out up to MaxWriteBatch, the summary sweep's batch,
//     while the small writers (acks, probes) hand over DefaultBatchSize.
//     WriteTo (a trigger) copies its frame into the socket's queue and
//     returns; the socket's writer sends the queue through the same
//     sendmmsg path, and WriteBatch sends it before its own batch. A run
//     of frames to one peer, queued or batched, shares a kernel datagram
//     up to the route's MTU (coalesce.go); every backend's reader splits
//     it again. The x/net ipv4.PacketConn batch API would provide the
//     same calls, but this repo builds hermetically with a zero-dep
//     go.mod, so the two syscalls are bound directly.
//   - plain (Wrap): any other net.PacketConn — kernel UDP sockets on other
//     platforms, a test's or a demo's own wrapper around a link. One
//     datagram per call, in the WriteTo order of the batch it is handed;
//     a coalesced datagram read is split into its frames.
//   - stream (NewStream): length-prefixed datagram framing over TCP for
//     the reliable variants, with reconnect-and-resume semantics.
//
// All Conn implementations are safe for concurrent use.
package transport

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"softstate/internal/telemetry"
)

const (
	// DefaultBatchSize is the most frames a udp-batch ReadBatch delivers
	// per call, the read slots NewBatch sizes by default, and the batch of
	// the small writers (ack flushes, probe rounds). 32 amortizes the ~1 µs
	// kernel crossing to noise, and a write ring holds that many
	// datagrams, so a small writer's batch of lone frames to as many peers
	// leaves in one sendmmsg.
	DefaultBatchSize = 32
	// MaxWriteBatch is the most frames one udp-batch sendmmsg lays out,
	// and the summary sweep's batch: a sweep's run of 64 frames to one
	// peer leaves as one coalesced datagram, four peers' runs in one call.
	// A coalesced datagram gathers two iovecs a frame, and the kernel
	// gathers at most 1,024, so the write ring's frames can all go to one
	// peer (udp_linux.go holds 2 × MaxWriteBatch ≤ 1,024 at compile time).
	MaxWriteBatch = 256
	// MaxDatagram bounds one datagram: 65,507 B, IPv4's largest UDP
	// payload, so a coalesced datagram can fill any route's MTU. Every
	// udp-batch and Wrap receive buffer is this long, so none truncates
	// what a udp-batch writer sends; anything longer (only IPv6 carries
	// it) is counted in Stats.Truncated. A lone frame is at most
	// wire.MaxFrameLen, the stream's bound.
	MaxDatagram = 65535 - ipv4Overhead
)

// Message is one frame slot in a batch. ReadBatch sets Data to a frame
// held in storage the conn lends — a receive ring a kernel
// socket borrowed, a stream's frame buffer, a lossy endpoint's buffer its
// writer filled — and Data stays valid until the next ReadBatch on the
// same conn, no longer: after that call the storage may be lent to another
// conn. So run one ReadBatch consumer per read lane (Fanout), and copy
// what must outlive the stride. For writes the caller sets Data and Addr,
// and gets Data back untouched when the write returns.
type Message struct {
	Data []byte
	Addr net.Addr
}

// NewBatch returns n empty message slots (DefaultBatchSize when n <= 0):
// a read loop's batch, which the conn fills with datagrams it holds.
func NewBatch(n int) []Message {
	if n <= 0 {
		n = DefaultBatchSize
	}
	return make([]Message, n)
}

// Conn is a net.PacketConn that can additionally move whole batches per
// call. ReadBatch blocks until at least one frame is available, fills
// up to len(ms) slots, and returns the count; WriteBatch transmits every
// message (retrying partial kernel completions) and returns how many the
// transport accepted — per-message temporary failures count as accepted,
// like a lossy link, while a hard transport error stops the batch.
// WriteTo may return before its frame reaches the kernel (udp-batch
// queues it for the socket's writer); a frame that then cannot be sent is
// counted in Stats.WriteFailed.
type Conn interface {
	net.PacketConn
	ReadBatch(ms []Message) (int, error)
	WriteBatch(ms []Message) (int, error)
	Stats() *Stats
}

// Multi is implemented by conns that multiplex several kernel sockets
// (SO_REUSEPORT shards): each sub-conn is an independent read lane.
type Multi interface {
	Conns() []Conn
}

// Fanout returns c's independent read lanes: its sub-conns when c is a
// Multi, else c itself. Run one read loop per lane.
func Fanout(c Conn) []Conn {
	if m, ok := c.(Multi); ok {
		return m.Conns()
	}
	return []Conn{c}
}

// As returns pc itself when it is already a Conn, else Wrap(pc).
func As(pc net.PacketConn) Conn {
	if c, ok := pc.(Conn); ok {
		return c
	}
	return Wrap(pc)
}

// Stats counts a conn's kernel-boundary activity. The fields are
// value-embedded telemetry instruments, so reading them is free and a
// metrics registry can expose them without a second set of increments.
// Datagrams are what crossed the kernel; frames are what callers handed in
// and were handed out. They differ only where the udp-batch backend
// coalesces a run of frames into one datagram (coalesce.go); everywhere
// else a datagram is one frame. Batch-size histograms observe datagram
// counts per call (1 unit = 1 datagram, stored in the histogram's duration
// domain).
type Stats struct {
	ReadCalls      telemetry.Counter // read syscalls (or transport reads)
	ReadDatagrams  telemetry.Counter // datagrams the reads took, dropped ones included
	ReadFrames     telemetry.Counter // frames delivered to ReadBatch/ReadFrom
	WriteCalls     telemetry.Counter // write syscalls (or transport writes)
	WriteDatagrams telemetry.Counter // datagrams handed to the kernel
	WriteFrames    telemetry.Counter // frames the written datagrams carried
	Truncated      telemetry.Counter // oversized inbound datagrams dropped
	// Malformed counts inbound datagrams dropped whole: a source address
	// that does not decode, or a coalesced datagram whose lengths do not
	// tile it.
	Malformed telemetry.Counter
	// Overflowed counts inbound datagrams the kernel dropped because the
	// socket's receive queue was full, as the next datagram to arrive
	// reports them (udp-batch, through SO_RXQ_OVFL).
	Overflowed telemetry.Counter
	// WriteFailed counts frames a write accepted that never reached the
	// kernel: a udp-batch WriteTo returns once its frame is queued, and the
	// writer that sends it later can meet a hard sendmmsg error or a closed
	// socket.
	WriteFailed telemetry.Counter
	// ReadBuffer is the receive buffer the kernel granted a udp-batch
	// socket, in bytes, as getsockopt(SO_RCVBUF) reports it: on linux
	// twice the request capped at net.core.rmem_max, the doubling being
	// room for the kernel's bookkeeping.
	ReadBuffer     telemetry.Gauge
	ReadBatchSize  telemetry.Histogram
	WriteBatchSize telemetry.Histogram
}

// ObserveRead records one read call that delivered dgrams datagrams of
// one frame each.
func (s *Stats) ObserveRead(dgrams int64) {
	s.observeReadCall(dgrams)
	s.ReadFrames.Add(dgrams)
}

// observeReadCall records one read call that took dgrams datagrams; the
// frames they hold are counted as they are delivered.
func (s *Stats) observeReadCall(dgrams int64) {
	s.ReadCalls.Add(1)
	s.ReadDatagrams.Add(dgrams)
	s.ReadBatchSize.Observe(time.Duration(dgrams))
}

// ObserveWrite records one write call that took dgrams datagrams of one
// frame each.
func (s *Stats) ObserveWrite(dgrams int64) { s.observeWrite(dgrams, dgrams) }

// observeWrite records one write call that sent frames frames in dgrams
// datagrams.
func (s *Stats) observeWrite(frames, dgrams int64) {
	s.WriteCalls.Add(1)
	s.WriteDatagrams.Add(dgrams)
	s.WriteFrames.Add(frames)
	s.WriteBatchSize.Observe(time.Duration(dgrams))
}

// Register exposes the counters and batch-size histograms on reg under
// the given constant labels. A nil registry is a no-op.
func (s *Stats) Register(reg *telemetry.Registry, labels telemetry.Labels) {
	if reg == nil {
		return
	}
	reg.RegisterCounter(telemetry.Opts{
		Name:   "softstate_transport_read_syscalls_total",
		Help:   "Transport read syscalls (recvmmsg/recvfrom/stream reads).",
		Labels: labels,
	}, &s.ReadCalls)
	reg.RegisterCounter(telemetry.Opts{
		Name:   "softstate_transport_read_datagrams_total",
		Help:   "Datagrams the transport read path took, dropped ones included.",
		Labels: labels,
	}, &s.ReadDatagrams)
	reg.RegisterCounter(telemetry.Opts{
		Name:   "softstate_transport_read_frames_total",
		Help:   "Frames the transport read path delivered (a coalesced datagram carries several).",
		Labels: labels,
	}, &s.ReadFrames)
	reg.RegisterCounter(telemetry.Opts{
		Name:   "softstate_transport_write_syscalls_total",
		Help:   "Transport write syscalls (sendmmsg/sendto/stream flushes).",
		Labels: labels,
	}, &s.WriteCalls)
	reg.RegisterCounter(telemetry.Opts{
		Name:   "softstate_transport_write_datagrams_total",
		Help:   "Datagrams the transport write path handed to the kernel.",
		Labels: labels,
	}, &s.WriteDatagrams)
	reg.RegisterCounter(telemetry.Opts{
		Name:   "softstate_transport_write_frames_total",
		Help:   "Frames the transport write path sent (a coalesced datagram carries several).",
		Labels: labels,
	}, &s.WriteFrames)
	reg.RegisterCounter(telemetry.Opts{
		Name:   "softstate_transport_truncated_total",
		Help:   "Oversized inbound datagrams dropped by the batch rings.",
		Labels: labels,
	}, &s.Truncated)
	reg.RegisterCounter(telemetry.Opts{
		Name:   "softstate_transport_malformed_total",
		Help:   "Inbound datagrams dropped whole: an undecodable source address, or a coalesced datagram whose lengths overrun it.",
		Labels: labels,
	}, &s.Malformed)
	reg.RegisterCounter(telemetry.Opts{
		Name:   "softstate_transport_overflowed_total",
		Help:   "Inbound datagrams the kernel dropped on a full socket receive queue (SO_RXQ_OVFL).",
		Labels: labels,
	}, &s.Overflowed)
	reg.RegisterCounter(telemetry.Opts{
		Name:   "softstate_transport_write_failed_total",
		Help:   "Frames a write accepted that never reached the kernel: a hard send error or a closed socket under a queued send.",
		Labels: labels,
	}, &s.WriteFailed)
	reg.GaugeFunc(telemetry.Opts{
		Name:   "softstate_transport_read_buffer_bytes",
		Help:   "Receive buffer the kernel granted a udp-batch socket (getsockopt SO_RCVBUF).",
		Labels: labels,
	}, func() float64 { return float64(s.ReadBuffer.Value()) })
	reg.RegisterHistogram(telemetry.Opts{
		Name:   "softstate_transport_read_batch_datagrams",
		Help:   "Datagrams per read syscall (batch-size distribution).",
		Labels: labels,
	}, &s.ReadBatchSize)
	reg.RegisterHistogram(telemetry.Opts{
		Name:   "softstate_transport_write_batch_datagrams",
		Help:   "Datagrams per write syscall (batch-size distribution).",
		Labels: labels,
	}, &s.WriteBatchSize)
}

// writeChunks drives transmit until all n prepared messages are out:
// transmit(off) sends some suffix starting at off and returns how many it
// moved. Partial kernel completions (sendmmsg accepting fewer than asked)
// resume where they stopped; a zero count without error stops the loop.
func writeChunks(n int, transmit func(off int) (int, error)) (int, error) {
	sent := 0
	for sent < n {
		cnt, err := transmit(sent)
		if err != nil {
			return sent, err
		}
		if cnt <= 0 {
			break
		}
		sent += cnt
	}
	return sent, nil
}

// isTemporary mirrors the signal layer's lossy-link semantics: a timeout
// counts as "sent and lost", not as a transport failure.
func isTemporary(err error) bool {
	ne, ok := err.(net.Error)
	return ok && ne.Timeout()
}

// wrapConn adapts any net.PacketConn to Conn: one datagram per call, with
// syscall accounting, in the exact WriteTo call order of the batch it is
// handed. Reads take each datagram into the conn's own buffer, allocated
// on the first read, and split a coalesced one (a udp-batch writer's)
// back into its frames; frames beyond the caller's slots wait there for
// the next read.
type wrapConn struct {
	net.PacketConn
	st Stats

	rmu  sync.Mutex // serializes reads and guards rbuf and cur
	rbuf []byte
	cur  frameCursor // the frames of rbuf's datagram not yet delivered
}

// Wrap adapts pc to the batch interface (pass-through batching: each slot
// is one underlying ReadFrom/WriteTo).
func Wrap(pc net.PacketConn) Conn { return &wrapConn{PacketConn: pc} }

func (c *wrapConn) Stats() *Stats { return &c.st }

// ReadFrom copies the next frame into p.
func (c *wrapConn) ReadFrom(p []byte) (int, net.Addr, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	var m [1]Message
	if _, err := c.readLocked(m[:]); err != nil {
		return 0, nil, err
	}
	return copy(p, m[0].Data), m[0].Addr, nil
}

func (c *wrapConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	n, err := c.PacketConn.WriteTo(p, addr)
	if err == nil || isTemporary(err) {
		c.st.ObserveWrite(1)
	}
	return n, err
}

// ReadBatch delivers the frames of one datagram, as many as ms holds.
func (c *wrapConn) ReadBatch(ms []Message) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	c.rmu.Lock()
	defer c.rmu.Unlock()
	return c.readLocked(ms)
}

// readLocked fills ms from the pending frames, reading a datagram first
// when none is pending; c.rmu is held.
func (c *wrapConn) readLocked(ms []Message) (int, error) {
	if c.rbuf == nil {
		c.rbuf = make([]byte, MaxDatagram)
	}
	for !c.cur.next(&ms[0]) {
		n, addr, err := c.PacketConn.ReadFrom(c.rbuf)
		if err != nil {
			return 0, err
		}
		c.st.observeReadCall(1)
		if !c.cur.load(c.rbuf[:n], addr) {
			c.st.Malformed.Add(1)
		}
	}
	out := 1
	for out < len(ms) && c.cur.next(&ms[out]) {
		out++
	}
	c.st.ReadFrames.Add(int64(out))
	return out, nil
}

func (c *wrapConn) WriteBatch(ms []Message) (int, error) {
	for i := range ms {
		if _, err := c.WriteTo(ms[i].Data, ms[i].Addr); err != nil && !isTemporary(err) {
			return i, err
		}
	}
	return len(ms), nil
}

// multiConn is N SO_REUSEPORT sockets behind one Conn: writes round-robin
// across sockets (the kernel hashes inbound flows to sockets on its own),
// reads on the combined conn use the first socket, and Conns exposes each
// socket as its own read lane. All sockets share one Stats.
type multiConn struct {
	conns []Conn
	st    *Stats
	next  atomic.Uint32
}

func (m *multiConn) Conns() []Conn { return m.conns }
func (m *multiConn) Stats() *Stats { return m.st }

// pick rotates the write socket. Exact fairness is irrelevant; spreading
// the send-buffer pressure is the point.
func (m *multiConn) pick() Conn {
	return m.conns[int(m.next.Add(1))%len(m.conns)]
}

func (m *multiConn) ReadFrom(p []byte) (int, net.Addr, error) { return m.conns[0].ReadFrom(p) }
func (m *multiConn) ReadBatch(ms []Message) (int, error)      { return m.conns[0].ReadBatch(ms) }
func (m *multiConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	return m.pick().WriteTo(p, addr)
}
func (m *multiConn) WriteBatch(ms []Message) (int, error) { return m.pick().WriteBatch(ms) }
func (m *multiConn) LocalAddr() net.Addr                  { return m.conns[0].LocalAddr() }

func (m *multiConn) Close() error {
	var first error
	for _, c := range m.conns {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (m *multiConn) SetDeadline(t time.Time) error {
	var first error
	for _, c := range m.conns {
		if err := c.SetDeadline(t); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (m *multiConn) SetReadDeadline(t time.Time) error {
	var first error
	for _, c := range m.conns {
		if err := c.SetReadDeadline(t); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (m *multiConn) SetWriteDeadline(t time.Time) error {
	var first error
	for _, c := range m.conns {
		if err := c.SetWriteDeadline(t); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Options configure the kernel-socket backends.
type Options struct {
	// Sockets is the SO_REUSEPORT socket count for ListenUDPBatch
	// (default 1). Each socket is an independent read lane; the kernel
	// hashes inbound flows across them.
	Sockets int
}

func (o Options) withDefaults() Options {
	if o.Sockets <= 0 {
		o.Sockets = 1
	}
	return o
}

// readBuffer is the SO_RCVBUF a ListenUDPBatch socket asks for: a fan-in
// burst of a full summary sweep must not overflow the socket before the
// read loop drains it. The kernel caps the request at net.core.rmem_max;
// Stats.ReadBuffer reports what it granted.
const readBuffer = 4 << 20
