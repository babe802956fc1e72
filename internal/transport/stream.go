package transport

import (
	"bufio"
	crand "crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"softstate/internal/bufpool"
)

// streamBufSize sizes the per-connection bufio reader and writer. 64 KB
// holds a whole WriteBatch of frames, so one flush is one TCP write.
const streamBufSize = 64 << 10

// streamDialTimeout bounds one (re)connect attempt.
const streamDialTimeout = 5 * time.Second

// StreamAddr is the net.Addr a Stream presents for peers identified by
// their stable stream identity (the hello-frame string) rather than a
// socket address. It is what keeps receiver-side state alive across
// reconnects: a dialer that drops and redials arrives with the same
// identity, hence the same source address, hence the same per-(source,
// key) entries and sequence space — receivers never observe a sequence
// regression.
type StreamAddr string

// Network implements net.Addr.
func (a StreamAddr) Network() string { return "softstate+stream" }

// String implements net.Addr.
func (a StreamAddr) String() string { return string(a) }

// errPeerGone marks a send to an accepted peer whose connection died:
// the stream cannot dial an identity, so the datagram is dropped like a
// lossy link would and protocol retransmission recovers.
var errPeerGone = errors.New("transport: stream peer not connected")

// inFrame is one received datagram queued for ReadBatch/ReadFrom.
type inFrame struct {
	buf  *bufpool.Buf
	from net.Addr
}

// Stream is the reliable transport backend: signaling datagrams framed
// over per-peer TCP connections behind the same Conn interface the UDP
// backends implement. A Stream with a listener accepts inbound peers
// (keyed by their hello identity) and can also dial out; a Stream without
// one is dial-only. Dialed peers reconnect transparently on write
// failure — combined with StreamAddr identities, a sender session's
// monotone sequence space survives any number of TCP reconnects.
//
// Stats semantics: ReadCalls/WriteCalls count TCP socket reads and
// writes (one flush per touched peer per WriteBatch), datagram counters
// count frames.
type Stream struct {
	name string
	ln   net.Listener
	o    Options
	st   Stats

	inbox chan inFrame
	done  chan struct{}

	rmu  sync.Mutex     // serializes ReadBatch and guards lent
	lent []*bufpool.Buf // the frames the last ReadBatch handed out

	mu     sync.Mutex
	peers  map[string]*streamPeer
	closed bool

	wg sync.WaitGroup
}

// NewStream creates a stream transport. ln, when non-nil, accepts
// inbound peer connections (and its address becomes the default
// identity); a nil ln makes a dial-only client. name is the stable
// identity announced in the hello frame of outbound connections — reusing
// a name across process restarts resumes the same receiver-side source
// address. An empty name defaults to the listener address, or a random
// token for dial-only streams.
func NewStream(name string, ln net.Listener, o Options) *Stream {
	o = o.withDefaults()
	if name == "" {
		if ln != nil {
			name = ln.Addr().String()
		} else {
			name = randomStreamName()
		}
	}
	s := &Stream{
		name:  name,
		ln:    ln,
		o:     o,
		inbox: make(chan inFrame, 4*DefaultBatchSize),
		done:  make(chan struct{}),
		peers: make(map[string]*streamPeer),
	}
	if ln != nil {
		s.wg.Add(1)
		go s.acceptLoop()
	}
	return s
}

func randomStreamName() string {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return fmt.Sprintf("stream-%d", os.Getpid())
	}
	return "stream-" + hex.EncodeToString(b[:])
}

// Stats implements Conn.
func (s *Stream) Stats() *Stats { return &s.st }

// LocalAddr returns the listener address, or the stream identity for
// dial-only streams.
func (s *Stream) LocalAddr() net.Addr {
	if s.ln != nil {
		return s.ln.Addr()
	}
	return StreamAddr(s.name)
}

// Deadlines are not meaningful on the multiplexed stream; the methods
// exist to satisfy net.PacketConn and accept every setting.
func (s *Stream) SetDeadline(time.Time) error      { return nil }
func (s *Stream) SetReadDeadline(time.Time) error  { return nil }
func (s *Stream) SetWriteDeadline(time.Time) error { return nil }

// ReadFrom delivers the next received datagram.
func (s *Stream) ReadFrom(b []byte) (int, net.Addr, error) {
	select {
	case f := <-s.inbox:
		n := copy(b, f.buf.B)
		from := f.from
		f.buf.Free()
		s.st.ObserveRead(1)
		return n, from, nil
	case <-s.done:
		return 0, nil, net.ErrClosed
	}
}

// ReadBatch blocks for the first datagram, then drains whatever else is
// already queued, up to len(ms). Data is the received frame's own buffer,
// returned to the pool by the next ReadBatch.
func (s *Stream) ReadBatch(ms []Message) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	s.rmu.Lock()
	defer s.rmu.Unlock()
	for i, b := range s.lent {
		b.Free()
		s.lent[i] = nil
	}
	s.lent = s.lent[:0]
	var f inFrame
	select {
	case f = <-s.inbox:
	case <-s.done:
		return 0, net.ErrClosed
	}
	n := 0
	for {
		ms[n].Data = f.buf.B
		ms[n].Addr = f.from
		s.lent = append(s.lent, f.buf)
		n++
		if n == len(ms) {
			break
		}
		drained := false
		select {
		case f = <-s.inbox:
			drained = true
		default:
		}
		if !drained {
			break
		}
	}
	s.st.ReadDatagrams.Add(int64(n))
	s.st.ReadFrames.Add(int64(n))
	s.st.ReadBatchSize.Observe(time.Duration(n))
	return n, nil
}

// WriteTo frames data to the peer at addr, dialing or redialing as
// needed. Per datagram semantics, an unreachable peer loses the datagram
// (protocol retransmission recovers) rather than failing the call.
func (s *Stream) WriteTo(data []byte, addr net.Addr) (int, error) {
	p, err := s.peerFor(addr)
	if err != nil {
		return 0, err
	}
	p.sendData(data, true)
	return len(data), nil
}

// WriteBatch frames every message to its peer, then flushes each touched
// peer once — many datagrams per TCP write.
func (s *Stream) WriteBatch(ms []Message) (int, error) {
	var touched []*streamPeer
	for i := range ms {
		p, err := s.peerFor(ms[i].Addr)
		if err != nil {
			s.flushPeers(touched)
			return i, err
		}
		if p.sendData(ms[i].Data, false) {
			seen := false
			for _, t := range touched {
				if t == p {
					seen = true
					break
				}
			}
			if !seen {
				touched = append(touched, p)
			}
		}
	}
	s.flushPeers(touched)
	return len(ms), nil
}

func (s *Stream) flushPeers(peers []*streamPeer) {
	for _, p := range peers {
		p.mu.Lock()
		if p.bw != nil && p.flushLocked() != nil {
			p.resetLocked()
		}
		p.mu.Unlock()
	}
}

// peerFor returns (creating if needed) the peer slot for addr. A
// StreamAddr names an accepted identity and is never dialed; any other
// addr doubles as the dial target.
func (s *Stream) peerFor(addr net.Addr) (*streamPeer, error) {
	key := addr.String()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, net.ErrClosed
	}
	p := s.peers[key]
	if p == nil {
		p = &streamPeer{s: s, key: key, from: addr}
		if _, isID := addr.(StreamAddr); !isID {
			p.target = key
		}
		s.peers[key] = p
	}
	return p, nil
}

// Close shuts the listener and every peer connection and waits for the
// reader goroutines. Idempotent.
func (s *Stream) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	peers := make([]*streamPeer, 0, len(s.peers))
	for _, p := range s.peers {
		peers = append(peers, p)
	}
	s.mu.Unlock()
	close(s.done)
	if s.ln != nil {
		s.ln.Close()
	}
	for _, p := range peers {
		p.mu.Lock()
		p.resetLocked()
		p.mu.Unlock()
	}
	s.wg.Wait()
	// Drain queued frames back to the pool; readers are unblocked by the
	// done channel, not by inbox closure.
	for {
		select {
		case f := <-s.inbox:
			f.buf.Free()
		default:
			return nil
		}
	}
}

func (s *Stream) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go s.readAccepted(&countingConn{Conn: c, st: &s.st})
	}
}

// readAccepted owns one inbound connection: identity handshake, then
// frame consumption attributed to StreamAddr(identity).
func (s *Stream) readAccepted(c net.Conn) {
	defer s.wg.Done()
	br := bufio.NewReaderSize(c, streamBufSize)
	buf := make([]byte, maxFramePayload)
	typ, payload, err := readFrame(br, buf)
	if err != nil || typ != frameHello || len(payload) == 0 {
		c.Close()
		return
	}
	p, gen := s.adoptAccepted(string(payload), c)
	if p == nil {
		c.Close()
		return
	}
	s.consume(br, buf, p.from)
	p.dropConn(c, gen)
}

// adoptAccepted registers conn as identity's live connection, replacing
// (and closing) any previous one — a reconnecting dialer resumes its
// source address, so receiver-side state and sequence spaces carry over.
func (s *Stream) adoptAccepted(id string, c net.Conn) (*streamPeer, int) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, 0
	}
	p := s.peers[id]
	if p == nil {
		p = &streamPeer{s: s, key: id, from: StreamAddr(id)}
		s.peers[id] = p
	}
	s.mu.Unlock()
	p.mu.Lock()
	if p.c != nil {
		p.c.Close()
	}
	p.gen++
	gen := p.gen
	p.c = c
	p.bw = bufio.NewWriterSize(c, streamBufSize)
	p.pending = 0
	p.mu.Unlock()
	return p, gen
}

// consume delivers data frames from br into the inbox until the
// connection dies or the stream closes.
func (s *Stream) consume(br *bufio.Reader, buf []byte, from net.Addr) {
	for {
		typ, payload, err := readFrame(br, buf)
		if err != nil {
			return
		}
		if typ != frameData {
			continue
		}
		b := bufpool.Get()
		b.B = append(b.B[:0], payload...)
		select {
		case s.inbox <- inFrame{buf: b, from: from}:
		case <-s.done:
			b.Free()
			return
		}
	}
}

// readDialed consumes replies on a dialed connection; inbound frames are
// attributed to the address that was dialed, so the signal layer's
// per-peer lookup matches its session keys.
func (s *Stream) readDialed(c net.Conn, p *streamPeer, gen int) {
	defer s.wg.Done()
	br := bufio.NewReaderSize(c, streamBufSize)
	buf := make([]byte, maxFramePayload)
	s.consume(br, buf, p.from)
	p.dropConn(c, gen)
}

// streamPeer is one remote endpoint's connection state: the live conn
// (if any), its buffered writer, and the generation counter that stops a
// dead connection's reader from tearing down its replacement.
type streamPeer struct {
	s      *Stream
	key    string   // peers-map key
	target string   // dial target; "" for accepted identities
	from   net.Addr // source address stamped on this peer's inbound frames

	mu      sync.Mutex
	c       net.Conn
	bw      *bufio.Writer
	pending int // frames buffered since the last flush
	gen     int
}

// sendData frames data to the peer, optionally flushing immediately. A
// failed write on a dialable peer redials once; on an accepted peer the
// datagram is dropped (the dialer owns reconnection). Returns whether
// the frame was buffered on a live connection.
func (p *streamPeer) sendData(data []byte, flush bool) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for attempt := 0; attempt < 2; attempt++ {
		if err := p.connectLocked(); err != nil {
			return false
		}
		if err := writeFrame(p.bw, frameData, data); err == nil {
			p.pending++
			if !flush {
				return true
			}
			if p.flushLocked() == nil {
				return true
			}
		}
		p.resetLocked()
		if p.target == "" {
			return false
		}
	}
	return false
}

// connectLocked ensures a live connection, dialing and handshaking when
// the peer is dialable. Callers hold p.mu.
func (p *streamPeer) connectLocked() error {
	if p.c != nil {
		return nil
	}
	if p.target == "" {
		return errPeerGone
	}
	raw, err := net.DialTimeout("tcp", p.target, streamDialTimeout)
	if err != nil {
		return err
	}
	c := &countingConn{Conn: raw, st: &p.s.st}
	bw := bufio.NewWriterSize(c, streamBufSize)
	err = writeFrame(bw, frameHello, []byte(p.s.name))
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		raw.Close()
		return err
	}
	// The spawn is fenced by the stream lock so a concurrent Close either
	// sees this connection in the peer table or refuses the Add.
	p.s.mu.Lock()
	if p.s.closed {
		p.s.mu.Unlock()
		raw.Close()
		return net.ErrClosed
	}
	p.s.wg.Add(1)
	p.s.mu.Unlock()
	p.gen++
	p.c = c
	p.bw = bw
	p.pending = 0
	go p.s.readDialed(c, p, p.gen)
	return nil
}

func (p *streamPeer) flushLocked() error {
	if p.pending == 0 {
		return nil
	}
	if err := p.bw.Flush(); err != nil {
		return err
	}
	p.s.st.WriteDatagrams.Add(int64(p.pending))
	p.s.st.WriteFrames.Add(int64(p.pending))
	p.s.st.WriteBatchSize.Observe(time.Duration(p.pending))
	p.pending = 0
	return nil
}

// resetLocked drops the live connection (if any); the generation bump
// tells its reader goroutine the teardown already happened.
func (p *streamPeer) resetLocked() {
	if p.c != nil {
		p.c.Close()
		p.c = nil
	}
	p.bw = nil
	p.pending = 0
	p.gen++
}

// dropConn clears the peer's connection if c is still current; a stale
// generation means a reconnect already replaced it.
func (p *streamPeer) dropConn(c net.Conn, gen int) {
	p.mu.Lock()
	if p.gen == gen {
		p.resetLocked()
	} else {
		c.Close()
	}
	p.mu.Unlock()
}

// countingConn counts TCP socket reads and writes into the stream's
// Stats, so datagrams-per-syscall is measurable on the reliable backend
// too.
type countingConn struct {
	net.Conn
	st *Stats
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.st.ReadCalls.Add(1)
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.st.WriteCalls.Add(1)
	}
	return n, err
}
