//go:build linux && (amd64 || arm64)

package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// soReusePort is SO_REUSEPORT; the frozen syscall package predates the
// constant on linux.
const soReusePort = 0xf

// ListenUDPBatch binds o.Sockets UDP sockets on addr (sharing the port
// through SO_REUSEPORT when there are several) and returns a Conn whose
// ReadBatch/WriteBatch are real recvmmsg/sendmmsg calls — up to
// ringSlots datagrams per recvmmsg, delivered DefaultBatchSize frames per
// ReadBatch, and up to MaxWriteBatch frames in up to DefaultBatchSize
// datagrams per sendmmsg. With several sockets the kernel hashes inbound
// flows across them; Fanout exposes each as an independent read lane.
func ListenUDPBatch(addr string, o Options) (Conn, error) {
	o = o.withDefaults()
	st := &Stats{}
	var lc net.ListenConfig
	if o.Sockets > 1 {
		// Only a sharded listener shares its port. A lone socket must not
		// set the option: the kernel hands one free port to any number of
		// port-0 binds that all carry it, so two single-socket listeners
		// of one process could land on the same port and split its flows.
		lc.Control = func(_, _ string, c syscall.RawConn) error {
			var serr error
			err := c.Control(func(fd uintptr) {
				serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soReusePort, 1)
			})
			if err != nil {
				return err
			}
			return serr
		}
	}
	conns := make([]Conn, 0, o.Sockets)
	closeAll := func() {
		for _, c := range conns {
			c.Close()
		}
	}
	bound := addr
	for i := 0; i < o.Sockets; i++ {
		pc, err := lc.ListenPacket(context.Background(), "udp", bound)
		if err != nil {
			closeAll()
			return nil, err
		}
		uc := pc.(*net.UDPConn)
		bc, err := newBatchConn(uc, st)
		if err != nil {
			uc.Close()
			closeAll()
			return nil, err
		}
		conns = append(conns, bc)
		// Later sockets must land on the first socket's port even when
		// addr asked the kernel for port 0.
		bound = uc.LocalAddr().String()
	}
	if len(conns) == 1 {
		return conns[0], nil
	}
	return &multiConn{conns: conns, st: st}, nil
}

// mmsghdr mirrors struct mmsghdr: one msghdr plus the kernel-written
// datagram length (padded to the msghdr alignment).
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// batchConn is one kernel UDP socket driven through recvmmsg/sendmmsg on
// its raw fd, parked on the runtime netpoller between batches. It owns no
// ring: a write ring (headers, iovecs, sockaddr storage, length prefixes)
// is lent from writeRings for the length of one send, and a receive ring
// from readRings for as long as the lane keeps finding datagrams or holds
// frames not yet delivered, so a parked lane, or one only ever written
// through, holds none. A steady-state batch only rewrites header fields
// and, on writes, iovecs and length prefixes.
//
// A socket has one write path. WriteTo copies its frame into a queue and
// returns; the socket's writer goroutine sends the queue through the
// sendmmsg path WriteBatch takes, and WriteBatch sends the queue before
// its own batch. So frames leave in call order, and a run of triggers to
// one peer shares datagrams the way a sweep's run does.
type batchConn struct {
	uc     *net.UDPConn
	rc     syscall.RawConn
	st     *Stats
	closed atomic.Bool

	rmu   sync.Mutex  // serializes reads and guards the fields below
	rr    *mmsgRing   // the lent receive ring; nil while the lane is parked
	rms   []Message   // the caller's slots, during a ReadBatch
	rcnt  int         // what the last recvmmsg returned
	rnext int         // the ring's next datagram to deliver from; rcnt when drained
	cur   frameCursor // the frames of datagram rnext-1 not yet delivered
	rerr  syscall.Errno
	rwoke bool                  // recv's next call follows a netpoller wake
	recvf func(fd uintptr) bool // c.recv, bound once so a read allocates nothing
	cache addrCache
	rone  [1]Message // ReadFrom's slot
	drops uint32     // the socket's drop count at its last SO_RXQ_OVFL report

	qmu     sync.Mutex    // guards q and qclosed
	q       writeQueue    // frames WriteTo queued that no send has taken yet
	qclosed bool          // Close has begun: WriteTo refuses
	kick    chan struct{} // one slot, filled when q turns non-empty
	wstop   chan struct{} // closed by Close to stop the writer
	wdone   chan struct{} // closed when the writer has returned

	wmu     sync.Mutex // serializes sends and guards the fields below
	out     writeQueue // the queue being sent, swapped with q
	whs     []mmsghdr  // the headers of the sendmmsg in flight
	wcnt    int        // what it returned
	werr    syscall.Errno
	sendf   func(fd uintptr) bool           // c.send, bound once so a write allocates nothing
	budgets map[[16]byte]int                // payload budget per destination IP
	mtu     func(*net.UDPAddr) (int, error) // the route MTU probe: routeMTU, or a test's
}

func newBatchConn(uc *net.UDPConn, st *Stats) (*batchConn, error) {
	rc, err := uc.SyscallConn()
	if err != nil {
		return nil, err
	}
	if err := uc.SetReadBuffer(readBuffer); err != nil {
		return nil, err
	}
	// SO_RXQ_OVFL: every datagram carries the socket's drop count, so an
	// overflowing receive queue shows in Stats.Overflowed. SO_RCVBUF reads
	// back the receive buffer the kernel granted.
	var granted int
	var serr error
	if err := rc.Control(func(fd uintptr) {
		if serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RXQ_OVFL, 1); serr != nil {
			serr = os.NewSyscallError("setsockopt", serr)
			return
		}
		if granted, serr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF); serr != nil {
			serr = os.NewSyscallError("getsockopt", serr)
		}
	}); err != nil {
		return nil, err
	}
	if serr != nil {
		return nil, serr
	}
	st.ReadBuffer.Set(int64(granted))
	c := &batchConn{uc: uc, rc: rc, st: st, mtu: routeMTU,
		kick: make(chan struct{}, 1), wstop: make(chan struct{}), wdone: make(chan struct{})}
	c.recvf, c.sendf = c.recv, c.send
	readRings.opened()
	writeRings.opened()
	go c.writeLoop()
	return c, nil
}

func (c *batchConn) Stats() *Stats { return c.st }

// ReadBatch delivers up to len(ms) frames: first those still pending from
// the last recvmmsg, and only when none is pending, the datagrams of a new
// recvmmsg (up to min(len(ms), ringSlots) of them) into a lent receive
// ring. A coalesced datagram is split into its frames; those beyond ms
// wait behind a cursor in the still-lent ring. Truncated datagrams (larger
// than MaxDatagram) and malformed ones are counted and dropped; the call
// loops until at least one frame is delivered.
func (c *batchConn) ReadBatch(ms []Message) (int, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	return c.readLocked(ms)
}

func (c *batchConn) readLocked(ms []Message) (int, error) {
	if len(ms) > DefaultBatchSize {
		ms = ms[:DefaultBatchSize]
	}
	if len(ms) == 0 {
		return 0, nil
	}
	c.rms = ms
	if c.closed.Load() {
		// Frames still pending die with the socket.
		c.rnext, c.cur = c.rcnt, frameCursor{}
	}
	for {
		if out := c.deliver(ms); out > 0 {
			c.st.ReadFrames.Add(int64(out))
			return out, nil
		}
		cnt, err := c.rawRecv()
		if err != nil {
			c.releaseRing()
			return 0, err
		}
		c.st.observeReadCall(int64(cnt))
		c.rnext = 0
	}
}

// deliver fills ms from the frames the ring still holds. Data stays valid
// until the next read on this conn: the lane keeps the ring until a
// recvmmsg there finds nothing.
func (c *batchConn) deliver(ms []Message) int {
	out := 0
	for out < len(ms) {
		if c.cur.next(&ms[out]) {
			out++
			continue
		}
		if c.rnext >= c.rcnt {
			break
		}
		i := c.rnext
		c.rnext++
		h := &c.rr.hs[i]
		c.noteDrops(i)
		if h.hdr.Flags&syscall.MSG_TRUNC != 0 {
			c.st.Truncated.Add(1)
			continue
		}
		addr := c.cache.lookup(c.rr.sas[i][:h.hdr.Namelen])
		if addr == nil || !c.cur.load(c.rr.buf(i)[:h.n], addr) {
			c.st.Malformed.Add(1)
		}
	}
	return out
}

// noteDrops reads the SO_RXQ_OVFL count slot i's datagram carries, the
// socket's running total of datagrams its full receive queue refused when
// this one was queued, and adds what is new since the last report to
// Stats.Overflowed. The kernel adds no count while the total is 0.
func (c *batchConn) noteDrops(i int) {
	h := &c.rr.hs[i]
	if h.hdr.Controllen < ctrlLen {
		return
	}
	cm := (*syscall.Cmsghdr)(unsafe.Pointer(&c.rr.ctrl[i][0]))
	if cm.Level != syscall.SOL_SOCKET || cm.Type != syscall.SO_RXQ_OVFL {
		return
	}
	drops := binary.NativeEndian.Uint32(c.rr.ctrl[i][syscall.CmsgLen(0):])
	c.st.Overflowed.Add(int64(drops - c.drops))
	c.drops = drops
}

func (c *batchConn) rawRecv() (int, error) {
	for {
		c.rwoke = false
		if err := c.rc.Read(c.recvf); err != nil {
			return 0, err
		}
		switch c.rerr {
		case 0:
			return c.rcnt, nil
		case syscall.EINTR:
			continue
		default:
			return 0, os.NewSyscallError("recvmmsg", c.rerr)
		}
	}
}

// recv is the rc.Read callback: one recvmmsg into the lane's ring, which
// it borrows first if the lane holds none. EAGAIN means the lane is about
// to park on the netpoller, so the ring goes back before it does. A lane
// that enters holding no ring (its first read, or the one after an error)
// first asks the socket whether anything is queued, so an idle lane parks
// without borrowing; once the netpoller wakes it, it borrows straight away.
func (c *batchConn) recv(fd uintptr) bool {
	woke := c.rwoke
	c.rwoke = true
	if c.rr == nil {
		if !woke && !queued(fd) {
			return false
		}
		c.rr = readRings.get()
	}
	n := min(len(c.rms), ringSlots)
	for i := 0; i < n; i++ {
		c.rr.prepareRead(i)
	}
	c.rcnt, c.rerr = recvmmsg(fd, c.rr.hs[:n], syscall.MSG_DONTWAIT)
	if c.rerr == syscall.EAGAIN {
		c.releaseRing()
		return false
	}
	return true
}

// releaseRing gives the lane's ring back to readRings. The caller's slots
// and the frame cursor are cleared first: they are the only other paths to
// the ring, and an idle read loop's batch would otherwise keep a ring
// alive that the free list has trimmed, or point at one another lane is
// filling. Only a drained lane gets here, so no frame is lost.
func (c *batchConn) releaseRing() {
	if c.rr == nil {
		return
	}
	clear(c.rms)
	c.cur, c.rcnt, c.rnext = frameCursor{}, 0, 0
	r := c.rr
	c.rr = nil
	readRings.put(r)
}

// WriteBatch sends what WriteTo has queued, then transmits every message
// via sendmmsg, retrying partial kernel completions until the whole batch
// is out. Each run of consecutive messages to one destination goes out in
// as few datagrams as fit that destination's budget (coalesce.go),
// gathered straight from the callers' frames; a lone frame, or one too
// long to share, goes out as itself, and an empty one as an empty
// datagram. A message whose Addr is no UDP destination (see udpDest) is
// refused with EINVAL, as WriteTo refuses it, and the count returned is
// the messages sent before it. The write ring is borrowed from writeRings
// for the call.
func (c *batchConn) WriteBatch(ms []Message) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	r := writeRings.get()
	defer c.returnWriteRing(r)
	c.sendQueued(r)
	n, _, err := c.writeLocked(r, ms)
	return n, err
}

// writeLocked transmits ms in order through write ring r; wmu is held. It
// stops at the first hard error and returns the frames sent before it and
// the frames of the datagram the kernel refused, which it refuses whole,
// or the one message that names no UDP destination.
func (c *batchConn) writeLocked(r *writeRing, ms []Message) (written, refused int, err error) {
	for written < len(ms) {
		chunk := ms[written:]
		dgrams := c.prepareWrite(r, chunk)
		if dgrams == 0 {
			return written, 1, &net.OpError{Op: "write", Net: "udp", Addr: chunk[0].Addr, Err: syscall.EINVAL}
		}
		sent, err := writeChunks(dgrams, func(off int) (int, error) {
			cnt, serr := c.rawSend(r.hs[off:dgrams])
			if serr == nil && cnt > 0 {
				c.st.observeWrite(int64(r.frames(off, off+cnt)), int64(cnt))
			}
			return cnt, serr
		})
		written += r.frames(0, sent)
		if err != nil {
			return written, r.frames(sent, sent+1), err
		}
		if sent < dgrams {
			return written, 0, nil // kernel made no progress; unreachable in practice
		}
	}
	return written, 0, nil
}

// sendQueued takes the queue WriteTo has filled and sends it through
// write ring r; wmu is held. Its frames belong to callers that have
// returned, so none is given back: a datagram the kernel refuses (a hard
// sendmmsg error, or the socket closed under the send) is counted in
// Stats.WriteFailed and skipped, and the frames behind it still go.
func (c *batchConn) sendQueued(r *writeRing) {
	c.qmu.Lock()
	c.q, c.out = c.out, c.q
	c.qmu.Unlock()
	for ms := c.out.ms; len(ms) > 0; {
		sent, refused, err := c.writeLocked(r, ms)
		if err == nil {
			refused = len(ms) - sent // none, unless the kernel made no progress
		}
		c.st.WriteFailed.Add(int64(refused))
		ms = ms[sent+refused:]
	}
	c.out.reset()
}

// flush sends the queue: the writer's job, and a producer's that finds the
// queue full. It borrows a write ring only when there is something to send.
func (c *batchConn) flush() {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.qmu.Lock()
	empty := len(c.q.ms) == 0
	c.qmu.Unlock()
	if empty {
		return
	}
	r := writeRings.get()
	defer c.returnWriteRing(r)
	c.sendQueued(r)
}

// writeLoop is the socket's writer: it sends the queue each time WriteTo
// turns it non-empty. Frames queued while it sends pile up behind, and
// leave together in its next send. Close stops it.
func (c *batchConn) writeLoop() {
	defer close(c.wdone)
	for {
		select {
		case <-c.kick:
			c.flush()
		case <-c.wstop:
			return
		}
	}
}

// A queue holds at most MaxWriteBatch frames, one write ring's worth, in
// at most queueBytesMax bytes, one datagram's payload.
const queueBytesMax = MaxDatagram

// writeQueue is the frames WriteTo has copied, in call order: their bytes
// back to back in data, and ms[i].Data frame i's stretch of it. Its
// storage grows to the most it has held, never past the bounds above, so
// a socket that sends lone triggers keeps a few hundred bytes.
type writeQueue struct {
	data []byte
	ms   []Message
}

// fits reports whether a frame of n bytes can join the queue.
func (q *writeQueue) fits(n int) bool {
	return len(q.ms) < MaxWriteBatch && len(q.data)+n <= queueBytesMax
}

// push appends a copy of p, to addr; the caller has checked fits.
func (q *writeQueue) push(p []byte, addr net.Addr) {
	if need := len(q.data) + len(p); need > cap(q.data) {
		grown := make([]byte, len(q.data), min(max(2*cap(q.data), need), queueBytesMax))
		copy(grown, q.data)
		off := 0
		for i := range q.ms {
			n := len(q.ms[i].Data)
			q.ms[i].Data = grown[off : off+n : off+n]
			off += n
		}
		q.data = grown
	}
	off := len(q.data)
	q.data = append(q.data, p...)
	q.ms = append(q.ms, Message{Data: q.data[off:len(q.data):len(q.data)], Addr: addr})
}

// reset empties q, keeping its storage and pinning no address.
func (q *writeQueue) reset() {
	clear(q.ms)
	q.data, q.ms = q.data[:0], q.ms[:0]
}

// prepareWrite lays out the leading messages of ms in write ring r, as
// many as one sendmmsg takes (MaxWriteBatch frames in at most
// len(r.hs) datagrams), up to the first that names no UDP destination,
// and returns how many datagrams it laid out: 0 when ms[0] names none.
func (c *batchConn) prepareWrite(r *writeRing, ms []Message) int {
	ms = ms[:min(len(ms), MaxWriteBatch)]
	d, iov := 0, 0
	for f := 0; f < len(ms) && d < len(r.hs); d++ {
		ua, ok := udpDest(ms[f].Addr)
		if !ok {
			break
		}
		salen := encodeSockaddr(&r.sas[d], ua)
		// Only a run of two or more needs the budget, and so the probe;
		// an empty frame is a datagram of its own.
		k := 1
		if len(ms[f].Data) > 0 && f+1 < len(ms) && sameDest(ms[f+1].Addr, ms[f].Addr) {
			k = planDatagram(ms[f:], c.budget(ua))
		}
		h, first := &r.hs[d], iov
		h.hdr.Name = &r.sas[d][0]
		h.hdr.Namelen = salen
		h.hdr.Iov = &r.iovs[first]
		h.hdr.Flags = 0
		h.n = 0
		if k == 1 {
			if len(ms[f].Data) > 0 {
				setIovec(&r.iovs[iov], ms[f].Data)
				iov++
			}
		} else {
			for j := f; j < f+k; j++ {
				setIovec(&r.iovs[iov], frameHeader(&r.prefixes[j], j == f, len(ms[j].Data)))
				setIovec(&r.iovs[iov+1], ms[j].Data)
				iov += 2
			}
		}
		// Iovlen is uint64 on both tagged architectures; the frozen
		// syscall package has no SetIovlen.
		h.hdr.Iovlen = uint64(iov - first)
		f += k
		r.ends[d] = uint16(f)
	}
	r.iovsUsed = max(r.iovsUsed, iov)
	return d
}

// returnWriteRing gives r back to writeRings once a send is done with it.
// What points at the frames — the iovecs laid out and the conn's view of
// the last sendmmsg's headers — is cleared first, so a ring on the free
// list pins no buffer.
func (c *batchConn) returnWriteRing(r *writeRing) {
	c.whs = nil
	clear(r.iovs[:r.iovsUsed])
	r.iovsUsed = 0
	writeRings.put(r)
}

func setIovec(v *syscall.Iovec, b []byte) {
	v.Base = &b[0]
	v.SetLen(len(b))
}

// maxBudgets bounds a conn's budget cache. A conn that has sent runs to
// more destination IPs than this starts the cache over, so a long-lived
// server acking many transient clients holds at most maxBudgets entries
// (a few KB) and probes again only the IPs it still writes runs to.
const maxBudgets = 256

// budget is the payload budget towards ua's IP, probed once per IP while
// the cache holds it. The probe runs under wmu: a socket, a connect and a
// getsockopt, a few microseconds, paid once per IP per cache generation.
func (c *batchConn) budget(ua *net.UDPAddr) int {
	var ip [16]byte
	v4 := ua.IP.To4()
	if v4 != nil {
		ip[10], ip[11] = 0xff, 0xff
		copy(ip[12:], v4)
	} else {
		copy(ip[:], ua.IP)
	}
	b, ok := c.budgets[ip]
	if !ok {
		mtu, err := c.mtu(ua)
		b = payloadBudget(mtu, err, v4 == nil)
		if c.budgets == nil {
			c.budgets = make(map[[16]byte]int)
		} else if len(c.budgets) >= maxBudgets {
			clear(c.budgets)
		}
		c.budgets[ip] = b
	}
	return b
}

// routeMTU reads the kernel's route MTU towards ua's IP: IP_MTU (IPV6_MTU)
// on a UDP socket connected to it. Connecting sends nothing.
func routeMTU(ua *net.UDPAddr) (int, error) {
	family, level, opt := syscall.AF_INET, syscall.IPPROTO_IP, syscall.IP_MTU
	var sa syscall.Sockaddr
	if v4 := ua.IP.To4(); v4 != nil {
		sa = &syscall.SockaddrInet4{Port: ua.Port, Addr: [4]byte(v4)}
	} else {
		v6 := ua.IP.To16()
		if v6 == nil {
			return 0, syscall.EAFNOSUPPORT
		}
		family, level, opt = syscall.AF_INET6, syscall.IPPROTO_IPV6, syscall.IPV6_MTU
		sa = &syscall.SockaddrInet6{Port: ua.Port, Addr: [16]byte(v6)}
	}
	fd, err := syscall.Socket(family, syscall.SOCK_DGRAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return 0, err
	}
	defer syscall.Close(fd)
	if err := syscall.Connect(fd, sa); err != nil {
		return 0, err
	}
	return syscall.GetsockoptInt(fd, level, opt)
}

func (c *batchConn) rawSend(hs []mmsghdr) (int, error) {
	c.whs = hs
	for {
		if err := c.rc.Write(c.sendf); err != nil {
			return 0, err
		}
		switch c.werr {
		case 0:
			return c.wcnt, nil
		case syscall.EINTR:
			continue
		default:
			return 0, os.NewSyscallError("sendmmsg", c.werr)
		}
	}
}

// send is the rc.Write callback: one sendmmsg of c.whs.
func (c *batchConn) send(fd uintptr) bool {
	c.wcnt, c.werr = sendmmsg(fd, c.whs, syscall.MSG_DONTWAIT)
	return c.werr != syscall.EAGAIN
}

// Single-frame net.PacketConn surface, counted like one-message batches
// so plain and batched paths share one accounting.

// ReadFrom copies the next frame into p: a one-slot ReadBatch, so it
// splits coalesced datagrams and shares the ring and cursor with it.
func (c *batchConn) ReadFrom(p []byte) (int, net.Addr, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	if _, err := c.readLocked(c.rone[:]); err != nil {
		return 0, nil, err
	}
	m := c.rone[0]
	c.rone[0] = Message{}
	return copy(p, m.Data), m.Addr, nil
}

// WriteTo queues a copy of p for the socket's writer and returns: p is the
// caller's again at once, and the frame leaves in the writer's next
// sendmmsg, with whatever else was queued meanwhile. A producer that finds
// the queue full sends it itself before queuing, so a burst runs at the
// kernel's pace and the queue stays within its bounds. Only a *net.UDPAddr
// is accepted (see udpDest), as by a plain UDP socket; a frame the writer
// cannot send is counted in Stats.WriteFailed.
func (c *batchConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	if _, ok := udpDest(addr); !ok {
		return 0, &net.OpError{Op: "write", Net: "udp", Addr: addr, Err: syscall.EINVAL}
	}
	if len(p) > queueBytesMax {
		return 0, &net.OpError{Op: "write", Net: "udp", Addr: addr, Err: syscall.EMSGSIZE}
	}
	c.qmu.Lock()
	for !c.qclosed && !c.q.fits(len(p)) {
		c.qmu.Unlock()
		c.flush()
		c.qmu.Lock()
	}
	if c.qclosed {
		c.qmu.Unlock()
		return 0, &net.OpError{Op: "write", Net: "udp", Addr: addr, Err: net.ErrClosed}
	}
	wake := len(c.q.ms) == 0
	c.q.push(p, addr)
	c.qmu.Unlock()
	if wake {
		select {
		case c.kick <- struct{}{}:
		default: // already signalled
		}
	}
	return len(p), nil
}

// Close refuses later writes, stops the writer, sends what is still
// queued, then closes the socket and lowers both ring pools' caps by one.
// A receive ring the lane still holds stays with it, since a read loop may
// be working on its datagrams; the lane's next ReadBatch fails and gives
// the ring back.
func (c *batchConn) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return c.uc.Close()
	}
	c.qmu.Lock()
	c.qclosed = true
	c.qmu.Unlock()
	close(c.wstop)
	<-c.wdone
	c.flush()
	err := c.uc.Close()
	readRings.closed()
	writeRings.closed()
	return err
}

func (c *batchConn) LocalAddr() net.Addr               { return c.uc.LocalAddr() }
func (c *batchConn) SetDeadline(t time.Time) error     { return c.uc.SetDeadline(t) }
func (c *batchConn) SetReadDeadline(t time.Time) error { return c.uc.SetReadDeadline(t) }
func (c *batchConn) SetWriteDeadline(t time.Time) error {
	return c.uc.SetWriteDeadline(t)
}

// ringSlots is the most datagrams one recvmmsg takes. A receive ring holds
// ringSlots MaxDatagram buffers, 4 × 65,507 B = 256 KB: the bytes, not the
// count, bound what a mid-stride lane holds. On loopback a datagram is a
// whole coalesced batch, so one recvmmsg still carries up to 128 frames.
const ringSlots = 4

// mmsgRing is the preallocated recvmmsg scaffolding for ringSlots
// datagrams: headers, one iovec per slot, sockaddr storage and a control
// buffer (room for the SO_RXQ_OVFL count) the kernel writes, and one
// MaxDatagram buffer per slot, in one block its iovecs point at for good.
type mmsgRing struct {
	hs   []mmsghdr
	iovs []syscall.Iovec
	sas  [][syscall.SizeofSockaddrAny]byte
	ctrl [][ctrlLen]byte
	bufs []byte
}

// ctrlLen is syscall.CmsgSpace(4): one control message of a uint32.
const ctrlLen = syscall.SizeofCmsghdr + 8

func newReadRing() *mmsgRing {
	r := &mmsgRing{
		hs:   make([]mmsghdr, ringSlots),
		iovs: make([]syscall.Iovec, ringSlots),
		sas:  make([][syscall.SizeofSockaddrAny]byte, ringSlots),
		ctrl: make([][ctrlLen]byte, ringSlots),
		bufs: make([]byte, ringSlots*MaxDatagram),
	}
	for i := range r.hs {
		r.hs[i].hdr.Iov = &r.iovs[i]
		// Iovlen is uint64 on both tagged architectures; the frozen
		// syscall package has no SetIovlen.
		r.hs[i].hdr.Iovlen = 1
		r.hs[i].hdr.Name = &r.sas[i][0]
		r.hs[i].hdr.Control = &r.ctrl[i][0]
		r.iovs[i].Base = &r.buf(i)[0]
		r.iovs[i].SetLen(MaxDatagram)
	}
	return r
}

// buf is slot i's receive buffer.
func (r *mmsgRing) buf(i int) []byte {
	return r.bufs[i*MaxDatagram : (i+1)*MaxDatagram : (i+1)*MaxDatagram]
}

func (r *mmsgRing) prepareRead(i int) {
	r.hs[i].hdr.Namelen = syscall.SizeofSockaddrAny
	r.hs[i].hdr.SetControllen(ctrlLen)
	r.hs[i].hdr.Flags = 0
	r.hs[i].n = 0
}

// uioMaxIOV is the kernel's UIO_MAXIOV: sendmmsg refuses a datagram that
// gathers more iovecs with EMSGSIZE.
const uioMaxIOV = 1024

// A coalesced datagram gathers two iovecs a frame, and a write ring's
// frames may all go to one peer: this fails to compile if they could
// need more than one datagram may gather.
const _ = uint(uioMaxIOV - 2*MaxWriteBatch)

// writeRing is the sendmmsg scaffolding for one call of up to
// MaxWriteBatch frames in up to DefaultBatchSize datagrams, so a small
// writer's batch of lone frames to as many peers still leaves in one call:
// a header and a sockaddr per datagram, and per frame up to two iovecs,
// its length prefix and itself, with the prefix's bytes. So a coalesced
// datagram is gathered from the frames and the prefixes; no payload byte
// is copied. ends[d] counts the frames laid out through datagram d;
// iovsUsed is the most iovecs a call of the current send laid out. A ring
// belongs to no conn: each send borrows one from writeRings.
type writeRing struct {
	hs       [DefaultBatchSize]mmsghdr
	sas      [DefaultBatchSize][syscall.SizeofSockaddrAny]byte
	iovs     [2 * MaxWriteBatch]syscall.Iovec
	prefixes [MaxWriteBatch][1 + lenPrefix]byte
	ends     [DefaultBatchSize]uint16
	iovsUsed int
}

// frames returns how many frames datagrams from through to-1 carry.
func (r *writeRing) frames(from, to int) int {
	if to == 0 {
		return 0
	}
	n := int(r.ends[to-1])
	if from > 0 {
		n -= int(r.ends[from-1])
	}
	return n
}

// ringPool is a free list of rings of one kind, all of one shape. A
// receive lane borrows one only while its strides find datagrams
// (batchConn.recv), a sender only for one send, so the rings a process
// holds follow how many lanes are mid-stride, or how many sends are in
// flight, at once, not how many sockets it has open. The list is a
// LIFO stack, so the ring lent next is the one touched last, and it is
// capped at the number of open udp-batch sockets: it never holds more
// rings than those sockets would own outright, and it drains as they
// close. (sync.Pool would keep or drop rings by GC cycle instead of by
// socket lifetime.)
type ringPool[R any] struct {
	mu    sync.Mutex
	free  []*R
	open  int // open udp-batch sockets: the cap on len(free)
	made  int // rings allocated so far
	fresh func() *R

	onPut func(*R) // test hook: sees each ring given back, under mu
}

// readRings and writeRings lend every udp-batch socket of the process its
// receive and write rings.
var (
	readRings  = ringPool[mmsgRing]{fresh: newReadRing}
	writeRings = ringPool[writeRing]{fresh: func() *writeRing { return new(writeRing) }}
)

func (p *ringPool[R]) get() *R {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return r
	}
	p.made++
	p.mu.Unlock()
	return p.fresh()
}

func (p *ringPool[R]) put(r *R) {
	p.mu.Lock()
	if p.onPut != nil {
		p.onPut(r)
	}
	if len(p.free) < p.open {
		p.free = append(p.free, r)
	}
	p.mu.Unlock()
}

func (p *ringPool[R]) opened() {
	p.mu.Lock()
	p.open++
	p.mu.Unlock()
}

// closed lowers the cap by one socket and drops the rings above it.
func (p *ringPool[R]) closed() {
	p.mu.Lock()
	p.open--
	for len(p.free) > p.open {
		p.free[len(p.free)-1] = nil
		p.free = p.free[:len(p.free)-1]
	}
	p.mu.Unlock()
}

func recvmmsg(fd uintptr, hs []mmsghdr, flags int) (int, syscall.Errno) {
	n, _, e := syscall.Syscall6(sysRECVMMSG, fd,
		uintptr(unsafe.Pointer(&hs[0])), uintptr(len(hs)), uintptr(flags), 0, 0)
	return int(n), e
}

// queued reports whether a datagram waits on fd, without taking it and
// without a buffer: a zero-byte MSG_PEEK. Only EAGAIN says no.
func queued(fd uintptr) bool {
	_, _, e := syscall.Syscall6(syscall.SYS_RECVFROM, fd, 0, 0,
		syscall.MSG_PEEK|syscall.MSG_DONTWAIT, 0, 0)
	return e != syscall.EAGAIN
}

func sendmmsg(fd uintptr, hs []mmsghdr, flags int) (int, syscall.Errno) {
	n, _, e := syscall.Syscall6(sysSENDMMSG, fd,
		uintptr(unsafe.Pointer(&hs[0])), uintptr(len(hs)), uintptr(flags), 0, 0)
	return int(n), e
}

// addrCache remembers the last decoded source sockaddr: fan-in from one
// hot peer (a receiver's single upstream node, a burst from one sender)
// resolves to the same *net.UDPAddr without allocating per datagram.
// Handed-out addresses are never mutated, so aliasing them is safe.
type addrCache struct {
	sa   [syscall.SizeofSockaddrAny]byte
	n    int
	addr *net.UDPAddr
}

func (ac *addrCache) lookup(sa []byte) *net.UDPAddr {
	if ac.addr != nil && ac.n == len(sa) && bytes.Equal(ac.sa[:ac.n], sa) {
		return ac.addr
	}
	a := decodeSockaddr(sa)
	if a == nil {
		return nil
	}
	ac.n = copy(ac.sa[:], sa)
	ac.addr = a
	return a
}

// decodeSockaddr converts a raw kernel sockaddr to a *net.UDPAddr. The
// family field is native-endian; both tagged architectures are
// little-endian. IPv6 zone indices are dropped (link-local scoping is out
// of scope for this runtime).
func decodeSockaddr(b []byte) *net.UDPAddr {
	if len(b) < syscall.SizeofSockaddrInet4 {
		return nil
	}
	switch uint16(b[0]) | uint16(b[1])<<8 {
	case syscall.AF_INET:
		ip := make(net.IP, 4)
		copy(ip, b[4:8])
		return &net.UDPAddr{IP: ip, Port: int(b[2])<<8 | int(b[3])}
	case syscall.AF_INET6:
		if len(b) < syscall.SizeofSockaddrInet6 {
			return nil
		}
		ip := make(net.IP, 16)
		copy(ip, b[8:24])
		return &net.UDPAddr{IP: ip, Port: int(b[2])<<8 | int(b[3])}
	}
	return nil
}

// udpDest returns addr as a destination encodeSockaddr, budget and
// routeMTU all read as one family: a non-nil *net.UDPAddr whose IP is IPv4
// or IPv6. An empty IP is 0.0.0.0, as net.UDPConn.WriteTo reads it.
func udpDest(addr net.Addr) (*net.UDPAddr, bool) {
	ua, ok := addr.(*net.UDPAddr)
	if !ok || ua == nil {
		return nil, false
	}
	switch len(ua.IP) {
	case 0:
		return &net.UDPAddr{IP: net.IPv4zero, Port: ua.Port}, true
	case net.IPv4len, net.IPv6len:
		return ua, true
	}
	return nil, false
}

// encodeSockaddr writes a's raw sockaddr into sa, returning its length; a
// is a udpDest. Ports are network byte order.
func encodeSockaddr(sa *[syscall.SizeofSockaddrAny]byte, a *net.UDPAddr) uint32 {
	if ip4 := a.IP.To4(); ip4 != nil {
		for i := 0; i < syscall.SizeofSockaddrInet4; i++ {
			sa[i] = 0
		}
		sa[0] = syscall.AF_INET
		sa[2] = byte(a.Port >> 8)
		sa[3] = byte(a.Port)
		copy(sa[4:8], ip4)
		return syscall.SizeofSockaddrInet4
	}
	ip6 := a.IP.To16()
	for i := 0; i < syscall.SizeofSockaddrInet6; i++ {
		sa[i] = 0
	}
	sa[0] = syscall.AF_INET6
	sa[2] = byte(a.Port >> 8)
	sa[3] = byte(a.Port)
	copy(sa[8:24], ip6)
	return syscall.SizeofSockaddrInet6
}
