//go:build linux && (amd64 || arm64)

package transport

import (
	"bytes"
	"context"
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
// DefaultBatchSize datagrams per kernel crossing. With several
// sockets the kernel hashes inbound flows across them; Fanout exposes
// each as an independent read lane.
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
		uc.SetReadBuffer(o.RecvBuffer)
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
// its raw fd, parked on the runtime netpoller between batches. The write
// ring (headers, iovecs, sockaddr storage) is the conn's own; a receive
// ring is lent from readRings for as long as the lane keeps finding
// datagrams, so a parked lane, or one only ever written through, holds
// none. A steady-state batch only rewrites header fields and, on writes,
// iovec base pointers.
type batchConn struct {
	uc     *net.UDPConn
	rc     syscall.RawConn
	st     *Stats
	closed atomic.Bool

	rmu   sync.Mutex // serializes ReadBatch and guards the fields below
	rr    *mmsgRing  // the lent receive ring; nil while the lane is parked
	rms   []Message  // the caller's slots, during a ReadBatch
	rcnt  int        // what the last recvmmsg returned
	rerr  syscall.Errno
	rwoke bool                  // recv's next call follows a netpoller wake
	recvf func(fd uintptr) bool // c.recv, bound once so a read allocates nothing
	cache addrCache

	wmu sync.Mutex // serializes WriteBatch and guards wr
	wr  *mmsgRing
}

func newBatchConn(uc *net.UDPConn, st *Stats) (*batchConn, error) {
	rc, err := uc.SyscallConn()
	if err != nil {
		return nil, err
	}
	c := &batchConn{uc: uc, rc: rc, st: st, wr: newMmsgRing()}
	c.recvf = c.recv
	readRings.opened()
	return c, nil
}

func (c *batchConn) Stats() *Stats { return c.st }

// ReadBatch blocks until the socket is readable, then drains up to
// len(ms) datagrams in one recvmmsg into a lent receive ring.
// Truncated datagrams (larger than MaxDatagram) are counted and dropped;
// the call loops until at least one intact datagram is delivered.
func (c *batchConn) ReadBatch(ms []Message) (int, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	if len(ms) > DefaultBatchSize {
		ms = ms[:DefaultBatchSize]
	}
	if len(ms) == 0 {
		return 0, nil
	}
	c.rms = ms
	for {
		cnt, err := c.rawRecv()
		if err != nil {
			c.releaseRing()
			return 0, err
		}
		out := 0
		for i := 0; i < cnt; i++ {
			h := &c.rr.hs[i]
			if h.hdr.Flags&syscall.MSG_TRUNC != 0 {
				c.st.Truncated.Add(1)
				continue
			}
			addr := c.cache.lookup(c.rr.sas[i][:h.hdr.Namelen])
			if addr == nil {
				continue
			}
			// Data stays valid until the next ReadBatch on this conn: the
			// lane keeps the ring until a recvmmsg there finds nothing.
			ms[out].Data = c.rr.buf(i)[:h.n]
			ms[out].Addr = addr
			out++
		}
		if out > 0 {
			c.st.ObserveRead(int64(out))
			return out, nil
		}
	}
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
	n := len(c.rms)
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
// are cleared first: they are the only other path to the ring, and an
// idle read loop's batch would otherwise keep a ring alive that the free
// list has trimmed, or point at one another lane is filling.
func (c *batchConn) releaseRing() {
	if c.rr == nil {
		return
	}
	clear(c.rms)
	r := c.rr
	c.rr = nil
	readRings.put(r)
}

// WriteBatch transmits every message via sendmmsg, retrying partial
// kernel completions until the whole batch is out. Messages whose Addr is
// not a *net.UDPAddr fall back to one WriteTo each.
func (c *batchConn) WriteBatch(ms []Message) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	written := 0
	for written < len(ms) {
		chunk := ms[written:]
		limit := len(c.wr.hs)
		if len(chunk) < limit {
			limit = len(chunk)
		}
		prep := 0
		for prep < limit && c.wr.prepareWrite(prep, &chunk[prep]) {
			prep++
		}
		if prep == 0 {
			// Exotic addr type or empty payload: single-datagram path.
			if _, err := c.uc.WriteTo(chunk[0].Data, chunk[0].Addr); err != nil && !isTemporary(err) {
				return written, err
			}
			c.st.ObserveWrite(1)
			written++
			continue
		}
		sent, err := writeChunks(prep, func(off int) (int, error) {
			cnt, serr := c.rawSend(c.wr.hs[off:prep])
			if serr == nil && cnt > 0 {
				c.st.ObserveWrite(int64(cnt))
			}
			return cnt, serr
		})
		written += sent
		if err != nil {
			return written, err
		}
		if sent < prep {
			return written, nil // kernel made no progress; unreachable in practice
		}
	}
	return written, nil
}

func (c *batchConn) rawSend(hs []mmsghdr) (int, error) {
	for {
		var cnt int
		var errno syscall.Errno
		err := c.rc.Write(func(fd uintptr) bool {
			cnt, errno = sendmmsg(fd, hs, syscall.MSG_DONTWAIT)
			return errno != syscall.EAGAIN
		})
		if err != nil {
			return 0, err
		}
		switch errno {
		case 0:
			return cnt, nil
		case syscall.EINTR:
			continue
		default:
			return 0, os.NewSyscallError("sendmmsg", errno)
		}
	}
}

// Single-datagram net.PacketConn surface, counted like one-message
// batches so plain and batched paths share one accounting.

func (c *batchConn) ReadFrom(p []byte) (int, net.Addr, error) {
	n, addr, err := c.uc.ReadFrom(p)
	if err == nil {
		c.st.ObserveRead(1)
	}
	return n, addr, err
}

func (c *batchConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	n, err := c.uc.WriteTo(p, addr)
	if err == nil || isTemporary(err) {
		c.st.ObserveWrite(1)
	}
	return n, err
}

// Close closes the socket and lowers readRings' cap by one. A ring the
// lane still holds stays with it, since a read loop may be working on its
// datagrams; the lane's next ReadBatch fails and gives the ring back.
func (c *batchConn) Close() error {
	err := c.uc.Close()
	if c.closed.CompareAndSwap(false, true) {
		readRings.closed()
	}
	return err
}

func (c *batchConn) LocalAddr() net.Addr               { return c.uc.LocalAddr() }
func (c *batchConn) SetDeadline(t time.Time) error     { return c.uc.SetDeadline(t) }
func (c *batchConn) SetReadDeadline(t time.Time) error { return c.uc.SetReadDeadline(t) }
func (c *batchConn) SetWriteDeadline(t time.Time) error {
	return c.uc.SetWriteDeadline(t)
}

// mmsgRing is one direction's preallocated syscall scaffolding for
// DefaultBatchSize datagrams: headers, one iovec per slot, and sockaddr
// storage the kernel reads (sends) or writes (receives). A receive ring
// also owns one MaxDatagram buffer per slot, in one block its iovecs point
// at for good: 32 × 8,744 B, 280 KB.
type mmsgRing struct {
	hs   []mmsghdr
	iovs []syscall.Iovec
	sas  [][syscall.SizeofSockaddrAny]byte
	bufs []byte
}

func newMmsgRing() *mmsgRing {
	r := &mmsgRing{
		hs:   make([]mmsghdr, DefaultBatchSize),
		iovs: make([]syscall.Iovec, DefaultBatchSize),
		sas:  make([][syscall.SizeofSockaddrAny]byte, DefaultBatchSize),
	}
	for i := range r.hs {
		r.hs[i].hdr.Iov = &r.iovs[i]
		// Iovlen is uint64 on both tagged architectures; the frozen
		// syscall package has no SetIovlen.
		r.hs[i].hdr.Iovlen = 1
		r.hs[i].hdr.Name = &r.sas[i][0]
	}
	return r
}

// newReadRing is a ring with its datagram buffers.
func newReadRing() *mmsgRing {
	r := newMmsgRing()
	r.bufs = make([]byte, DefaultBatchSize*MaxDatagram)
	for i := range r.iovs {
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
	r.hs[i].hdr.Flags = 0
	r.hs[i].n = 0
}

// prepareWrite points slot i at m, reporting false for addresses the raw
// path cannot encode (the caller falls back to WriteTo).
func (r *mmsgRing) prepareWrite(i int, m *Message) bool {
	ua, ok := m.Addr.(*net.UDPAddr)
	if !ok || len(m.Data) == 0 {
		return false
	}
	salen := encodeSockaddr(&r.sas[i], ua)
	if salen == 0 {
		return false
	}
	r.iovs[i].Base = &m.Data[0]
	r.iovs[i].SetLen(len(m.Data))
	r.hs[i].hdr.Namelen = salen
	r.hs[i].hdr.Flags = 0
	r.hs[i].n = 0
	return true
}

// ringPool is a free list of receive rings, all of one shape. A lane
// borrows one only while its strides find datagrams (batchConn.recv), so
// the rings a process holds follow how many lanes are mid-stride at once,
// not how many sockets it has open. The list is a LIFO stack, so the ring
// lent next is the one touched last, and it is capped at the number of
// open udp-batch sockets: it never holds more rings than those sockets
// would own outright, and it drains as they close. (sync.Pool would keep
// or drop rings by GC cycle instead of by socket lifetime.)
type ringPool struct {
	mu   sync.Mutex
	free []*mmsgRing
	open int // open udp-batch sockets: the cap on len(free)
	made int // rings allocated so far

	onPut func(*mmsgRing) // test hook: sees each ring given back, under mu
}

// readRings lends every udp-batch socket of the process its receive rings.
var readRings ringPool

func (p *ringPool) get() *mmsgRing {
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
	return newReadRing()
}

func (p *ringPool) put(r *mmsgRing) {
	p.mu.Lock()
	if p.onPut != nil {
		p.onPut(r)
	}
	if len(p.free) < p.open {
		p.free = append(p.free, r)
	}
	p.mu.Unlock()
}

func (p *ringPool) opened() {
	p.mu.Lock()
	p.open++
	p.mu.Unlock()
}

// closed lowers the cap by one socket and drops the rings above it.
func (p *ringPool) closed() {
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

// encodeSockaddr writes a's raw sockaddr into sa, returning its length
// (0 when a cannot be encoded). Ports are network byte order.
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
	if ip6 == nil {
		return 0
	}
	for i := 0; i < syscall.SizeofSockaddrInet6; i++ {
		sa[i] = 0
	}
	sa[0] = syscall.AF_INET6
	sa[2] = byte(a.Port >> 8)
	sa[3] = byte(a.Port)
	copy(sa[8:24], ip6)
	return syscall.SizeofSockaddrInet6
}
