package main

import (
	"net"
	"sync"
	"sync/atomic"

	"softstate/internal/rand"
	"softstate/internal/transport"
	"softstate/internal/wire"
)

// linkShared is what every lane of one wrapped conn has in common: its
// identity, its counters, and (on churn-chain) its seeded loss stream.
type linkShared struct {
	name  string // lane name in spans: "node", "peer0007", "relay1.up", …
	layer string // the link the conn stands for: "transport" or "lossy"
	// sender says a sending endpoint (node, relay downstream side) owns
	// the conn, not a receiver: its spans run inside the driver's calls.
	sender bool
	rec    *recorder
	// The conn's lane in the recorder, and the ids its spans carry.
	buf        *spanBuf
	lane       uint16
	kWrite     uint16
	kDispatch  uint16
	kTrigRead  uint16
	kTrigWrite uint16

	// Counts of what crossed, recorder on or off.
	writeCalls     atomic.Int64
	writeDatagrams atomic.Int64 // handed to the link (dropped ones excluded)
	dropped        atomic.Int64
	readCalls      atomic.Int64
	readDatagrams  atomic.Int64

	// Seeded loss, applied on the write side so each conn owns one
	// direction of one link. lossy.Wrap would do the same but hands the
	// endpoint a plain PacketConn, which strips sendmmsg batching.
	dropMu sync.Mutex
	dropP  float64
	dropRN *rand.Source
	// sampled, when set, reports whether a trigger for key belongs to a
	// sampled install and under which trace id (traced pass only).
	sampled func(key []byte) (trace uint64, ok bool)
}

// listenLoopback binds a UDP-batch socket on a loopback port that no
// earlier call with the same taken set was given. transport.ListenUDPBatch
// sets SO_REUSEPORT on every socket, and the kernel lets a port-0 bind of
// such a socket land on a port another SO_REUSEPORT socket of the same user
// already holds (one set of 65 binds in twelve had such a pair here). The
// two then share the port, the kernel hands every datagram of one source to
// one of them, and one receiver ends up with both populations. A socket
// that drew a taken port stays open until a free one is found, so the
// kernel cannot offer the same port again.
func listenLoopback(taken map[string]bool) (transport.Conn, *net.UDPAddr, error) {
	var shared []transport.Conn
	defer func() {
		for _, c := range shared {
			c.Close()
		}
	}()
	for {
		c, err := transport.ListenUDPBatch("127.0.0.1:0", transport.Options{})
		if err != nil {
			return nil, nil, err
		}
		local := c.LocalAddr().String()
		if taken[local] {
			shared = append(shared, c)
			continue
		}
		addr, err := net.ResolveUDPAddr("udp", local)
		if err != nil {
			c.Close()
			return nil, nil, err
		}
		taken[local] = true
		return c, addr, nil
	}
}

// tracedConn is the benchmark-owned transport.Conn handed to node.New,
// node.NewRelay and signal.NewReceiver. It forwards everything —
// batching, lanes and Stats included — and stands at the signal↔link
// boundary: it counts what crosses, drops by a seeded stream when asked
// to, and while the recorder is on times every write and every stretch of
// endpoint processing between two reads.
type tracedConn struct {
	transport.Conn
	sh    *linkShared
	lanes []transport.Conn // per-socket wrappers when the inner conn is a Multi

	// Read-lane state. One goroutine reads a lane, so no lock.
	procStart int64 // when the previous ReadBatch returned; 0 if untimed
	procN     int64
}

// wrapConn wraps pc (adapting it with transport.As first). loss is the
// probability that a written datagram is dropped, drawn from seed.
func wrapConn(pc net.PacketConn, name, role, layer string, rec *recorder, loss float64, seed uint64) *tracedConn {
	sh := &linkShared{name: name, sender: role == "sender", layer: layer, rec: rec, dropP: loss, dropRN: rand.NewSource(seed)}
	sh.buf, sh.lane = rec.lane(name)
	sh.kWrite, sh.kDispatch = rec.kind(layer, role+".write"), rec.kind("signal", role+".dispatch")
	sh.kTrigRead, sh.kTrigWrite = rec.kind(layer, "trigger.read"), rec.kind(layer, "trigger.write")
	inner := transport.As(pc)
	c := &tracedConn{Conn: inner, sh: sh}
	if m, ok := inner.(transport.Multi); ok {
		for _, lane := range m.Conns() {
			c.lanes = append(c.lanes, &tracedConn{Conn: lane, sh: sh})
		}
	}
	return c
}

// Conns implements transport.Multi: the inner conn's lanes, each wrapped,
// or the conn itself when it has one lane.
func (c *tracedConn) Conns() []transport.Conn {
	if c.lanes == nil {
		return []transport.Conn{c}
	}
	return c.lanes
}

func (c *tracedConn) ReadBatch(ms []transport.Message) (int, error) {
	sh := c.sh
	if !sh.rec.on() {
		c.procStart = 0
		n, err := c.Conn.ReadBatch(ms)
		sh.readCalls.Add(1)
		sh.readDatagrams.Add(int64(n))
		if sh.rec.on() {
			// Recording began while this read was blocked: what it
			// returned is the traced window's first batch.
			c.procStart, c.procN = sh.rec.now(), int64(n)
		}
		return n, err
	}
	t0 := sh.rec.now()
	if c.procStart != 0 {
		// The endpoint's read loop has come back for more: the previous
		// batch is fully processed.
		sh.rec.child(sh.buf, sh.sender, sh.kDispatch, sh.lane, c.procStart, t0, c.procN)
	}
	n, err := c.Conn.ReadBatch(ms)
	t1 := sh.rec.now()
	sh.readCalls.Add(1)
	sh.readDatagrams.Add(int64(n))
	c.procStart, c.procN = t1, int64(n)
	if sh.sampled != nil {
		for i := 0; i < n; i++ {
			c.markTrigger(ms[i].Data, sh.kTrigRead, t1)
		}
	}
	return n, err
}

// keep draws the loss stream once per datagram.
func (sh *linkShared) keep() bool {
	if sh.dropP <= 0 {
		return true
	}
	sh.dropMu.Lock()
	lost := sh.dropRN.Bernoulli(sh.dropP)
	sh.dropMu.Unlock()
	if lost {
		sh.dropped.Add(1)
	}
	return !lost
}

func (c *tracedConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	sh := c.sh
	if !sh.keep() {
		return len(p), nil // sent and lost, as on a lossy link
	}
	if !sh.rec.on() {
		n, err := c.Conn.WriteTo(p, addr)
		sh.writeCalls.Add(1)
		sh.writeDatagrams.Add(1)
		return n, err
	}
	t0 := sh.rec.now()
	n, err := c.Conn.WriteTo(p, addr)
	t1 := sh.rec.now()
	sh.writeCalls.Add(1)
	sh.writeDatagrams.Add(1)
	sh.rec.child(sh.buf, sh.sender, sh.kWrite, sh.lane, t0, t1, 1)
	if sh.sampled != nil {
		c.markTrigger(p, sh.kTrigWrite, t0)
	}
	return n, err
}

func (c *tracedConn) WriteBatch(ms []transport.Message) (int, error) {
	sh := c.sh
	out := ms
	if sh.dropP > 0 {
		out = make([]transport.Message, 0, len(ms))
		for i := range ms {
			if sh.keep() {
				out = append(out, ms[i])
			}
		}
		if len(out) == 0 {
			return len(ms), nil
		}
	}
	var t0 int64
	traced := sh.rec.on()
	if traced {
		t0 = sh.rec.now()
	}
	n, err := c.Conn.WriteBatch(out)
	sh.writeCalls.Add(1)
	sh.writeDatagrams.Add(int64(n))
	if traced {
		sh.rec.child(sh.buf, sh.sender, sh.kWrite, sh.lane, t0, sh.rec.now(), int64(n))
		if sh.sampled != nil {
			for i := range out {
				c.markTrigger(out[i].Data, sh.kTrigWrite, t0)
			}
		}
	}
	if err == nil && n == len(out) {
		n = len(ms) // dropped datagrams count as accepted
	}
	return n, err
}

// markTrigger records a zero-length marker span when data is a trigger
// for a sampled key, so one install can be followed hop by hop under its
// shared trace id.
func (c *tracedConn) markTrigger(data []byte, kind uint16, at int64) {
	if wire.PeekType(data) != wire.TypeTrigger || len(data) < 12 || data[0] != wire.Version {
		return
	}
	kl := int(data[10])<<8 | int(data[11])
	if len(data) < 12+kl {
		return
	}
	if trace, ok := c.sh.sampled(data[12 : 12+kl]); ok {
		c.sh.buf.add(span{Trace: trace, Kind: kind, Lane: c.sh.lane, Start: at, End: at, N: 1})
	}
}
