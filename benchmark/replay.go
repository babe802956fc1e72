package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"softstate/internal/clock"
	"softstate/internal/lossy"
	"softstate/internal/signal"
	"softstate/internal/statetable"
	"softstate/internal/telemetry"
	"softstate/internal/transport"
	"softstate/internal/wire"
)

// Replay rows: the traced pass drives one layer at a time through its
// public entry points, on one goroutine, with datagrams the program's own
// sender produced. Every row is repeated replayRepeats times and reports
// the median; the minimum and the spread are printed beside it.
const (
	replayRepeats = 5
	replayBurst   = 32 // datagrams per transport burst: one WriteBatch
)

// rows collects the replay results.
type rows map[string]float64

// record stores the median of samples under name and prints the row.
func (r rows) record(name, unit string, samples []float64) {
	med := median(samples)
	r[name] = med
	lo, hi := quantile(samples, 0), quantile(samples, 1)
	fmt.Printf("replay %-44s median=%.5g min=%.5g spread=%.1f%% %s (n=%d)\n",
		name, med, lo, 100*ratio(hi-lo, med), unit, len(samples))
}

// benchAddr is the address of a replay endpoint.
type benchAddr string

func (a benchAddr) Network() string { return "bench" }
func (a benchAddr) String() string  { return string(a) }

// replayConn stands in for the link in a replay row. What the endpoint
// writes is recorded (copied) or discarded; what it reads comes from a
// script the driver plays, and play returns when the endpoint's read loop
// has consumed the whole script and come back for more.
type replayConn struct {
	addr   benchAddr
	record bool
	st     transport.Stats

	mu      sync.Mutex
	written []transport.Message

	script  chan []transport.Message
	done    chan struct{}
	closed  chan struct{}
	once    sync.Once
	cur     []transport.Message // read-loop goroutine only
	playing bool
}

func newReplayConn(addr string, record bool) *replayConn {
	return &replayConn{
		addr: benchAddr(addr), record: record,
		script: make(chan []transport.Message), done: make(chan struct{}), closed: make(chan struct{}),
	}
}

func (c *replayConn) Stats() *transport.Stats          { return &c.st }
func (c *replayConn) LocalAddr() net.Addr              { return c.addr }
func (c *replayConn) SetDeadline(time.Time) error      { return nil }
func (c *replayConn) SetReadDeadline(time.Time) error  { return nil }
func (c *replayConn) SetWriteDeadline(time.Time) error { return nil }

func (c *replayConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

func (c *replayConn) WriteTo(p []byte, to net.Addr) (int, error) {
	if c.record {
		c.mu.Lock()
		c.written = append(c.written, transport.Message{Data: append([]byte(nil), p...), Addr: to})
		c.mu.Unlock()
	}
	return len(p), nil
}

func (c *replayConn) WriteBatch(ms []transport.Message) (int, error) {
	for i := range ms {
		c.WriteTo(ms[i].Data, ms[i].Addr)
	}
	return len(ms), nil
}

// take returns what the endpoint has written since the last take.
func (c *replayConn) take() []transport.Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.written
	c.written = nil
	return w
}

func (c *replayConn) ReadBatch(ms []transport.Message) (int, error) {
	if c.playing && len(c.cur) == 0 {
		c.playing = false
		c.done <- struct{}{}
	}
	for len(c.cur) == 0 {
		select {
		case c.cur = <-c.script:
			c.playing = true
		case <-c.closed:
			return 0, net.ErrClosed
		}
	}
	n := 0
	for n < len(ms) && n < len(c.cur) {
		ms[n].Data, ms[n].Addr = c.cur[n].Data, c.cur[n].Addr
		n++
	}
	c.cur = c.cur[n:]
	return n, nil
}

func (c *replayConn) ReadFrom(p []byte) (int, net.Addr, error) {
	ms := []transport.Message{{}}
	if _, err := c.ReadBatch(ms); err != nil {
		return 0, nil, err
	}
	return copy(p, ms[0].Data), ms[0].Addr, nil
}

// play feeds script to the endpoint's read loop and returns once every
// datagram of it has been processed.
func (c *replayConn) play(script []transport.Message) {
	if len(script) == 0 {
		return
	}
	c.script <- script
	<-c.done
}

// from readdresses datagrams as arriving from addr.
func from(addr net.Addr, ms []transport.Message) []transport.Message {
	out := make([]transport.Message, len(ms))
	for i := range ms {
		out[i] = transport.Message{Data: ms[i].Data, Addr: addr}
	}
	return out
}

// timeIt runs fn once and returns its duration in ns.
func timeIt(fn func()) float64 {
	t0 := time.Now()
	fn()
	return float64(time.Since(t0))
}

// loopNs times iters calls of fn, replayRepeats times, and returns ns per
// call for each repeat.
func loopNs(iters int, fn func(i int)) []float64 {
	out := make([]float64, replayRepeats)
	for r := range out {
		out[r] = timeIt(func() {
			for i := 0; i < iters; i++ {
				fn(i)
			}
		}) / float64(iters)
	}
	return out
}

func scale(xs []float64, by float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * by
	}
	return out
}

// replayRows runs every replay row.
func replayRows(sz sizes, seed uint64) (rows, error) {
	r := rows{}
	replayWire(r, seed)
	replayStatetable(r, sz, seed)
	if err := replayRefreshPath(r, sz, seed); err != nil {
		return nil, err
	}
	if err := replayTriggerPath(r, sz.replayOps, seed); err != nil {
		return nil, err
	}
	if err := replayTransport(r); err != nil {
		return nil, err
	}
	if err := replayLossyClock(r); err != nil {
		return nil, err
	}
	replayTelemetry(r)
	return r, nil
}

// sink defeats dead-code elimination of codec results.
var sink int

// replayWire times the summary codec at 64 and 256 keys per datagram (512
// sixteen-byte keys would exceed wire.MaxValueLen) and the full-message
// codec.
func replayWire(r rows, seed uint64) {
	prefix := keyPrefix(seed, 0)
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = keyName(prefix, i)
	}
	buf := make([]byte, 0, transport.MaxDatagram)
	for _, n := range []int{64, 256} {
		m := wire.Message{Type: wire.TypeSummaryRefresh, Seq: 7, Keys: keys[:n]}
		data, err := m.Append(nil)
		if err != nil {
			panic(err) // fixed-size keys always fit
		}
		iters := 200000 / n
		enc := loopNs(iters, func(int) {
			b, _ := m.Append(buf[:0])
			sink += len(b)
		})
		dec := loopNs(iters, func(int) {
			wire.VisitSummaryKeys(data, func(_ uint64, k []byte) { sink += len(k) })
		})
		r.record(fmt.Sprintf("wire.encode_summary_ns_per_key.%d", n), "ns", scale(enc, 1/float64(n)))
		r.record(fmt.Sprintf("wire.visit_summary_ns_per_key.%d", n), "ns", scale(dec, 1/float64(n)))
		r[fmt.Sprintf("wire.summary_bytes_per_key.%d", n)] = float64(len(data)) / float64(n)
	}
	trig := wire.Message{Type: wire.TypeTrigger, Seq: 7, Key: keys[0], Value: keyValue(seed)}
	data, _ := trig.Append(nil)
	r.record("wire.encode_trigger_ns", "ns", loopNs(20000, func(int) {
		b, _ := trig.Append(buf[:0])
		sink += len(b)
	}))
	r.record("wire.decode_trigger_ns", "ns", loopNs(20000, func(int) {
		var m wire.Message
		if m.UnmarshalBinary(data) == nil {
			sink += len(m.Key)
		}
	}))
}

// replayStatetable times the table's renew, upsert, delete and timer-fire
// paths on composite (peer, key) names, and its heap cost per entry.
func replayStatetable(r rows, sz sizes, seed uint64) {
	n := sz.replayPeers * sz.replayKeys
	names := make([]string, n)
	raw := make([][]byte, n)
	for i := range names {
		names[i] = signal.RKey(benchAddr(fmt.Sprintf("peer%04d", i/sz.replayKeys)), keyName(keyPrefix(seed, i/sz.replayKeys), i%sz.replayKeys))
		raw[i] = []byte(names[i])
	}
	order := permutation(seed, n)
	var fired int
	var upsert, del, fire, heap []float64
	var tbl *statetable.Table[int]
	for rep := 0; rep < replayRepeats; rep++ {
		if tbl != nil {
			tbl.Close()
		}
		v := clock.NewVirtual()
		base := heapLive()
		tbl = statetable.New(statetable.Config[int]{Shards: tableShards, Clock: v,
			OnExpire: func(string, statetable.TimerKind, *int, statetable.TimerControl[int]) { fired++ }})
		arm := func(_ *int, _ bool, tc statetable.TimerControl[int]) { tc.Schedule(0, 10*time.Millisecond) }
		upsert = append(upsert, timeIt(func() {
			for _, i := range order {
				tbl.Upsert(names[i], arm)
			}
		})/float64(n))
		heap = append(heap, float64(heapLive()-base)/float64(n))
		fired = 0
		fire = append(fire, timeIt(func() { v.Run(20 * time.Millisecond) })/float64(n))
		if fired != n {
			panic(fmt.Sprintf("statetable replay: %d of %d timers fired", fired, n))
		}
		if rep < replayRepeats-1 {
			del = append(del, timeIt(func() {
				for _, i := range order {
					tbl.Delete(names[i])
				}
			})/float64(n))
		}
	}
	renew := func(_ *int, tc statetable.TimerControl[int]) { tc.Schedule(0, time.Hour) }
	r.record("statetable.renew_ns", "ns", loopNs(n, func(i int) { tbl.UpdateBytes(raw[order[i]], renew) }))
	del = append(del, timeIt(func() {
		for _, i := range order {
			tbl.Delete(names[i])
		}
	})/float64(n))
	tbl.Close()
	r.record("statetable.upsert_ns", "ns", upsert)
	r.record("statetable.delete_ns", "ns", del)
	r.record("statetable.fire_ns_per_timer", "ns", fire)
	r.record("statetable.heap_bytes_per_entry", "B", heap)
}

// replayRefreshPath times the sender's summary sweep into a discarding
// conn and the receivers absorbing the datagrams that sweep produced.
func replayRefreshPath(r rows, sz sizes, seed uint64) error {
	v := clock.NewVirtual()
	cfg := signal.Config{Protocol: signal.SS, RefreshInterval: time.Hour, Timeout: time.Hour,
		SummaryRefresh: true, SummaryMaxKeys: summaryKeys, Shards: tableShards, Clock: v}
	out := newReplayConn("sender", true)
	ss := signal.NewSessions(out, cfg)
	defer ss.CloseEvents()
	defer ss.Shutdown()
	value := keyValue(seed)
	peers := make([]net.Addr, sz.replayPeers)
	for p := range peers {
		peers[p] = benchAddr(fmt.Sprintf("peer%04d", p))
		sess, prefix := ss.Session(peers[p]), keyPrefix(seed, p)
		for k := 0; k < sz.replayKeys; k++ {
			if err := sess.Install(keyName(prefix, k), value); err != nil {
				return err
			}
		}
	}
	triggers := out.take()
	n := float64(sz.replayPeers * sz.replayKeys)
	ss.SummarySweep() // builds the cached key lists; later sweeps are steady state
	summaries := out.take()
	out.record = false
	r.record("signal.session_sweep_ns_per_key", "ns", scale(loopNs(3, func(int) { ss.SummarySweep() }), 1/n))

	// One receiver per peer, each holding that peer's keys in its own
	// table, as in the fan-out workloads; a sweep visits them in turn.
	src := benchAddr("sender")
	ins := make([]*replayConn, sz.replayPeers)
	scripts := make([][]transport.Message, sz.replayPeers)
	for p, peer := range peers {
		ins[p] = newReplayConn(peer.String(), false)
		rcv, err := signal.NewReceiver(ins[p], cfg)
		if err != nil {
			return err
		}
		defer rcv.Close()
		var mine []transport.Message
		for _, m := range triggers {
			if m.Addr == peer {
				mine = append(mine, transport.Message{Data: m.Data, Addr: src})
			}
		}
		ins[p].play(mine)
		if rcv.Len() != sz.replayKeys {
			return fmt.Errorf("refresh replay: receiver %d holds %d of %d keys", p, rcv.Len(), sz.replayKeys)
		}
		for _, m := range summaries {
			if m.Addr == peer {
				scripts[p] = append(scripts[p], transport.Message{Data: m.Data, Addr: src})
			}
		}
		if len(scripts[p]) != sz.replayKeys/summaryKeys {
			return fmt.Errorf("refresh replay: sweep sent peer %d %d datagrams, want %d", p, len(scripts[p]), sz.replayKeys/summaryKeys)
		}
	}
	r.record("signal.receiver_summary_ns_per_key", "ns", scale(loopNs(3, func(int) {
		for p := range ins {
			ins[p].play(scripts[p])
		}
	}), 1/n))
	return nil
}

// replayTriggerPath times Install on the sender, trigger handling on the
// receiver, and ack handling back on the sender, each repeat on fresh
// endpoints (a trigger or an ack is only new once).
func replayTriggerPath(r rows, n int, seed uint64) error {
	value := keyValue(seed)
	sndAddr, rcvAddr := benchAddr("sender"), benchAddr("receiver")
	var install, trigger, ack, decode []float64
	for rep := 0; rep < replayRepeats; rep++ {
		v := clock.NewVirtual()
		cfg := signal.Config{Protocol: signal.SSRTR, RefreshInterval: time.Hour, Timeout: time.Hour,
			Retransmit: churnRetransmit, SummaryRefresh: true, SummaryMaxKeys: summaryKeys,
			CoalesceAcks: true, Shards: tableShards, Clock: v}
		out := newReplayConn("sender", true)
		ss := signal.NewSessions(out, cfg)
		sess, prefix := ss.Session(rcvAddr), keyPrefix(seed, rep)
		keys := make([]string, n)
		for i := range keys {
			keys[i] = keyName(prefix, i)
		}
		var ierr error
		install = append(install, timeIt(func() {
			for _, k := range keys {
				if err := sess.Install(k, value); err != nil {
					ierr = err
				}
			}
		})/float64(n))
		if ierr != nil {
			return ierr
		}
		in := newReplayConn("receiver", true)
		rcv, err := signal.NewReceiver(in, cfg)
		if err != nil {
			return err
		}
		triggers := from(sndAddr, out.take())
		trigger = append(trigger, timeIt(func() { in.play(triggers) })/float64(n))
		if rcv.Len() != n {
			return fmt.Errorf("trigger replay: receiver holds %d of %d keys", rcv.Len(), n)
		}
		v.Run(cfg.Retransmit / 2) // the ack flush fires; no retransmission is due yet
		acks := in.take()
		items := ss.Stats().CoalescedAcks
		ack = append(ack, timeIt(func() {
			for i := range acks {
				ss.HandleDatagram(acks[i].Data, rcvAddr)
			}
		})/float64(n))
		if got := ss.Stats().CoalescedAcks - items; got != n {
			return fmt.Errorf("trigger replay: sender unpacked %d of %d acks", got, n)
		}
		decode = append(decode, timeIt(func() {
			for i := range acks {
				var m wire.Message
				if m.UnmarshalBinary(acks[i].Data) == nil {
					sink += len(m.Acks)
				}
			}
		})/float64(n))
		rcv.Close()
		ss.Shutdown()
		ss.CloseEvents()
	}
	r.record("signal.install_ns", "ns", install)
	r.record("signal.receiver_trigger_ns", "ns", trigger)
	r.record("signal.handle_ack_ns_per_item", "ns", ack)
	r.record("wire.decode_ackbatch_ns_per_item", "ns", decode)
	return nil
}

// replayTransport times one WriteBatch burst and the reads that drain it
// on an isolated loopback pair of each kernel-socket backend, with
// summary-sized payloads. Loopback, not a link.
func replayTransport(r rows) error {
	payload := make([]byte, 12+4+2+summaryKeys*(2+16)+4) // a 64-key summary datagram's size
	open := map[string]func() (rd, wr transport.Conn, to net.Addr, err error){
		"udp": func() (transport.Conn, transport.Conn, net.Addr, error) {
			a, err := net.ListenPacket("udp", "127.0.0.1:0")
			if err != nil {
				return nil, nil, nil, err
			}
			b, err := net.ListenPacket("udp", "127.0.0.1:0")
			if err != nil {
				a.Close()
				return nil, nil, nil, err
			}
			return transport.Wrap(a), transport.Wrap(b), a.LocalAddr(), nil
		},
		"udp_batch": func() (transport.Conn, transport.Conn, net.Addr, error) {
			ports := map[string]bool{}
			a, to, err := listenLoopback(ports)
			if err != nil {
				return nil, nil, nil, err
			}
			b, _, err := listenLoopback(ports)
			if err != nil {
				a.Close()
				return nil, nil, nil, err
			}
			return a, b, to, nil
		},
		"tcp": func() (transport.Conn, transport.Conn, net.Addr, error) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, nil, nil, err
			}
			a := transport.NewStream("", ln, transport.Options{})
			b := transport.NewStream("replay-writer", nil, transport.Options{})
			to, err := net.ResolveTCPAddr("tcp", a.LocalAddr().String())
			return a, b, to, err
		},
	}
	for _, kind := range []string{"udp", "udp_batch", "tcp"} {
		rd, wr, to, err := open[kind]()
		if err != nil {
			return fmt.Errorf("transport replay %s: %w", kind, err)
		}
		burst := make([]transport.Message, replayBurst)
		for i := range burst {
			burst[i] = transport.Message{Data: payload, Addr: to}
		}
		ring := transport.NewBatch(replayBurst)
		var wns, rns []float64
		const bursts = 64
		for rep := 0; rep < replayRepeats && err == nil; rep++ {
			var wsum, rsum float64
			got := 0
			for b := 0; b < bursts && err == nil; b++ {
				wsum += timeIt(func() { _, err = wr.WriteBatch(burst) })
				// The burst is in the receive buffer (a stream may still be
				// moving its tail): reads now wait for nothing but the copy.
				rd.SetReadDeadline(time.Now().Add(time.Second))
				for had := got; got-had < replayBurst && err == nil; {
					var n int
					rsum += timeIt(func() { n, err = rd.ReadBatch(ring) })
					got += n
				}
			}
			wns = append(wns, wsum/float64(bursts*replayBurst))
			rns = append(rns, rsum/float64(got))
		}
		rd.Close()
		wr.Close()
		if err != nil {
			return fmt.Errorf("transport replay %s: %w", kind, err)
		}
		r.record("transport."+kind+"_write_ns_per_datagram", "ns", wns)
		r.record("transport."+kind+"_read_ns_per_datagram", "ns", rns)
	}
	return nil
}

// replayLossyClock times the virtual link's delivery path — write, kernel
// event, gate hand-off to the reader, read — and a bare clock timer.
func replayLossyClock(r rows) error {
	v := clock.NewVirtual()
	nw, err := lossy.NewNetwork(lossy.Config{Clock: v})
	if err != nil {
		return err
	}
	a, b := nw.Endpoint("a"), nw.Endpoint("b")
	defer a.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the one reader virtual mode allows per conn
		defer wg.Done()
		buf := make([]byte, transport.MaxDatagram)
		for {
			if _, _, err := b.ReadFrom(buf); err != nil {
				return
			}
		}
	}()
	payload := make([]byte, 12+4+2+summaryKeys*(2+16)+4)
	const n = 4096
	deliver := loopNs(1, func(int) {
		for i := 0; i < n; i++ {
			a.WriteTo(payload, b.LocalAddr())
		}
		v.Run(0)
	})
	b.Close()
	wg.Wait()
	r.record("lossy.deliver_ns_per_datagram", "ns", scale(deliver, 1.0/n))

	fired := 0
	fire := loopNs(1, func(int) {
		for i := 0; i < n; i++ {
			v.AfterFunc(time.Duration(i+1)*time.Microsecond, func() { fired++ })
		}
		v.Run(time.Second)
	})
	if fired != n*replayRepeats {
		return fmt.Errorf("clock replay: %d of %d timers fired", fired, n*replayRepeats)
	}
	r.record("clock.timer_fire_ns", "ns", scale(fire, 1.0/n))
	return nil
}

// replayTelemetry times the two instruments that sit on every hot path
// even without a registry.
func replayTelemetry(r rows) {
	var c telemetry.Counter
	var h telemetry.Histogram
	r.record("telemetry.counter_add_ns", "ns", loopNs(1<<20, func(int) { c.Add(1) }))
	r.record("telemetry.histogram_observe_ns", "ns", loopNs(1<<20, func(i int) { h.Observe(time.Duration(i)) }))
}
