package main

import (
	"bytes"
	"fmt"
	"net"
	"time"

	"softstate/internal/clock"
	"softstate/internal/lossy"
	"softstate/internal/node"
	"softstate/internal/signal"
)

// fanout is one node.Node holding keys at a set of receivers: the
// topology of refresh-fanout and hold-hs (virtual clock, lossy.Network)
// and of refresh-realwire (wall clock, loopback kernel sockets).
type fanout struct {
	rec   *recorder
	proto signal.Protocol
	keys  int // per peer
	seed  uint64
	value []byte

	clk   *clock.Virtual // nil on real sockets
	step  time.Duration  // virtual time per window
	node  *node.Node
	rcvs  []*signal.Receiver
	addrs []net.Addr
	conns []*linkShared // node first, then one per receiver

	window uint64 // windows driven so far: the spans' shared trace id
}

func (f *fanout) total() int64 { return int64(len(f.rcvs)) * int64(f.keys) }

// install installs every key of every peer: peers in a seeded order, each
// peer's keys from a seeded starting offset.
func (f *fanout) install() error {
	for _, p := range permutation(f.seed, len(f.addrs)) {
		prefix := keyPrefix(f.seed, p)
		off := int(f.seed % uint64(f.keys))
		for k := 0; k < f.keys; k++ {
			if err := f.node.Install(f.addrs[p], keyName(prefix, (k+off)%f.keys), f.value); err != nil {
				return err
			}
		}
	}
	return nil
}

func (f *fanout) held() int64 {
	var n int64
	for _, r := range f.rcvs {
		n += int64(r.Len())
	}
	return n
}

// received sums the datagrams the receivers accepted.
func (f *fanout) received() int64 {
	var n int64
	for _, r := range f.rcvs {
		n += r.ReceivedDatagrams()
	}
	return n
}

func (f *fanout) sent() map[string]int64 {
	total := map[string]int64{}
	mergeSent(total, f.node.Stats().Sent)
	for _, r := range f.rcvs {
		mergeSent(total, r.Stats().Sent)
	}
	return total
}

func (f *fanout) entries() int64       { return f.total() }
func (f *fanout) links() []*linkShared { return f.conns }

func (f *fanout) warm() {}

func (f *fanout) parks() int64 {
	if f.clk == nil {
		return 0
	}
	return f.clk.Parks()
}

func (f *fanout) close() {
	if f.node != nil {
		f.node.Close()
	}
	for _, r := range f.rcvs {
		r.Close()
	}
}

// verify requires every receiver to hold exactly its peer's keys with the
// installed value, and every endpoint's invariants to hold. A missing or
// wrong key is a failed operation.
func (f *fanout) verify() (failed int64, problems []string) {
	for p, r := range f.rcvs {
		if got := r.Len(); got != f.keys {
			problems = append(problems, fmt.Sprintf("peer %d holds %d keys, want %d", p, got, f.keys))
		}
		prefix := keyPrefix(f.seed, p)
		bad := 0
		for k := 0; k < f.keys; k++ {
			if v, ok := r.Get(keyName(prefix, k)); !ok || !bytes.Equal(v, f.value) {
				bad++
			}
		}
		if bad > 0 {
			failed += int64(bad)
			problems = append(problems, fmt.Sprintf("peer %d: %d keys missing or with the wrong value", p, bad))
		}
		for _, v := range r.CheckInvariants() {
			problems = append(problems, fmt.Sprintf("peer %d invariant: %s", p, v))
		}
	}
	for _, v := range f.node.CheckInvariants() {
		problems = append(problems, "node invariant: "+v)
	}
	if live := f.node.Live(); int64(live) != f.total() {
		problems = append(problems, fmt.Sprintf("node has %d live keys, want %d", live, f.total()))
	}
	return failed, problems
}

// buildVirtualFanout wires the topology over one lossy.Network inside a
// virtual clock, installs the population and drains the burst. proto SS
// gives refresh-fanout (T = 1 h: nothing but refresh happens); proto HS
// gives hold-hs (T = ProbeInterval = 300 ms: nothing but probes happens).
func buildVirtualFanout(proto signal.Protocol, peers, keys int, seed uint64, rec *recorder) (*fanout, error) {
	v := clock.NewVirtual()
	nw, err := lossy.NewNetwork(lossy.Config{Seed: seed, Clock: v})
	if err != nil {
		return nil, err
	}
	cfg := signal.Config{
		Protocol:        proto,
		RefreshInterval: refreshInterval,
		Timeout:         time.Hour,
		SummaryRefresh:  true,
		SummaryMaxKeys:  summaryKeys,
		Shards:          tableShards,
		Clock:           v,
	}
	f := &fanout{rec: rec, proto: proto, keys: keys, seed: seed, value: keyValue(seed), clk: v, step: refreshInterval}
	if proto == signal.HS {
		cfg.Timeout = holdWindow
		f.step = holdWindow
	}
	nc := wrapConn(nw.Endpoint("node"), "node", "sender", "lossy", rec, 0, 0)
	f.conns = append(f.conns, nc.sh)
	if f.node, err = node.New(nc, cfg); err != nil {
		return nil, err
	}
	for p := 0; p < peers; p++ {
		name := fmt.Sprintf("peer%04d", p)
		pc := nw.Endpoint(name)
		c := wrapConn(pc, name, "receiver", "lossy", rec, 0, 0)
		r, err := signal.NewReceiver(c, cfg)
		if err != nil {
			f.close()
			return nil, err
		}
		f.conns = append(f.conns, c.sh)
		f.rcvs = append(f.rcvs, r)
		f.addrs = append(f.addrs, pc.LocalAddr())
	}
	if err := f.install(); err != nil {
		f.close()
		return nil, err
	}
	v.Run(0) // zero delay: the burst (and its acks under HS) lands at this instant
	if held := f.held(); held != f.total() {
		f.close()
		return nil, fmt.Errorf("set-up: %d of %d keys held after the install burst", held, f.total())
	}
	return f, nil
}

// driveVirtual calls clk.Run(step) back to back. Under SS each window is
// one summary sweep of every peer and the confirmed work is the renewals
// the receivers accepted; under HS it is one probe round and the work is
// key·seconds held.
func (f *fanout) driveVirtual(d time.Duration, p *phase) {
	sweeps := f.proto != signal.HS
	node := f.conns[0]
	kRun, kSweep := f.rec.kind("clock", "Run"), f.rec.kind("signal", "sweep")
	for start := time.Now(); time.Since(start) < d; {
		f.window++
		traced := f.rec.sample()
		var id uint32
		var t0 int64
		if traced {
			id, t0 = f.rec.begin(f.window)
		}
		rcv0 := f.received()
		w0 := time.Now()
		f.clk.Run(f.step)
		wall := time.Since(w0)
		if traced {
			f.rec.end(id, kRun, t0, f.total())
			if sweeps {
				f.rec.wrapChildren(id, kSweep, node.lane, t0, f.total(),
					func(s *span) bool { return s.Lane == node.lane && s.Kind == node.kWrite })
			}
			f.rec.fold()
		}
		want := f.total()
		var got int64
		if sweeps {
			got = (f.received() - rcv0) * summaryKeys
		} else {
			got = f.held()
		}
		if got > want {
			got = want
		}
		w := window{wallNs: int64(wall), ops: float64(got), traced: traced}
		if !sweeps {
			w.ops *= f.step.Seconds()
		}
		p.windows = append(p.windows, w)
		p.latencyMs = append(p.latencyMs, float64(wall)/1e6)
		p.ops += w.ops
		p.attempted += want
		p.failed += want - got
		p.virtualSec += f.step.Seconds()
	}
	f.rec.enabled.Store(false)
}

// buildRealwire wires the same topology over loopback kernel sockets with
// sendmmsg/recvmmsg batching, under SS+ER with R = T = 1 h so that only
// the driver sweeps. The install burst overruns socket buffers; sweeps
// make the receivers NACK what they miss and the node re-trigger it.
func buildRealwire(peers, keys int, seed uint64, rec *recorder) (*fanout, error) {
	cfg := signal.Config{
		Protocol:        signal.SSER,
		RefreshInterval: time.Hour,
		Timeout:         time.Hour,
		SummaryRefresh:  true,
		SummaryMaxKeys:  summaryKeys,
		Shards:          tableShards,
	}
	f := &fanout{rec: rec, proto: signal.SSER, keys: keys, seed: seed, value: keyValue(seed)}
	ports := map[string]bool{}
	listen := func(name, role string) (*tracedConn, net.Addr, error) {
		c, addr, err := listenLoopback(ports)
		if err != nil {
			return nil, nil, err
		}
		return wrapConn(c, name, role, "transport", rec, 0, 0), addr, nil
	}
	nc, _, err := listen("node", "sender")
	if err != nil {
		return nil, err
	}
	f.conns = append(f.conns, nc.sh)
	if f.node, err = node.New(nc, cfg); err != nil {
		nc.Close()
		return nil, err
	}
	for p := 0; p < peers; p++ {
		c, addr, err := listen(fmt.Sprintf("peer%04d", p), "receiver")
		if err != nil {
			f.close()
			return nil, err
		}
		r, err := signal.NewReceiver(c, cfg)
		if err != nil {
			c.Close()
			f.close()
			return nil, err
		}
		f.conns = append(f.conns, c.sh)
		f.rcvs = append(f.rcvs, r)
		f.addrs = append(f.addrs, addr)
	}
	if err := f.install(); err != nil {
		f.close()
		return nil, err
	}
	deadline := time.Now().Add(60 * time.Second)
	for f.held() != f.total() {
		if time.Now().After(deadline) {
			held := f.held()
			f.close()
			return nil, fmt.Errorf("set-up: %d of %d keys held after 60 s of repair", held, f.total())
		}
		f.node.SummarySweep()
		// Let the sweep and the NACK → re-trigger round trips it causes
		// land before sweeping again, or returning: a datagram of set-up
		// still in flight would be confirmed in the timed region.
		for last := int64(-1); ; {
			cur := f.received()
			if cur == last {
				break
			}
			last = cur
			sleepUntil(time.Now().Add(2 * time.Millisecond))
		}
	}
	return f, nil
}

// Loopback can lose a burst: once in about two thousand sweeps here the
// kernel's per-CPU backlog queue (net.core.netdev_max_backlog) overflowed
// and a run of 64 datagrams vanished. A closed-loop client whose request
// got no answer asks again: when nothing more is confirmed for
// realwireStall the sweep is repeated, and the window ends when a whole
// sweep is confirmed. A window that needed realwirePatience has failed.
// realwireStall is longer than a sweep takes (≈ 75 ms), so that a machine
// that merely stalled the receivers for a few tens of milliseconds does not
// get a second sweep in flight: at 20 ms half the runs of a busy hour did.
const (
	realwireStall    = 100 * time.Millisecond
	realwirePatience = 2 * time.Second
)

// driveRealwire is a closed loop with one client: the next sweep starts
// when the receivers have confirmed the previous one.
func (f *fanout) driveRealwire(d time.Duration, p *phase) {
	kSweep := f.rec.kind("signal", "sweep")
	confirmed := f.received()
	for start := time.Now(); time.Since(start) < d; {
		f.window++
		traced := f.rec.sample()
		var id uint32
		var t0 int64
		if traced {
			id, t0 = f.rec.begin(f.window)
		}
		w0 := time.Now()
		want := f.received() + int64(f.node.SummarySweep())
		if traced {
			f.rec.end(id, kSweep, t0, f.total())
		}
		missing := int64(0)
		for last, progress := int64(-1), w0; ; sleepUntil(time.Now().Add(100 * time.Microsecond)) {
			got, now := f.received(), time.Now()
			if got >= want {
				break
			}
			if got != last {
				last, progress = got, now
			} else if now.Sub(w0) > realwirePatience {
				missing = want - got
				break
			} else if now.Sub(progress) > realwireStall {
				p.extra["transport.sweeps_repeated"]++
				want = got + int64(f.node.SummarySweep())
				progress = now
			}
		}
		wall := time.Since(w0)
		if traced {
			f.rec.fold()
		}
		// The work is what the receivers confirmed since the last window
		// ended, a repeated sweep's renewals and stragglers included: every
		// accepted datagram counts once.
		got := f.received()
		w := window{wallNs: int64(wall), ops: float64((got - confirmed) * summaryKeys), traced: traced}
		confirmed = got
		p.windows = append(p.windows, w)
		p.latencyMs = append(p.latencyMs, float64(wall)/1e6)
		p.ops += w.ops
		p.attempted += f.total()
		p.failed += missing * summaryKeys
	}
	f.rec.enabled.Store(false)
}

func (f *fanout) drive(d time.Duration, p *phase) {
	if f.clk != nil {
		f.driveVirtual(d, p)
	} else {
		f.driveRealwire(d, p)
	}
}
