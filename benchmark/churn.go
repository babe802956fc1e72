package main

import (
	"bytes"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"softstate/internal/node"
	"softstate/internal/signal"
)

// churn-chain: an open loop of installs and removes through a four-node
// chain over lossy loopback sockets.
const (
	churnLoss       = 0.02 // per link direction
	churnRefresh    = 2 * time.Second
	churnTimeout    = 6 * time.Second
	churnRetransmit = 20 * time.Millisecond
	// churnDeadline is how long after its due time an operation may take
	// to show at the tail before it counts as failed.
	churnDeadline = 2 * time.Second
	// churnLateLimit bounds the generator's own lateness: when more than
	// one operation in ten was issued this late, the machine, not the
	// program, set the latencies, and the run is marked invalid. The gate
	// is p90, not p99: Go's concurrent mark phases (three or four per ten
	// seconds here, 40–110 ms each, idle mark workers on both Ps) alone
	// delay 1–3 % of the pacer's wake-ups by 5–30 ms on a quiet machine.
	// p99 is reported, as node.generator_late_p99_ms.
	churnLateLimit = 5 * time.Millisecond
	churnHops      = 3
	// churnBurst is how many installs (and removes) share one due time:
	// the schedule is a burst of 4 + 4 every 2 ms. Stating the bursts
	// beats getting them by accident — a pacer on time.Sleep wakes on the
	// runtime's millisecond grid and issues whatever fell due — and 500
	// precise wake-ups a second cost the pacer a tenth of what 4000 do.
	churnBurst = 4
	// churnSample is the 1-in-N share of installs whose triggers the
	// traced pass marks at every conn they cross.
	churnSample = 64
	// churnStampSeconds sizes the stamp tables: the base, plus more churn
	// than a run's time budget (runBudget) has room for.
	churnStampSeconds = 160
)

// stampTable holds, per key index, when each hop's receiver installed the
// key and when the tail removed it (ns since the chain's epoch; 0 = not
// yet). The program's OnEvent hooks write it; the driver reads a key's
// stamps only after the key's deadline.
type stampTable struct {
	installed [churnHops][]atomic.Int64
	removed   []atomic.Int64
}

type chain struct {
	rec    *recorder
	base   int           // keys installed in set-up and held throughout
	rate   int           // installs per second
	hold   time.Duration // a churned key lives this long
	prefix string
	value  []byte
	epoch  time.Time

	origin *node.Node
	relays []*node.Relay
	tail   *signal.Receiver
	first  net.Addr
	conns  []*linkShared

	// stamps is nil during set-up, so the tables are not charged to
	// heap_bytes_per_key.
	stamps        atomic.Pointer[stampTable]
	tailInstalled atomic.Int64 // churned keys the tail has installed

	// Generator state (see nextDue). Indices count churned keys only; key
	// index = base + i.
	genStart  time.Time
	installed int
	removed   int

	kInstall, kRemove uint16 // the driver's span kinds
}

func (c *chain) since() int64 { return int64(time.Since(c.epoch)) }

// hook returns the OnEvent hook of hop h's receiver.
func (c *chain) hook(h int) func(signal.Event) {
	tail := h == churnHops-1
	return func(ev signal.Event) {
		st := c.stamps.Load()
		if st == nil {
			return
		}
		i := keyIndex(ev.Key)
		if i < 0 || i >= len(st.removed) {
			return
		}
		switch ev.Kind {
		case signal.EventInstalled:
			st.installed[h][i].Store(c.since())
			if tail && i >= c.base {
				c.tailInstalled.Add(1)
			}
		case signal.EventRemoved:
			if tail {
				st.removed[i].Store(c.since())
			}
		}
	}
}

// buildChurnChain hand-wires node.New → 2 × node.NewRelay →
// signal.NewReceiver over UDP-batch loopback sockets under SS+RTR, each
// conn dropping churnLoss of what it writes, installs the base population
// and waits until every hop holds it.
func buildChurnChain(base, rate int, hold time.Duration, seed uint64, rec *recorder) (world, error) {
	c := &chain{rec: rec, base: base, rate: rate, hold: hold, prefix: keyPrefix(seed, 0), value: keyValue(seed), epoch: time.Now(),
		kInstall: rec.kind("node", "Install"), kRemove: rec.kind("node", "Remove")}
	cfg := signal.Config{
		Protocol:        signal.SSRTR,
		RefreshInterval: churnRefresh,
		Timeout:         churnTimeout,
		Retransmit:      churnRetransmit,
		SummaryRefresh:  true,
		SummaryMaxKeys:  summaryKeys,
		CoalesceAcks:    true,
		Shards:          tableShards,
	}
	var opened []net.PacketConn
	fail := func(err error) (world, error) {
		c.close()
		for _, pc := range opened {
			pc.Close()
		}
		return nil, err
	}
	ports := map[string]bool{}
	listen := func(name, role string) (*tracedConn, net.Addr, error) {
		pc, addr, err := listenLoopback(ports)
		if err != nil {
			return nil, nil, err
		}
		opened = append(opened, pc)
		w := wrapConn(pc, name, role, "transport", rec, churnLoss, seed^uint64(len(opened))*0x517cc1b727220a95)
		w.sh.sampled = c.sampled
		c.conns = append(c.conns, w.sh)
		return w, addr, nil
	}
	hopCfg := func(h int) signal.Config {
		hc := cfg
		hc.OnEvent = c.hook(h)
		return hc
	}

	// Build from the tail up, so each hop knows its next hop's address.
	tc, next, err := listen("tail.up", "receiver")
	if err != nil {
		return fail(err)
	}
	if c.tail, err = signal.NewReceiver(tc, hopCfg(churnHops-1)); err != nil {
		return fail(err)
	}
	c.relays = make([]*node.Relay, churnHops-1)
	for h := churnHops - 2; h >= 0; h-- {
		up, upAddr, err := listen(fmt.Sprintf("relay%d.up", h+1), "receiver")
		if err != nil {
			return fail(err)
		}
		down, _, err := listen(fmt.Sprintf("relay%d.down", h+1), "sender")
		if err != nil {
			return fail(err)
		}
		if c.relays[h], err = node.NewRelay(up, down, next, hopCfg(h)); err != nil {
			return fail(err)
		}
		next = upAddr
	}
	oc, _, err := listen("origin", "sender")
	if err != nil {
		return fail(err)
	}
	if c.origin, err = node.New(oc, cfg); err != nil {
		return fail(err)
	}
	c.first = next
	opened = nil // every conn now belongs to an endpoint that closes it

	for _, i := range permutation(seed, base) {
		if err := c.origin.Install(c.first, keyName(c.prefix, i), c.value); err != nil {
			return fail(err)
		}
	}
	for deadline := time.Now().Add(30 * time.Second); !c.holdsEverywhere(base); {
		if time.Now().After(deadline) {
			held := c.tail.Len()
			c.close()
			return nil, fmt.Errorf("set-up: tail holds %d of %d base keys after 30 s", held, base)
		}
		sleepUntil(time.Now().Add(200 * time.Microsecond))
	}
	return c, nil
}

// sampled reports whether key is a churned key whose triggers the traced
// pass follows hop by hop, and the trace id its spans share.
func (c *chain) sampled(key []byte) (uint64, bool) {
	i := keyIndex(key)
	if i < c.base || i%churnSample != 0 {
		return 0, false
	}
	return uint64(i), true
}

// receivers lists the state-holding hops, upstream to downstream.
func (c *chain) receivers() []*signal.Receiver {
	out := make([]*signal.Receiver, 0, churnHops)
	for _, r := range c.relays {
		if r != nil {
			out = append(out, r.Receiver())
		}
	}
	if c.tail != nil {
		out = append(out, c.tail)
	}
	return out
}

func (c *chain) holdsEverywhere(n int) bool {
	for _, r := range c.receivers() {
		if r.Len() != n {
			return false
		}
	}
	return true
}

func (c *chain) entries() int64       { return int64(c.base) * churnHops }
func (c *chain) links() []*linkShared { return c.conns }
func (c *chain) parks() int64         { return 0 }

func (c *chain) sent() map[string]int64 {
	total := map[string]int64{}
	mergeSent(total, c.origin.Stats().Sent)
	for _, r := range c.relays {
		mergeSent(total, r.Receiver().Stats().Sent)
		mergeSent(total, r.Downstream().Stats().Sent)
	}
	mergeSent(total, c.tail.Stats().Sent)
	return total
}

// ackItems returns the acknowledgements the receivers coalesced and the
// ack-batch datagrams that carried them.
func (c *chain) ackItems() (items, datagrams int64) {
	for _, r := range c.receivers() {
		st := r.Stats()
		items += int64(st.CoalescedAcks)
		datagrams += int64(st.Sent["ack-batch"])
	}
	return items, datagrams
}

func (c *chain) close() {
	if c.origin != nil {
		c.origin.Close()
	}
	for _, r := range c.relays {
		if r != nil {
			r.Close()
		}
	}
	if c.tail != nil {
		c.tail.Close()
	}
}

// warm starts the generator and runs it until the live set is steady:
// one hold of installs, after which removes flow at the same rate.
func (c *chain) warm() {
	c.stamps.Store(newStampTable(c.base + churnStampSeconds*c.rate))
	c.genStart = time.Now()
	c.generate(c.hold+c.hold/10, nil, nil, nil)
}

func newStampTable(keys int) *stampTable {
	st := &stampTable{removed: make([]atomic.Int64, keys)}
	for h := range st.installed {
		st.installed[h] = make([]atomic.Int64, keys)
	}
	return st
}

// op is one generated operation, kept until its deadline has passed.
type op struct {
	key    int // key index
	remove bool
	due    int64   // ns since epoch
	lateMs float64 // how long after due the generator issued it
}

// nextDue is the schedule: a burst of churnBurst installs is due every
// churnBurst/rate seconds from genStart, each key's remove one hold after
// its install.
func (c *chain) nextDue() (due time.Time, remove bool) {
	period := churnBurst * time.Second / time.Duration(c.rate)
	inst := c.genStart.Add(time.Duration(c.installed/churnBurst) * period)
	rem := c.genStart.Add(time.Duration(c.removed/churnBurst)*period + c.hold)
	if rem.Before(inst) {
		return rem, true
	}
	return inst, false
}

// generate is the open-loop pacer, run for d. Every operation has a due
// time fixed by the schedule, not by when the previous one finished; the
// generator sleeps until it, issues the call, and records how late it
// was. It appends the operations it issued to ops and the duration of
// each Install call (ns) to callNs.
func (c *chain) generate(d time.Duration, p *phase, ops []op, callNs []float64) ([]op, []float64) {
	// A pause since the last call (the caller was sampling the process)
	// would show as lateness of the first operations: shift the schedule
	// past it.
	if due, _ := c.nextDue(); time.Now().After(due) {
		c.genStart = c.genStart.Add(time.Since(due))
	}
	for end := time.Now().Add(d); ; {
		due, remove := c.nextDue()
		if due.After(end) {
			return ops, callNs
		}
		// Sleep, never spin: a spinning pacer would put its own CPU into
		// cpu_ns_per_op. What the sleep overshoots shows as lateness.
		sleepUntil(due)
		now := time.Now()
		o := op{remove: remove, due: int64(due.Sub(c.epoch)), lateMs: float64(now.Sub(due)) / 1e6}
		var err error
		if remove {
			o.key = c.base + c.removed
			c.removed++
			err = c.origin.Remove(c.first, keyName(c.prefix, o.key))
		} else {
			o.key = c.base + c.installed
			c.installed++
			err = c.origin.Install(c.first, keyName(c.prefix, o.key), c.value)
		}
		took := time.Since(now)
		if err != nil && p != nil {
			p.failed++
		}
		if !remove {
			callNs = append(callNs, float64(took))
		}
		if c.rec.on() {
			s := span{Kind: c.kInstall, End: c.rec.now(), N: 1}
			s.Start = s.End - int64(took)
			if remove {
				s.Kind = c.kRemove
			} else if o.key%churnSample == 0 {
				s.Trace = uint64(o.key)
			}
			c.rec.driver.add(s)
		}
		ops = append(ops, o)
	}
}

// drive runs the generator for d in windows of one second, waits out the
// last operations' deadline, and scores every operation from its due
// time.
func (c *chain) drive(d time.Duration, p *phase) {
	sent0 := c.sent()
	items0, batches0 := c.ackItems()
	var ops []op
	var callNs, inflight []float64
	// Windows of one second; a region shorter than that is one window.
	wins := make([]window, max(1, int(d/time.Second)))
	ends := make([]int64, len(wins)) // when each window ended, ns since epoch
	for w := range wins {
		wins[w].traced = c.rec.sample()
		t0, cpu0 := time.Now(), cpuTime()
		ops, callNs = c.generate(d/time.Duration(len(wins)), p, ops, callNs)
		wins[w].wallNs, wins[w].cpuNs = int64(time.Since(t0)), int64(cpuTime()-cpu0)
		ends[w] = c.since()
		inflight = append(inflight, float64(int64(c.installed)-c.tailInstalled.Load()))
		if wins[w].traced {
			c.rec.fold()
		}
	}
	c.rec.enabled.Store(false)
	st := c.stamps.Load()

	// Give the tail up to churnDeadline to show the last operations.
	shown := func(o op) int64 {
		if o.remove {
			return st.removed[o.key].Load()
		}
		return st.installed[churnHops-1][o.key].Load()
	}
	for i, give := len(ops)-1, time.Now().Add(churnDeadline); i >= 0 && i >= len(ops)-2*c.rate; i-- {
		for shown(ops[i]) == 0 && time.Now().Before(give) {
			sleepUntil(time.Now().Add(200 * time.Microsecond))
		}
	}

	var installs int64
	var lateMs []float64
	var hopMs [churnHops][]float64
	for _, o := range ops {
		p.attempted++
		lateMs = append(lateMs, o.lateMs)
		at := shown(o)
		if at == 0 || at-o.due > int64(churnDeadline) {
			p.failed++
			continue
		}
		p.ops++
		// The operation counts in the window the tail confirmed it in.
		for w := range wins {
			if at <= ends[w] {
				wins[w].ops++
				break
			}
		}
		if o.remove {
			continue
		}
		installs++
		p.latencyMs = append(p.latencyMs, float64(at-o.due)/1e6)
		prev := o.due
		for h := 0; h < churnHops; h++ {
			if t := st.installed[h][o.key].Load(); t != 0 {
				hopMs[h] = append(hopMs[h], float64(t-prev)/1e6)
				prev = t
			}
		}
	}
	p.windows = append(p.windows, wins...)

	late90 := quantile(lateMs, 0.9)
	if late90 > float64(churnLateLimit)/1e6 {
		p.invalid = fmt.Sprintf("generator lateness p90 %.3f ms exceeds %v: the machine was starved", late90, churnLateLimit)
	}
	// A backlog that grows shows in every later window, a stall of the
	// machine in the one it fell in: compare the halves of the region by
	// their medians, not one sample with the rest.
	early, recent := median(inflight[:len(inflight)/2]), median(inflight[len(inflight)/2:])
	if len(inflight) > 1 && recent > 10*early+100 {
		p.invalid = fmt.Sprintf("backlog grew: median %.0f installs in flight at the window ends of the second half, %.0f in the first", recent, early)
	}
	fmt.Printf("pacer: late p50=%.3f p90=%.3f p99=%.3f ms; installs in flight at window ends: median %.0f then %.0f, max %.0f\n",
		median(lateMs), late90, quantile(lateMs, 0.99), early, recent, quantile(inflight, 1))

	sent := c.sent()
	items, batches := c.ackItems()
	p.extra["node.install_call_ns"] = median(callNs)
	p.extra["node.install_p99_ms"] = quantile(p.latencyMs, 0.99)
	p.extra["node.generator_late_p50_ms"] = median(lateMs)
	p.extra["node.generator_late_p99_ms"] = quantile(lateMs, 0.99)
	for h := 0; h < churnHops; h++ {
		p.extra[fmt.Sprintf("node.hop_ms_p50.hop%d", h+1)] = median(hopMs[h])
	}
	// Every install crosses churnHops links once if nothing is lost; the
	// triggers beyond that are retransmissions.
	triggers := float64(sent["trigger"] - sent0["trigger"])
	p.extra["signal.retransmits_per_install"] = ratio(triggers-float64(installs*churnHops), float64(installs))
	p.extra["signal.ack_items_per_datagram"] = ratio(float64(items-items0), float64(batches-batches0))
}

// verify waits (up to T) for every hop to hold exactly the origin's live
// set — the base plus the churned keys installed and not yet removed —
// and then audits every endpoint's invariants.
func (c *chain) verify() (failed int64, problems []string) {
	live := map[string]bool{}
	for i := 0; i < c.base; i++ {
		live[keyName(c.prefix, i)] = true
	}
	for i := c.removed; i < c.installed; i++ {
		live[keyName(c.prefix, c.base+i)] = true
	}
	for deadline := time.Now().Add(churnTimeout); !c.holdsEverywhere(len(live)) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	for h, r := range c.receivers() {
		keys := r.Keys()
		bad := 0
		for _, k := range keys {
			if !live[k] {
				bad++
			}
		}
		for k := range live {
			if v, ok := r.Get(k); !ok || !bytes.Equal(v, c.value) {
				bad++
			}
		}
		if bad > 0 || len(keys) != len(live) {
			problems = append(problems, fmt.Sprintf("hop %d holds %d keys (%d wrong or missing), origin's live set has %d", h+1, len(keys), bad, len(live)))
			if h == churnHops-1 {
				failed += int64(bad)
			}
		}
	}
	if got := c.origin.Live(); got != len(live) {
		problems = append(problems, fmt.Sprintf("origin has %d live keys, driver expects %d", got, len(live)))
	}
	// Acks of the last operations may still be in flight; the invariants
	// are exact only once they have landed.
	var violations []string
	for deadline := time.Now().Add(churnTimeout); ; time.Sleep(10 * time.Millisecond) {
		violations = c.origin.CheckInvariants()
		for _, r := range c.relays {
			violations = append(violations, r.CheckInvariants()...)
		}
		violations = append(violations, c.tail.CheckInvariants()...)
		if len(violations) == 0 || time.Now().After(deadline) {
			break
		}
	}
	for _, v := range violations {
		problems = append(problems, "invariant: "+v)
	}
	return failed, problems
}
