package sim

import (
	"fmt"

	"softstate/internal/des"
	"softstate/internal/multihop"
	"softstate/internal/netsim"
	"softstate/internal/rand"
	"softstate/internal/singlehop"
	"softstate/internal/stats"
)

// MultiConfig parameterizes a multi-hop simulation (paper §III-B setting:
// infinite state lifetime, a sender updating state that must propagate to
// every node on the path).
type MultiConfig struct {
	// Protocol is SS, SS+RT, or HS (the paper's multi-hop protocols).
	Protocol singlehop.Protocol
	// Params are the multi-hop system parameters.
	Params multihop.Params
	// Horizon is the simulated time per replication, in seconds.
	Horizon float64
	// Runs is the number of independent replications (for CIs).
	Runs int
	// Seed makes the run reproducible.
	Seed uint64
	// Timers selects the protocol-timer distribution.
	Timers rand.TimerKind
}

// MultiResult aggregates a multi-hop simulation.
type MultiResult struct {
	// Inconsistency estimates the end-to-end ratio I (any hop mismatched).
	Inconsistency Estimate
	// PerHop estimates the per-hop inconsistency of Figure 17.
	PerHop []Estimate
	// MsgRate estimates signaling messages per second over all links.
	MsgRate Estimate
	// Runs is the number of replications.
	Runs int
}

// RunMultiHop simulates cfg.Runs independent replications.
func RunMultiHop(cfg MultiConfig) (MultiResult, error) {
	if !multihop.Supported(cfg.Protocol) {
		return MultiResult{}, fmt.Errorf("sim: protocol %v is not part of the multi-hop study", cfg.Protocol)
	}
	if err := cfg.Params.Validate(); err != nil {
		return MultiResult{}, err
	}
	if cfg.Runs <= 0 || cfg.Horizon <= 0 {
		return MultiResult{}, fmt.Errorf("sim: Runs (%d) and Horizon (%v) must be positive", cfg.Runs, cfg.Horizon)
	}
	root := rand.NewSource(cfg.Seed)
	n := cfg.Params.Hops
	var e2e, rate stats.Mean
	perHop := make([]stats.Mean, n)
	for r := 0; r < cfg.Runs; r++ {
		rep := runPathReplication(cfg, root.Split())
		e2e.Add(rep.endToEnd)
		rate.Add(rep.msgRate)
		for i := 0; i < n; i++ {
			perHop[i].Add(rep.perHop[i])
		}
	}
	res := MultiResult{
		Inconsistency: Estimate{e2e.Mean(), e2e.CI95()},
		MsgRate:       Estimate{rate.Mean(), rate.CI95()},
		PerHop:        make([]Estimate, n),
		Runs:          cfg.Runs,
	}
	for i := range perHop {
		res.PerHop[i] = Estimate{perHop[i].Mean(), perHop[i].CI95()}
	}
	return res, nil
}

type pathOutcome struct {
	endToEnd float64
	perHop   []float64
	msgRate  float64
}

// node is one receiver on the path (index 1..N); index 0 is the sender,
// which shares the struct for the relay machinery.
type node struct {
	idx   int
	value int // 0 = no state

	// Downstream reliable-relay state (SS+RT, HS).
	sentSeq  int
	ackedSeq int
	retx     *des.Timer

	timeout *des.Timer
	frac    stats.Fraction
}

// path drives one replication.
type path struct {
	cfg   MultiConfig
	k     *des.Kernel
	net   *netsim.Path
	rng   *rand.Source
	nodes []*node // nodes[0] = sender, nodes[1..N] = receivers

	seq          int
	refreshTimer *des.Timer
	faultMsgs    int
	e2e          stats.Fraction
}

func runPathReplication(cfg MultiConfig, rng *rand.Source) pathOutcome {
	k := des.New()
	n := cfg.Params.Hops
	pt := &path{
		cfg: cfg,
		k:   k,
		net: netsim.NewPath(k, rng.Split(), n, netsim.Config{
			Loss:  cfg.Params.Loss,
			Delay: rand.Timer{Kind: rand.Exponential, Mean: cfg.Params.Delay},
		}),
		rng:   rng.Split(),
		nodes: make([]*node, n+1),
	}
	for i := range pt.nodes {
		pt.nodes[i] = &node{idx: i}
	}
	pt.start()
	k.RunUntil(cfg.Horizon)
	out := pathOutcome{perHop: make([]float64, n)}
	for j := 1; j <= n; j++ {
		pt.nodes[j].frac.Finish(cfg.Horizon)
		out.perHop[j-1] = pt.nodes[j].frac.Value()
	}
	pt.e2e.Finish(cfg.Horizon)
	out.endToEnd = pt.e2e.Value()
	out.msgRate = (float64(pt.net.Totals().Transmissions) + float64(pt.faultMsgs)) / cfg.Horizon
	return out
}

func (p *path) timer(mean float64) rand.Timer {
	return rand.Timer{Kind: p.cfg.Timers, Mean: mean}
}

func (p *path) reliable() bool { return p.cfg.Protocol != singlehop.SS }

func (p *path) soft() bool { return p.cfg.Protocol != singlehop.HS }

// observe re-records every node's consistency with the sender, and the
// end-to-end predicate (all nodes consistent at once).
func (p *path) observe() {
	sv := p.nodes[0].value
	all := true
	for j := 1; j < len(p.nodes); j++ {
		n := p.nodes[j]
		mismatch := n.value != sv
		n.frac.Observe(p.k.Now(), mismatch)
		if mismatch {
			all = false
		}
	}
	p.e2e.Observe(p.k.Now(), !all)
}

func (p *path) start() {
	p.nodes[0].value = 1
	p.observe()
	p.seq++
	p.forward(0)
	if p.soft() {
		p.refreshTimer = p.k.NewTimer(p.onRefresh)
		p.refreshTimer.Reset(p.timer(p.cfg.Params.Refresh).Sample(p.rng))
	}
	if p.cfg.Params.UpdateRate > 0 {
		p.k.Schedule(p.rng.Exp(1/p.cfg.Params.UpdateRate), p.onUpdate)
	}
	if p.cfg.Protocol == singlehop.HS && p.cfg.Params.FalseRemoval > 0 {
		for j := 1; j < len(p.nodes); j++ {
			p.armFalseSignal(j)
		}
	}
}

func (p *path) onUpdate() {
	p.nodes[0].value++
	p.seq++
	p.observe()
	p.forward(0)
	p.k.Schedule(p.rng.Exp(1/p.cfg.Params.UpdateRate), p.onUpdate)
}

func (p *path) onRefresh() {
	p.relayRefresh(0)
	p.refreshTimer.Reset(p.timer(p.cfg.Params.Refresh).Sample(p.rng))
}

// relayRefresh sends the node's current value downstream best-effort and
// continues the relay on delivery.
func (p *path) relayRefresh(from int) {
	if from >= p.cfg.Params.Hops {
		return
	}
	m := message{Type: msgRefresh, Value: p.nodes[from].value}
	p.net.Hops[from].Forward.Send(func() { p.onMessage(from+1, m) })
}

// forward pushes node `from`'s current value to from+1, reliably when the
// protocol retransmits triggers hop-by-hop.
func (p *path) forward(from int) {
	if from >= p.cfg.Params.Hops {
		return
	}
	n := p.nodes[from]
	var seq int
	if from == 0 {
		seq = p.seq
	} else {
		seq = n.sentSeq
	}
	n.sentSeq = seq
	m := message{Type: msgTrigger, Seq: seq, Value: n.value}
	p.net.Hops[from].Forward.Send(func() { p.onMessage(from+1, m) })
	if p.reliable() {
		if n.retx == nil {
			n.retx = p.k.NewTimer(func() { p.onRetx(from) })
		}
		n.retx.Reset(p.timer(p.cfg.Params.Retransmit).Sample(p.rng))
	}
}

func (p *path) onRetx(from int) {
	n := p.nodes[from]
	if n.ackedSeq >= n.sentSeq {
		return
	}
	if n.value == 0 && from != 0 {
		return // state flushed meanwhile; nothing to install downstream
	}
	p.forward(from)
}

func (p *path) onMessage(at int, m message) {
	n := p.nodes[at]
	switch m.Type {
	case msgTrigger:
		p.install(at, m.Value)
		if p.reliable() {
			ack := message{Type: msgAck, Seq: m.Seq}
			p.net.Hops[at-1].Reverse.Send(func() { p.onAck(at-1, ack) })
		}
		if at < p.cfg.Params.Hops {
			n.sentSeq = m.Seq
			p.forward(at)
		}
	case msgRefresh:
		p.install(at, m.Value)
		p.relayRefresh(at)
	case msgNotify:
		// SS+RT: downstream neighbor timed out; repair if we hold state.
		if n.value != 0 || at == 0 {
			p.forward(at)
		}
	}
}

func (p *path) onAck(at int, m message) {
	n := p.nodes[at]
	if m.Seq > n.ackedSeq {
		n.ackedSeq = m.Seq
	}
	if n.retx != nil && n.ackedSeq >= n.sentSeq {
		n.retx.Stop()
	}
}

func (p *path) install(at, value int) {
	n := p.nodes[at]
	n.value = value
	p.observe()
	if p.soft() {
		if n.timeout == nil {
			n.timeout = p.k.NewTimer(func() { p.onTimeout(at) })
		}
		n.timeout.Reset(p.timer(p.cfg.Params.Timeout).Sample(p.rng))
	}
}

func (p *path) onTimeout(at int) {
	n := p.nodes[at]
	if n.value == 0 {
		return
	}
	n.value = 0
	p.observe()
	// SS+RT's notification mechanism: tell the upstream neighbor so it can
	// re-install promptly rather than waiting for the next refresh.
	if p.cfg.Protocol == singlehop.SSRT {
		up := at - 1
		notify := message{Type: msgNotify}
		p.net.Hops[up].Reverse.Send(func() { p.onMessage(up, notify) })
	}
}

// armFalseSignal schedules the next false external failure signal at
// receiver j (hard state only).
func (p *path) armFalseSignal(j int) {
	p.k.Schedule(p.rng.Exp(1/p.cfg.Params.FalseRemoval), func() { p.onFalseSignal(j) })
}

// onFalseSignal models the HS recovery episode: receiver j's detector
// fires falsely, j flushes its state, the fault notice sweeps the path
// (upstream to the sender, downstream to the tail) flushing every
// receiver, and the sender re-installs. Fault sweep messages are modeled
// as reliable control traffic: they incur per-hop delay and are counted,
// but are not subject to loss — false signals are rare (λf ≪ 1) and the
// analytic model likewise abstracts recovery into a single latency (see
// DESIGN.md).
func (p *path) onFalseSignal(j int) {
	d := p.cfg.Params.Delay
	n := p.cfg.Params.Hops
	// Flush each receiver after its propagation distance from j.
	for t := 1; t <= n; t++ {
		dist := t - j
		if dist < 0 {
			dist = -dist
		}
		target := t
		p.k.Schedule(float64(dist)*d, func() { p.flush(target) })
	}
	// One message per link touched by the two sweeps.
	p.faultMsgs += (j) + (n - j)
	// The sender learns after j hops and re-triggers.
	p.k.Schedule(float64(j)*d, func() {
		p.seq++
		p.forward(0)
	})
	p.armFalseSignal(j)
}

func (p *path) flush(at int) {
	n := p.nodes[at]
	if n.value == 0 {
		return
	}
	n.value = 0
	p.observe()
}
