package node

import (
	"fmt"
	"net"

	"softstate/internal/lossy"
	"softstate/internal/signal"
	"softstate/internal/telemetry"
)

// Chain is a live N-node signaling path: an origin Node, N-2 interior
// Relays, and a tail Receiver — the runtime counterpart of the paper's
// multi-hop topology (source → routers → sink). Every hop's sockets are
// named endpoints of one shared lossy.Network, one switch per world:
// each endpoint splits its own loss/jitter stream off the switch's seed,
// so the links are impaired independently (the paper's "independent
// losses") while the whole run stays a pure function of that seed. The
// same switch is what fault campaigns drive — partitions cut the path
// between any two hops, links degrade asymmetrically, and any hop can
// crash and restart on its own address mid-run (RestartOrigin,
// RestartRelay, RestartTail), with the protocol left to resynchronize
// state through its own mechanisms.
//
// Node i's upstream socket is endpoint "n<i>.up", its downstream socket
// "n<i>.down"; the origin has only a downstream socket and the tail only
// an upstream one.
type Chain struct {
	// Net is the shared switch; campaign layers drive faults through it.
	Net *lossy.Network
	// Origin is the head node; Install/Remove on the Chain go through it.
	Origin *Node
	// Relays are the interior hops, upstream to downstream; Relays[j] is
	// chain node j+1.
	Relays []*Relay
	// Tail is the final receiver.
	Tail *signal.Receiver

	cfg   signal.Config
	nodes int
	first net.Addr // origin's peer: the first hop's upstream address
}

func chainUpName(i int) string   { return fmt.Sprintf("n%d.up", i) }
func chainDownName(i int) string { return fmt.Sprintf("n%d.down", i) }

// NewChain builds a chain of nodes ≥ 2 (nodes-1 links) over one switch
// configured by link; cfg applies to every hop.
func NewChain(nodes int, cfg signal.Config, link lossy.Config) (*Chain, error) {
	if nodes < 2 {
		return nil, fmt.Errorf("node: chain needs ≥ 2 nodes, got %d", nodes)
	}
	nw, err := lossy.NewNetwork(link)
	if err != nil {
		return nil, err
	}
	c := &Chain{Net: nw, cfg: cfg, nodes: nodes}
	origin, err := New(nw.Endpoint(chainDownName(0)), cfg)
	if err != nil {
		return nil, err
	}
	c.Origin = origin
	c.first = nw.Endpoint(chainUpName(1)).LocalAddr()
	for i := 1; i < nodes-1; i++ {
		relay, err := NewRelay(
			nw.Endpoint(chainUpName(i)),
			nw.Endpoint(chainDownName(i)),
			nw.Endpoint(chainUpName(i+1)).LocalAddr(),
			cfg)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.Relays = append(c.Relays, relay)
	}
	tail, err := signal.NewReceiver(nw.Endpoint(chainUpName(nodes-1)), cfg)
	if err != nil {
		c.Close()
		return nil, err
	}
	c.Tail = tail
	return c, nil
}

// FirstHop returns the first hop's upstream address — the peer Install
// and Remove target at the origin, and the Event.Peer the origin's
// sender events carry.
func (c *Chain) FirstHop() net.Addr { return c.first }

// Install installs key at the first hop; relays propagate it to the tail.
func (c *Chain) Install(key string, value []byte) error {
	return c.Origin.Install(c.first, key, value)
}

// Update changes key's value end to end.
func (c *Chain) Update(key string, value []byte) error {
	return c.Origin.Update(c.first, key, value)
}

// Remove withdraws key; with explicit-removal protocols the removal
// signal cascades hop by hop, otherwise each hop times out in turn.
func (c *Chain) Remove(key string) error {
	return c.Origin.Remove(c.first, key)
}

// Receivers returns every state-holding hop, upstream to downstream: the
// relays' upstream receivers, then the tail.
func (c *Chain) Receivers() []*signal.Receiver {
	out := make([]*signal.Receiver, 0, len(c.Relays)+1)
	for _, r := range c.Relays {
		out = append(out, r.Receiver())
	}
	if c.Tail != nil {
		out = append(out, c.Tail)
	}
	return out
}

// CensusLinks pairs every adjacent (sender intent, receiver held) digest
// source along the chain, upstream to downstream — the auditor wiring
// for a live convergence census. Each chain hop has exactly one
// downstream peer, so the whole-table sources, whose folds are O(1)
// reads, are exact per-link digests here.
func (c *Chain) CensusLinks() []telemetry.CensusLink {
	senders := []*Node{c.Origin}
	for _, r := range c.Relays {
		senders = append(senders, r.Downstream())
	}
	rcvs := c.Receivers()
	out := make([]telemetry.CensusLink, 0, len(rcvs))
	for i, rcv := range rcvs {
		out = append(out, telemetry.CensusLink{
			Name:   fmt.Sprintf("hop%d", i+1),
			Intent: senders[i].CensusSource(fmt.Sprintf("node%d/intent", i)),
			Held:   rcv.CensusSource(fmt.Sprintf("node%d/held", i+1)),
		})
	}
	return out
}

// Stats snapshots every endpoint's counters, origin to tail.
func (c *Chain) Stats() []signal.Stats {
	return endpointStats(c.Origin, c.Relays, []*signal.Receiver{c.Tail})
}

// endpointStats snapshots a topology's counters: the origin's, then each
// relay's two faces in the given order, then the edge receivers'.
func endpointStats(origin *Node, relays []*Relay, edge []*signal.Receiver) []signal.Stats {
	out := []signal.Stats{origin.Stats()}
	for _, r := range relays {
		out = append(out, r.Receiver().Stats(), r.Downstream().Stats())
	}
	for _, rcv := range edge {
		out = append(out, rcv.Stats())
	}
	return out
}

// Holds reports how many hops currently hold state for key. It uses the
// receivers' any-sender Get — fine for tests and demos, not for hot paths
// at scale (use GetFrom with a known peer).
func (c *Chain) Holds(key string) int {
	n := 0
	for _, r := range c.Receivers() {
		if _, ok := r.Get(key); ok {
			n++
		}
	}
	return n
}

// CheckInvariants audits every hop — the origin's sender core, each
// relay's two faces, and the tail — returning all violations found.
func (c *Chain) CheckInvariants() []string {
	var bad []string
	if c.Origin != nil {
		bad = append(bad, c.Origin.CheckInvariants()...)
	}
	for _, r := range c.Relays {
		bad = append(bad, r.CheckInvariants()...)
	}
	if c.Tail != nil {
		bad = append(bad, c.Tail.CheckInvariants()...)
	}
	return bad
}

// PartitionAt cuts the chain between node i and node i+1: nodes ≤ i land
// on one side of the switch partition, nodes > i on the other. Heal
// reverses it.
func (c *Chain) PartitionAt(i int) {
	var left []string
	for n := 0; n <= i && n < c.nodes; n++ {
		if n > 0 {
			left = append(left, chainUpName(n))
		}
		if n < c.nodes-1 {
			left = append(left, chainDownName(n))
		}
	}
	c.Net.Partition(left)
}

// Heal removes any partition.
func (c *Chain) Heal() { c.Net.Heal() }

// SetForwardLoss overrides the loss probability of the directed link from
// node i to node i+1 — the trigger/refresh direction. A negative p clears
// the override. Paired with SetReverseLoss it models asymmetric loss,
// where data flows but acknowledgements die (or vice versa).
func (c *Chain) SetForwardLoss(i int, p float64) {
	c.Net.SetLinkLoss(chainDownName(i), chainUpName(i+1), p)
}

// SetReverseLoss overrides the loss probability of the directed link from
// node i+1 back to node i — the ack/nack/notify direction.
func (c *Chain) SetReverseLoss(i int, p float64) {
	c.Net.SetLinkLoss(chainUpName(i+1), chainDownName(i), p)
}

// RestartOrigin crashes and restarts the head node: its socket dies and a
// fresh node comes back on the same address with no installed state — the
// caller decides what the second life re-installs.
func (c *Chain) RestartOrigin() error {
	c.Origin.Close()
	origin, err := New(c.Net.Restart(chainDownName(0)), c.cfg)
	if err != nil {
		return err
	}
	c.Origin = origin
	return nil
}

// RestartRelay crashes and restarts interior hop j (chain node j+1): both
// its sockets die and a fresh relay takes over the same addresses with
// empty tables. Upstream refresh/retransmission repopulates it, and its
// new downstream incarnation re-signals from a later sequence space.
func (c *Chain) RestartRelay(j int) error {
	if j < 0 || j >= len(c.Relays) {
		return fmt.Errorf("node: no relay %d", j)
	}
	node := j + 1
	c.Relays[j].Close()
	relay, err := NewRelay(
		c.Net.Restart(chainUpName(node)),
		c.Net.Restart(chainDownName(node)),
		c.Net.Endpoint(chainUpName(node+1)).LocalAddr(),
		c.cfg)
	if err != nil {
		return err
	}
	c.Relays[j] = relay
	return nil
}

// RestartTail crashes and restarts the tail receiver: a cold restart with
// an empty table, left to re-converge (or not — hard state cannot) from
// upstream refreshes.
func (c *Chain) RestartTail() error {
	c.Tail.Close()
	tail, err := signal.NewReceiver(c.Net.Restart(chainUpName(c.nodes-1)), c.cfg)
	if err != nil {
		return err
	}
	c.Tail = tail
	return nil
}

// Close shuts every element down, head to tail. Safe on a partially
// constructed chain.
func (c *Chain) Close() error {
	var err error
	if c.Origin != nil {
		err = c.Origin.Close()
	}
	for _, r := range c.Relays {
		if cerr := r.Close(); err == nil {
			err = cerr
		}
	}
	if c.Tail != nil {
		if cerr := c.Tail.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
