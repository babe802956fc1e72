package node

import (
	"fmt"
	"net"

	"softstate/internal/lossy"
	"softstate/internal/signal"
)

// Tree is a live k-ary signaling distribution tree over one in-memory
// switch: an origin Node at the root, fan relays at every interior
// level, and a Receiver at every leaf. Each edge is an independent
// pairwise protocol run (the relay holds upstream state with its own
// timers and re-signals it to each child), so a Depth-d tree gives every
// leaf a d-hop path from the root — the paper's multi-hop model
// generalized from a line to a fan-out topology.
type Tree struct {
	// Root is the origin; Install/Remove on the Tree go through it.
	Root *Node
	// Relays are the interior nodes in breadth-first order (level 1
	// first). Empty when Depth == 1 (a star).
	Relays []*Relay
	// Leaves are the edge receivers, left to right.
	Leaves []*signal.Receiver

	children []net.Addr // the root's direct children
	network  *lossy.Network
}

// NewTree builds a complete k-ary tree: Fanout children per node, Depth
// levels below the root, so Fanout^Depth leaves. Every edge shares the
// link impairment config (the switch applies it per datagram). cfg
// applies to every node.
func NewTree(fanout, depth int, cfg signal.Config, link lossy.Config) (*Tree, error) {
	if fanout < 1 {
		return nil, fmt.Errorf("node: tree needs fanout ≥ 1, got %d", fanout)
	}
	if depth < 1 {
		return nil, fmt.Errorf("node: tree needs depth ≥ 1, got %d", depth)
	}
	leaves := 1
	for i := 0; i < depth; i++ {
		leaves *= fanout
		if leaves > 1<<20 {
			return nil, fmt.Errorf("node: tree fanout^depth = %d^%d too large", fanout, depth)
		}
	}
	nw, err := lossy.NewNetwork(link)
	if err != nil {
		return nil, err
	}
	t := &Tree{network: nw}

	// Every node's upstream endpoint is named by its (level, index)
	// position; the switch routes datagrams to endpoints by that name.
	upName := func(level, i int) string { return fmt.Sprintf("n%d.%d", level, i) }
	width := func(level int) int {
		w := 1
		for l := 0; l < level; l++ {
			w *= fanout
		}
		return w
	}
	childAddrs := func(level, i int) []net.Addr {
		out := make([]net.Addr, fanout)
		for c := 0; c < fanout; c++ {
			out[c] = nw.Endpoint(upName(level+1, i*fanout+c)).LocalAddr()
		}
		return out
	}

	fail := func(err error) (*Tree, error) {
		t.Close()
		return nil, err
	}

	// Leaves first (a receiver must be listening before its parent relay
	// starts re-signaling), then interior levels bottom-up, then the root.
	for i := 0; i < width(depth); i++ {
		rcv, err := signal.NewReceiver(nw.Endpoint(upName(depth, i)), cfg)
		if err != nil {
			return fail(err)
		}
		t.Leaves = append(t.Leaves, rcv)
	}
	interior := make([][]*Relay, depth) // [level] → relays, levels 1..depth-1
	for level := depth - 1; level >= 1; level-- {
		interior[level] = make([]*Relay, width(level))
		for i := 0; i < width(level); i++ {
			up := nw.Endpoint(upName(level, i))
			down := nw.Endpoint(upName(level, i) + ".down")
			relay, err := NewFanRelay(up, down, childAddrs(level, i), cfg)
			if err != nil {
				return fail(err)
			}
			interior[level][i] = relay
			t.Relays = append(t.Relays, relay)
		}
	}
	// t.Relays was appended bottom-up; flip to breadth-first order.
	t.Relays = t.Relays[:0]
	for level := 1; level < depth; level++ {
		t.Relays = append(t.Relays, interior[level]...)
	}

	root, err := New(nw.Endpoint("root"), cfg)
	if err != nil {
		return fail(err)
	}
	t.Root = root
	t.children = childAddrs(0, 0)
	return t, nil
}

// Install installs key at every direct child; relays fan it out to the
// leaves.
func (t *Tree) Install(key string, value []byte) error {
	var err error
	for _, c := range t.children {
		if e := t.Root.Install(c, key, value); err == nil {
			err = e
		}
	}
	return err
}

// Remove withdraws key tree-wide.
func (t *Tree) Remove(key string) error {
	var err error
	for _, c := range t.children {
		if e := t.Root.Remove(c, key); err == nil {
			err = e
		}
	}
	return err
}

// Stats snapshots every endpoint's counters: root, relays breadth-first,
// leaves left to right.
func (t *Tree) Stats() []signal.Stats { return endpointStats(t.Root, t.Relays, t.Leaves) }

// Close shuts the tree down root-first, so nothing re-signals into
// closing children. Safe on a partially constructed tree.
func (t *Tree) Close() error {
	var err error
	if t.Root != nil {
		err = t.Root.Close()
	}
	for _, r := range t.Relays {
		if cerr := r.Close(); err == nil {
			err = cerr
		}
	}
	for _, l := range t.Leaves {
		if cerr := l.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
