package node

import (
	"fmt"

	"softstate/internal/lossy"
	"softstate/internal/signal"
)

// Ring is a unidirectional signaling ring of n nodes: the origin signals
// its successor, every interior node relays to the next, and the last
// hop closes the cycle by delivering back to a receiver co-located with
// the origin. Structurally it is a Chain of n+1 endpoints whose tail
// lives at node 0, so installed state travels the full circumference —
// the worst-case propagation path for an n-node cycle — and the origin
// can observe its own install arriving after n hops. Everything a Chain
// does (Install/Update/Remove, Receivers, Holds, Stats, faults, Close) a
// Ring does through the embedded chain.
type Ring struct {
	*Chain
}

// NewRing builds an n-node ring (n ≥ 2): n links, each independently
// impaired, closed back to the origin. cfg applies to every hop.
func NewRing(nodes int, cfg signal.Config, link lossy.Config) (*Ring, error) {
	if nodes < 2 {
		return nil, fmt.Errorf("node: ring needs ≥ 2 nodes, got %d", nodes)
	}
	c, err := NewChain(nodes+1, cfg, link)
	if err != nil {
		return nil, err
	}
	return &Ring{Chain: c}, nil
}

// Home returns the receiver co-located with the origin — the point where
// a signal has survived the whole cycle.
func (r *Ring) Home() *signal.Receiver { return r.Tail }
