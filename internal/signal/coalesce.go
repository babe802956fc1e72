package signal

import (
	"net"
	"sync"

	"softstate/internal/wire"
)

// ackBatcher accumulates acknowledgements between flush ticks, grouped by
// destination peer so each tick emits one ack-batch datagram per peer.
// add reports the empty→non-empty transition and the receiver arms its
// flush timer on it, so nothing is armed while no replies are pending
// (the same idle discipline as the timing wheel).
type ackBatcher struct {
	mu      sync.Mutex
	pending map[string]*peerAcks
	last    *peerAcks // the previous add's peer, while it is still pending
}

// peerAcks is one peer's accumulated acknowledgements.
type peerAcks struct {
	to    net.Addr
	addr  string // to.String(), for deterministic flush ordering
	items []wire.AckItem
}

func newAckBatcher() *ackBatcher {
	return &ackBatcher{pending: make(map[string]*peerAcks)}
}

// add queues one acknowledgement for to and reports whether the batcher
// was empty: the caller arms the flush on that transition. Acks come in
// runs for one peer and formatting a kernel address allocates, so the
// previous peer's record is reused while to compares equal to its address
// (as dispatchScratch.setPeer does on the way in): one String() per peer
// per flush window, not one per ack.
func (b *ackBatcher) add(to net.Addr, item wire.AckItem) bool {
	b.mu.Lock()
	wasEmpty := len(b.pending) == 0
	pa := b.last
	if pa == nil || pa.to != to {
		addr := to.String()
		pa = b.pending[addr]
		if pa == nil {
			pa = &peerAcks{to: to, addr: addr}
			b.pending[addr] = pa
		}
		b.last = pa
	}
	pa.items = append(pa.items, item)
	b.mu.Unlock()
	return wasEmpty
}

// take removes and returns everything queued so far.
func (b *ackBatcher) take() []*peerAcks {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.pending) == 0 {
		return nil
	}
	out := make([]*peerAcks, 0, len(b.pending))
	for _, pa := range b.pending {
		out = append(out, pa)
	}
	b.pending = make(map[string]*peerAcks)
	b.last = nil
	return out
}
