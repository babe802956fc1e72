package node

import (
	"errors"
	"net"
	"sync/atomic"

	"softstate/internal/signal"
)

// Relay is one interior hop of a signaling chain: a Receiver facing
// upstream and a one-peer Node facing downstream. Every state change the
// upstream side observes — install, update, explicit removal, timeout
// expiry, false removal — is re-signaled to the next hop with the relay's
// own timers and sequence space, exactly the paper's multi-hop model where
// each hop runs the protocol pairwise.
//
// Keys pass through unchanged, so a relay assumes upstream senders use
// distinct keys (origin-scoped names like "flow/<id>"); two senders
// installing the same key at a relay merge last-writer-wins downstream.
type Relay struct {
	rcv   *signal.Receiver
	down  *Node
	nexts []net.Addr

	relayed atomic.Int64 // downstream operations attempted
}

// NewRelay creates a relay speaking cfg.Protocol on both sides: upstream
// state is held on the upstream conn, and propagated to next over the
// downstream conn. The two conns must be distinct sockets.
func NewRelay(upstream, downstream net.PacketConn, next net.Addr, cfg signal.Config) (*Relay, error) {
	if next == nil {
		return nil, errors.New("node: nil relay next hop")
	}
	return NewFanRelay(upstream, downstream, []net.Addr{next}, cfg)
}

// NewFanRelay creates a relay that re-signals every upstream state change
// to *each* of the nexts — the interior node of a distribution tree. The
// downstream node keeps one session per next hop on the single downstream
// socket, so the fan-out cost is per-peer sessions, not per-peer sockets.
func NewFanRelay(upstream, downstream net.PacketConn, nexts []net.Addr, cfg signal.Config) (*Relay, error) {
	if upstream == nil || downstream == nil {
		return nil, errors.New("node: nil relay conn")
	}
	if len(nexts) == 0 {
		return nil, errors.New("node: relay needs ≥ 1 next hop")
	}
	for _, n := range nexts {
		if n == nil {
			return nil, errors.New("node: nil relay next hop")
		}
	}
	r := &Relay{nexts: append([]net.Addr(nil), nexts...)}
	dcfg := cfg
	dcfg.OnEvent = nil // the user hook observes the upstream side only
	down, err := New(downstream, dcfg)
	if err != nil {
		return nil, err
	}
	r.down = down
	rcfg := cfg
	user := cfg.OnEvent
	rcfg.OnEvent = func(ev signal.Event) {
		r.onUpstream(ev)
		if user != nil {
			user(ev)
		}
	}
	rcv, err := signal.NewReceiver(upstream, rcfg)
	if err != nil {
		down.Close()
		return nil, err
	}
	r.rcv = rcv
	return r, nil
}

// onUpstream propagates one upstream state change downstream. It runs
// synchronously on the receiver's protocol goroutines (the OnEvent hook
// never drops, unlike the Events channel), and only touches the
// downstream node, so it cannot deadlock against the upstream table.
func (r *Relay) onUpstream(ev signal.Event) {
	switch ev.Kind {
	case signal.EventInstalled, signal.EventUpdated:
		for _, next := range r.nexts {
			r.relayed.Add(1)
			// Forward the upstream trace context: the origin stamp passes
			// through and the hop count grows, so the chain's tail measures
			// install latency across every hop (zero contexts forward as
			// plain installs). A rejected re-signal (the downstream node
			// is closing) is dropped.
			_ = r.down.InstallCtx(next, ev.Key, ev.Value, ev.Trace)
		}
	case signal.EventRemoved, signal.EventExpired, signal.EventFalseRemoval, signal.EventOrphaned:
		for _, next := range r.nexts {
			r.relayed.Add(1)
			// An unknown key is expected: a removal can outrun an install
			// that never propagated (e.g. relayed while shutting down).
			_ = r.down.Remove(next, ev.Key)
		}
	}
}

// CheckInvariants audits both faces of the relay — the upstream receiver
// and the downstream sender core — and returns every violation found.
func (r *Relay) CheckInvariants() []string {
	return append(r.rcv.CheckInvariants(), r.down.CheckInvariants()...)
}

// Receiver returns the upstream side, for state inspection and events.
func (r *Relay) Receiver() *signal.Receiver { return r.rcv }

// Downstream returns the downstream node, for stats and events.
func (r *Relay) Downstream() *Node { return r.down }

// Relayed returns how many upstream changes were re-signaled downstream.
func (r *Relay) Relayed() int { return int(r.relayed.Load()) }

// Close shuts the upstream receiver first (stopping propagation), then
// the downstream node. State already propagated is left to downstream
// timers — soft state cleans itself up.
func (r *Relay) Close() error {
	err := r.rcv.Close()
	if derr := r.down.Close(); err == nil {
		err = derr
	}
	return err
}
