// Package node scales the signaling runtime from one-connection/one-peer
// endpoints to multi-peer signaling nodes and multi-hop relay chains —
// the live counterpart of the paper's multi-hop analysis (§III-B) and of
// RSVP-style refresh-reduction deployments.
//
// A Node is the many-peer form of internal/signal.Sender: it
// demultiplexes a single net.PacketConn across a sharded per-destination
// peer table, each peer owning its own sender session (sequence space,
// refresh/retransmit timers, summary-refresh batches) while all per-key
// state shares one internal/statetable keyed by (peer, key). One Node
// therefore maintains state at hundreds of downstream receivers over one
// socket, with per-peer summary refresh keeping the datagram reduction of
// RFC 2961.
//
// A Relay composes a Receiver (upstream side) with a one-peer Node
// (downstream side): state installed at the relay propagates to the next
// hop, removals and expirations propagate likewise, so chains of relays
// run the paper's SS / SS+ER / SS+RT / SS+RTR / HS protocols live across
// N hops. Chain wires such a pipeline over lossy in-memory links for
// tests, benchmarks, and demos.
package node

import (
	"errors"
	"net"
	"sync"
	"time"

	"softstate/internal/signal"
	"softstate/internal/telemetry"
	"softstate/internal/transport"
	"softstate/internal/wire"
)

// Node is a multi-peer signaling sender: one net.PacketConn, many
// per-destination sessions. All methods are safe for concurrent use.
type Node struct {
	ss      *signal.Sessions
	wg      sync.WaitGroup
	unknown telemetry.Counter // datagrams from addresses with no session
}

// New creates a node speaking cfg.Protocol over conn and starts its
// receive loop, which routes each inbound datagram to the session for its
// source address.
func New(conn net.PacketConn, cfg signal.Config) (*Node, error) {
	if conn == nil {
		return nil, errors.New("node: nil conn")
	}
	n := &Node{ss: signal.NewSessions(conn, cfg)}
	if cfg.Metrics != nil {
		labels := telemetry.Labels{"role": "node"}
		for k, v := range cfg.MetricsLabels {
			labels[k] = v
		}
		cfg.Metrics.RegisterCounter(telemetry.Opts{
			Name:   "softstate_unknown_datagrams_total",
			Help:   "Inbound datagrams from addresses with no session (strays, late replies from dropped peers).",
			Labels: labels,
		}, &n.unknown)
	}
	// One read loop per transport lane (SO_REUSEPORT shards on batching
	// kernel-socket backends, one lane otherwise).
	lanes := n.ss.Conns()
	n.wg.Add(len(lanes))
	for _, lane := range lanes {
		go n.readLoop(lane)
	}
	return n, nil
}

// Peer returns the sender session for peer, creating it on first use.
func (n *Node) Peer(peer net.Addr) *signal.Session { return n.ss.Session(peer) }

// Install installs (or reinstalls) state for key at peer.
func (n *Node) Install(peer net.Addr, key string, value []byte) error {
	return n.ss.Session(peer).Install(key, value)
}

// InstallCtx installs state for key at peer while forwarding an
// upstream trace context — the relay path of hop-propagated tracing
// (see signal.Session.InstallCtx). A zero fwd is equivalent to Install.
func (n *Node) InstallCtx(peer net.Addr, key string, value []byte, fwd wire.TraceContext) error {
	return n.ss.Session(peer).InstallCtx(key, value, fwd)
}

// Remove withdraws the state for key at peer.
func (n *Node) Remove(peer net.Addr, key string) error {
	return n.ss.Session(peer).Remove(key)
}

// Live returns the number of live keys across all peers.
func (n *Node) Live() int { return n.ss.Live() }

// CheckInvariants audits the sender core's internal consistency; see
// signal.Sessions.CheckInvariants.
func (n *Node) CheckInvariants() []string { return n.ss.CheckInvariants() }

// Events exposes the observability stream shared by all sessions; closed
// on Close. Event.Peer identifies the session.
func (n *Node) Events() <-chan signal.Event { return n.ss.Events() }

// Stats returns a snapshot of message counters across all sessions.
func (n *Node) Stats() signal.Stats { return n.ss.Stats() }

// SentDatagrams returns the cumulative signaling datagrams written.
func (n *Node) SentDatagrams() int64 { return n.ss.SentDatagrams() }

// ReceivedDatagrams returns the cumulative signaling datagrams accepted.
func (n *Node) ReceivedDatagrams() int64 { return n.ss.ReceivedDatagrams() }

// SummarySweep sends one summary-refresh round for every peer now and
// returns the datagram count; see signal.Sessions.SummarySweep.
func (n *Node) SummarySweep() int { return n.ss.SummarySweep() }

// CensusSource exposes the node's whole intent digest as a convergence
// auditor source. Its fold is the sum of the sessions' folds, read
// without walking the table; its sums and listings walk the table. On a
// node with several peers the per-key contributions of all sessions add
// up together, so use this on single-downstream nodes (chain hops) and
// Peer(addr).CensusSource for per-link audits on fan-out nodes.
func (n *Node) CensusSource(name string) telemetry.CensusSource {
	return n.ss.CensusSource(name)
}

// CensusPeer builds an auditor source auditing the receiver at peer over
// the wire digest protocol; see signal.Sessions.CensusPeer.
func (n *Node) CensusPeer(name string, peer net.Addr, timeout time.Duration) telemetry.CensusSource {
	return n.ss.CensusPeer(name, peer, timeout)
}

// Close stops all timers, closes the transport, and waits for the receive
// loop to drain. The events channel is closed afterwards. Idempotent.
func (n *Node) Close() error {
	err := n.ss.Shutdown()
	n.wg.Wait()
	n.ss.CloseEvents()
	return err
}

// readLoop drains one transport lane in ReadBatch strides and
// demultiplexes each datagram by source address.
func (n *Node) readLoop(c transport.Conn) {
	defer n.wg.Done()
	ms := transport.NewBatch(transport.DefaultBatchSize)
	for {
		cnt, err := c.ReadBatch(ms)
		if err != nil {
			return
		}
		for i := 0; i < cnt; i++ {
			if !n.ss.HandleDatagram(ms[i].Data, ms[i].Addr) {
				n.unknown.Add(1)
			}
		}
	}
}
