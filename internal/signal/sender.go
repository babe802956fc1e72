package signal

import (
	"errors"
	"net"
	"sync"
	"time"

	"softstate/internal/statetable"
	"softstate/internal/telemetry"
	"softstate/internal/transport"
	"softstate/internal/wire"
)

// ErrClosed is returned by operations on a closed endpoint.
var ErrClosed = errors.New("signal: endpoint closed")

// Timer slots in the state table: senders arm refresh and retransmit,
// soft-state receivers the state timeout, and hard-state receivers none
// (their liveness guard is one probe round per interval, probe.go) — the
// table's two embedded timer nodes cover every variant.
const (
	timerRefresh statetable.TimerKind = 0
	timerRetx    statetable.TimerKind = 1
	timerTimeout statetable.TimerKind = 0
)

// Sender installs and maintains keyed state at a single remote Receiver:
// a one-peer instance of the multi-peer Sessions core (internal/node.Node
// is the many-peer instance). Keys live in a sharded state table whose
// timing wheels drive every refresh and retransmission deadline — no
// per-key timers or goroutines, so one Sender scales to millions of keys.
// All methods are safe for concurrent use.
type Sender struct {
	ss   *Sessions
	sess *Session
	wg   sync.WaitGroup
}

// NewSender creates a sender speaking cfg.Protocol to peer over conn and
// starts its receive loop (for ACKs and notifications).
func NewSender(conn net.PacketConn, peer net.Addr, cfg Config) (*Sender, error) {
	if conn == nil || peer == nil {
		return nil, errors.New("signal: nil conn or peer")
	}
	s := &Sender{ss: NewSessions(conn, cfg)}
	s.sess = s.ss.Session(peer)
	lanes := s.ss.Conns()
	s.wg.Add(len(lanes))
	for _, lane := range lanes {
		go s.readLoop(lane)
	}
	return s, nil
}

// Events exposes the observability stream. The channel closes when the
// sender is closed.
func (s *Sender) Events() <-chan Event { return s.ss.Events() }

// Stats returns a snapshot of message counters.
func (s *Sender) Stats() Stats { return s.ss.Stats() }

// SentDatagrams returns the cumulative signaling datagrams written.
func (s *Sender) SentDatagrams() int64 { return s.ss.SentDatagrams() }

// ReceivedDatagrams returns the cumulative signaling datagrams accepted.
func (s *Sender) ReceivedDatagrams() int64 { return s.ss.ReceivedDatagrams() }

// Install installs (or reinstalls) state for key at the receiver.
func (s *Sender) Install(key string, value []byte) error {
	return s.sess.Install(key, value)
}

// Update changes the state value for key; it is an error to update a key
// that was never installed or is being removed.
func (s *Sender) Update(key string, value []byte) error {
	return s.sess.Update(key, value)
}

// Remove withdraws the state for key. With explicit-removal protocols a
// removal message is sent (reliably for SS+RTR and HS); otherwise the
// receiver is left to time the state out.
func (s *Sender) Remove(key string) error { return s.sess.Remove(key) }

// Session returns the sender's single peer session — the handle for
// per-peer health estimates (RTT, LossEstimate) and link-scoped census
// sources.
func (s *Sender) Session() *Session { return s.sess }

// CensusSource exposes the sender's intent digest as an auditor source.
func (s *Sender) CensusSource(name string) telemetry.CensusSource {
	return s.ss.CensusSource(name)
}

// CensusPeer builds an auditor source that audits the remote receiver
// over the wire digest protocol; see Sessions.CensusPeer.
func (s *Sender) CensusPeer(name string, timeout time.Duration) telemetry.CensusSource {
	return s.ss.CensusPeer(name, s.sess.Peer(), timeout)
}

// Keys returns the keys with live (non-removing) state.
func (s *Sender) Keys() []string { return s.sess.Keys() }

// Close stops all timers, closes the transport, and waits for the receive
// loop to drain. The events channel is closed afterwards.
func (s *Sender) Close() error {
	err := s.ss.Shutdown()
	s.wg.Wait()
	s.ss.CloseEvents()
	return err
}

// readLoop drains one transport lane of inbound replies in ReadBatch
// strides. A single-peer sender keeps the original endpoint behavior and
// routes every datagram to its one session, whatever the source address
// claims.
func (s *Sender) readLoop(c transport.Conn) {
	defer s.wg.Done()
	ms := transport.NewBatch(transport.DefaultBatchSize)
	for {
		cnt, err := c.ReadBatch(ms)
		if err != nil {
			return
		}
		for i := 0; i < cnt; i++ {
			var m wire.Message
			if s.ss.decode(ms[i].Data, &m) {
				s.sess.Handle(m)
			}
		}
	}
}

// summarySweep and summaryInterval are exercised directly by tests and
// benchmarks.
func (s *Sender) summarySweep() int              { return s.ss.SummarySweep() }
func (s *Sender) summaryInterval() time.Duration { return s.ss.summaryInterval() }

func isNetTemporary(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
