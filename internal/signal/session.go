package signal

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"softstate/internal/clock"
	"softstate/internal/statetable"
	"softstate/internal/telemetry"
	"softstate/internal/transport"
	"softstate/internal/variant"
	"softstate/internal/wire"
)

// Sessions is the multi-peer sender core extracted from Sender: the
// signaling state for every (peer, key) pair lives in one shared sharded
// statetable (so wheel timers and lock domains scale with the shard
// count, not the peer count), while each peer gets its own Session handle
// carrying its sequence space, live-key counter, and summary-refresh
// batches. One summary sweeper renews all peers, one datagram batch per
// peer per sweep.
//
// Sender wraps a Sessions with exactly one peer; internal/node builds the
// multi-peer Node (and relay chains) on the same core by demultiplexing
// one net.PacketConn across many Sessions.
type Sessions struct {
	endpoint

	tbl  *statetable.Table[senderEntry]
	live atomic.Int64 // live keys across all sessions

	histInstallAck *telemetry.Histogram
	histRemoval    *telemetry.Histogram

	// sweepMu serializes the periodic callbacks (sweep, reap) and direct
	// SummarySweep calls against each other and against Shutdown, and
	// guards the session sweep caches.
	sweepMu    sync.Mutex
	sweepTimer clock.Timer  // summary sweeper; nil outside summary mode
	sweepBW    *batchWriter // sweep datagram coalescer (guarded by sweepMu)
	// sweepScratch is where a rebuild sorts the table keys of the sessions it
	// re-encodes: cleared after use, kept only up to sweepScratchCap.
	sweepScratch sweepKeys

	reapTimer clock.Timer       // idle-peer reaper; nil without PeerIdleTimeout
	evictions telemetry.Counter // idle sessions evicted from the peer table

	// Census exchange plumbing: CensusPeer parks a channel here under its
	// nonce and the read loop's deliverCensusReply routes digest replies
	// to it. Nil map until the first exchange; guarded by censusMu.
	censusMu    sync.Mutex
	censusCh    map[uint64]chan *wire.DigestReply
	censusNonce atomic.Uint64

	// sweepSessions caches the id-sorted session list (under sweepMu),
	// rebuilt only when peersDirty reports the peer table changed — a
	// session added, reattached, or evicted by the idle reaper all set
	// the flag — so a steady-state sweep re-lists and re-sorts nothing.
	sweepSessions []*Session
	peersDirty    atomic.Bool

	nextID atomic.Uint32
	peers  addrMap[Session]

	// byID resolves the session id heading every table key to its Session.
	// A session is filed when it is created and when an evicted handle is
	// used again, and unfiled by the reaper once it is gone, holds no entry
	// and has been quiet for PeerIdleTimeout. byIDMu is a leaf lock, taken
	// under the table's shard locks and the peer table's.
	byIDMu sync.RWMutex
	byID   map[uint32]*Session

	// retired remembers the last sequence number of each evicted session
	// so a returning peer's new session resumes the address's sequence
	// space instead of restarting it (receivers discard lower-seq
	// payloads as stale retransmissions). Entries are pruned by the
	// reaper after retiredTTLFactor further idle periods — by then any
	// receiver-side state for the silent peer has long expired or been
	// orphan-probed away (PeerIdleTimeout is documented to exceed the
	// timeout), so a later return may safely restart at zero and the map
	// never grows past the recently-evicted set. An address's bookmark is
	// only written while its peer-table shard is write-locked.
	retired sync.Map // address string → retiredPeer
}

// retiredPeer is one evicted address's sequence-space bookmark.
type retiredPeer struct {
	seq uint64
	at  time.Duration // clock offset of the eviction
}

// retiredTTLFactor is how many idle periods a retired bookmark outlives
// its eviction before the reaper prunes it.
const retiredTTLFactor = 4

// seqEpoch anchors the time-derived sequence base shared by every
// Sessions instance on a clock. clock.Virtual's origin is this same
// instant, so virtual runs get compact bases (nanoseconds of elapsed
// virtual time); wall clocks get nanoseconds since 2003 — large but
// comfortably inside uint64.
var seqEpoch = time.Date(2003, 8, 25, 0, 0, 0, 0, time.UTC) // SIGCOMM '03

// incarnationSeq is the starting sequence number of a newly created
// session: the clock's nanoseconds since seqEpoch. Receivers keep only a
// per-(source, key) high-water mark and discard lower sequence numbers as
// stale, so a sender that crashes and restarts — a fresh Sessions on the
// same address, with no retired bookmark to resume — must come back
// numerically above its previous incarnation or every trigger it sends is
// dropped as a replay and every summary renewal is ignored. Deriving the
// base from the clock gives exactly that: a later incarnation starts
// higher, because no session can consume sequence numbers faster than one
// per nanosecond of clock time (trivially true on a wall clock; virtual
// campaigns only need restart gaps longer than the prior incarnation's
// operation count in nanoseconds). The wire format and the receiver's
// >= staleness checks are untouched.
func (ss *Sessions) incarnationSeq() uint64 {
	return uint64(ss.clk.Now().Sub(seqEpoch))
}

// Session is one peer's sender session: its address, its private sequence
// space, and its live-key count. All per-key state (refresh, retransmit,
// removal timers) lives in the owning Sessions' shared table under keys
// prefixed with this session's id. All methods are safe for concurrent
// use.
type Session struct {
	ss   *Sessions
	id   uint32
	peer net.Addr
	seq  atomic.Uint64
	live atomic.Int64
	// fold is Σ wire.StateHash over the live keys' (key, seq, value), mod
	// 2⁶⁴, kept beside live: with it, a peer probe is answered with the pair
	// the receiver compares against its own, and a census reads the link's
	// intent, without a table walk.
	fold atomic.Uint64

	// Idle-eviction bookkeeping: tabled counts this session's entries in
	// the shared table (live and removing — a session with pending
	// removal acks is never evicted), lastActive is the clock offset of
	// the last API call or inbound message, and gone marks a session the
	// reaper dropped from the peer table (a later Install re-registers
	// it).
	tabled     atomic.Int64
	lastActive atomic.Int64
	gone       atomic.Bool

	// Summary-sweep cache: this session's summary datagrams, encoded from
	// its sorted live user keys and their versions, so steady-state sweeps
	// neither scan the shared table, nor re-sort, nor re-encode. The dirty
	// flag is set by any operation that changes key membership or a key's
	// version (install, update, remove, re-trigger) — every operation that
	// takes a sequence number — and claimed by the next sweep, which
	// re-encodes the stale sessions' frames from a single table scan.
	// Guarded by the owning Sessions' sweepMu (sweeps are serialized).
	sweepDirty atomic.Bool
	frames     sweepFrames

	// Peer-health estimators: rttNs is a gain-1/8 EWMA of trigger→ack
	// round trips (0 until the first measured ack; requires
	// Config.Metrics, which gates the send stamps), trigs counts trigger
	// transmissions and retxs retransmissions, so
	// retxs/(trigs+retxs) estimates the loss rate toward this peer.
	rttNs atomic.Int64
	trigs atomic.Int64
	retxs atomic.Int64
}

// senderEntry tracks one (peer, key)'s signaling state at the sender. Its
// session is the one whose id heads its table key (Sessions.resolve).
type senderEntry struct {
	value    []byte
	seq      uint64 // latest trigger sequence (session-scoped)
	ackedSeq uint64

	// retries, removing and hops share a word: the entry is 72 bytes, a
	// 96-byte slot of a table chunk (TestEntrySizes), and a word more is 8
	// bytes per installed key.
	retries    int32
	removing   bool  // removal sent, awaiting removal-ack
	hops       uint8 // the trace context's hop count (see originNs)
	removalSeq uint64

	// sentAt stamps the transmission whose round trip telemetry measures
	// (latest trigger, or the removal once removing), biased by +1 ns so
	// a send at virtual time zero still reads as stamped. Written only
	// when the owning Sessions has metrics enabled; 0 means unstamped.
	sentAt time.Duration

	// originNs and hops are the key's hop-propagated wire trace context
	// (trace), set at install time for tracer-sampled keys or forwarded
	// from upstream via InstallCtx. The context's HopNs is stamped per
	// transmission (tracedMsg), so the entry does not keep it. A zero
	// originNs sends plain v1 frames.
	originNs int64
}

// trace is the entry's wire trace context, HopNs unstamped.
func (e *senderEntry) trace() wire.TraceContext {
	return wire.TraceContext{OriginNs: e.originNs, Hops: e.hops}
}

// setTrace stores tc's origin stamp and hop count.
func (e *senderEntry) setTrace(tc wire.TraceContext) { e.originNs, e.hops = tc.OriginNs, tc.Hops }

// sessionKey prefixes key with the owning session's 4-byte id, giving
// every (peer, key) pair its own slot — and its own timers — in the
// shared table.
func sessionKey(id uint32, key string) string {
	var p [4]byte
	binary.BigEndian.PutUint32(p[:], id)
	return string(p[:]) + key
}

// userKey strips the session-id prefix from a composite table key.
func userKey(ck string) string { return ck[4:] }

// sessionID reads the session id heading a composite table key.
func sessionID(ck string) uint32 {
	return uint32(ck[0])<<24 | uint32(ck[1])<<16 | uint32(ck[2])<<8 | uint32(ck[3])
}

// resolve returns the session whose id heads table key ck: the filed
// session that owns the entry (nil only if the invariants are broken).
func (ss *Sessions) resolve(ck string) *Session {
	ss.byIDMu.RLock()
	defer ss.byIDMu.RUnlock()
	return ss.byID[sessionID(ck)]
}

// file makes s resolvable by its id.
func (ss *Sessions) file(s *Session) {
	ss.byIDMu.Lock()
	ss.byID[s.id] = s
	ss.byIDMu.Unlock()
}

// NewSessions creates the sender core over conn and starts its timers
// (and, in summary mode, its sweeper). The caller owns the read loops:
// one per lane of Conns, routing each datagram through HandleDatagram (or
// to a Session of its choosing). Call Shutdown, then CloseEvents once the
// read loops have drained.
func NewSessions(conn net.PacketConn, cfg Config) *Sessions {
	ss := &Sessions{byID: make(map[uint32]*Session)}
	ss.init(conn, cfg)
	cfg, clk := ss.cfg, ss.clk
	ss.tbl = statetable.New(statetable.Config[senderEntry]{
		Shards:   cfg.Shards,
		Clock:    cfg.Clock,
		OnExpire: ss.onExpire,
	})
	ss.sweepBW = newBatchWriter(&ss.tp, &ss.ctrs)
	ss.registerMetrics()
	// The sweeper and the reaper are self-rearming clock callbacks: a
	// time.AfterFunc goroutine per run on the wall clock, an event on the
	// simulation driver under a virtual one. Each timer is stored before
	// it is armed, so its callback never reads a nil field.
	if ss.summaryMode() {
		ss.sweepTimer = clk.NewTimer(ss.sweep)
		ss.sweepTimer.Reset(ss.summaryInterval())
	}
	if cfg.PeerIdleTimeout > 0 {
		ss.reapTimer = clk.NewTimer(ss.reap)
		ss.reapTimer.Reset(ss.reapInterval())
	}
	return ss
}

// Profile returns the mechanism bundle the sessions speak.
func (ss *Sessions) Profile() variant.Profile { return ss.prof }

// summaryMode reports whether refreshes are batched into summaries.
func (ss *Sessions) summaryMode() bool {
	return ss.cfg.SummaryRefresh && ss.prof.Refresh
}

// Session returns the session for peer, creating it on first use. Peers
// are identified by their address string, so the same address always maps
// to the same session.
func (ss *Sessions) Session(peer net.Addr) *Session {
	addr := peer.String()
	return ss.peers.getOrCreate(addr, func() *Session {
		s := &Session{ss: ss, id: ss.nextID.Add(1), peer: peer}
		// A previously evicted peer returning resumes its sequence space so
		// receivers do not mistake the new session's traffic for stale
		// retransmissions of the old one. The bookmark still matters in
		// virtual time, where a burst of operations can outrun the
		// nanosecond base within one instant.
		s.seq.Store(max(ss.incarnationSeq(), ss.unretire(addr)))
		s.lastActive.Store(int64(ss.clk.Since(ss.born)))
		ss.file(s)
		ss.peersDirty.Store(true)
		return s
	})
}

// unretire forgets addr's retired sequence bookmark and returns it (0 if
// there was none).
func (ss *Sessions) unretire(addr string) uint64 {
	rp, _ := ss.retired.LoadAndDelete(addr)
	seq, _ := rp.(retiredPeer)
	return seq.seq
}

// Lookup returns the existing session for a source address, if any —
// the demultiplexing step of a multi-peer read loop. The address is
// formatted once: this runs per inbound datagram.
func (ss *Sessions) Lookup(from net.Addr) (*Session, bool) {
	s := ss.peers.get(from.String())
	return s, s != nil
}

// NumPeers returns the number of sessions in the peer table.
func (ss *Sessions) NumPeers() int { return ss.peers.len() }

// Peers returns all sessions in no particular order.
func (ss *Sessions) Peers() []*Session { return ss.peers.all() }

// Live returns the number of live (non-removing) keys across all
// sessions.
func (ss *Sessions) Live() int { return int(ss.live.Load()) }

// Conns returns the transport's independent read lanes (one per
// SO_REUSEPORT socket on sharded backends, else one); read loops run one
// ReadBatch loop per lane and route datagrams through HandleDatagram.
func (ss *Sessions) Conns() []transport.Conn { return transport.Fanout(ss.tp.bc) }

// decode decodes one raw datagram into m, counting it if it does not
// decode.
func (ss *Sessions) decode(data []byte, m *wire.Message) bool {
	if err := m.UnmarshalBinary(data); err != nil {
		ss.ctrs.decodeErrors.Add(1)
		return false
	}
	return true
}

// HandleDatagram decodes one raw datagram and routes it to the session
// for its source address. It reports false only when no session exists
// for the source (the caller counts strays); undecodable datagrams are
// counted internally and report true.
func (ss *Sessions) HandleDatagram(data []byte, from net.Addr) bool {
	var m wire.Message
	if !ss.decode(data, &m) {
		return true
	}
	sess, ok := ss.Lookup(from)
	if !ok {
		return false
	}
	sess.Handle(m)
	return true
}

// Shutdown stops all timers and the sweeper and closes the transport,
// unblocking any read loop pending in Recv. Idempotent. Stopping a clock
// timer does not recall a callback already dispatched, so Shutdown stops
// the periodic timers under sweepMu: a sweep in flight finishes its
// writes before the transport closes, and one that starts later finds the
// closed flag and neither writes nor re-arms.
func (ss *Sessions) Shutdown() error {
	if ss.closed.Swap(true) {
		return nil
	}
	ss.sweepMu.Lock()
	if ss.sweepTimer != nil {
		ss.sweepTimer.Stop()
	}
	if ss.reapTimer != nil {
		ss.reapTimer.Stop()
	}
	ss.sweepMu.Unlock()
	ss.tbl.Close() // no expiry callback runs past this point
	return ss.tp.close()
}

// CloseEvents closes the events channel; call only after every goroutine
// that routes messages into sessions has drained.
func (ss *Sessions) CloseEvents() { ss.events.close() }

// --- per-session operations ---

// Peer returns the session's peer address.
func (s *Session) Peer() net.Addr { return s.peer }

// Live returns the session's live (non-removing) key count.
func (s *Session) Live() int { return int(s.live.Load()) }

// key builds the session-scoped table key for a user key.
func (s *Session) key(key string) string { return sessionKey(s.id, key) }

// Install installs (or reinstalls) state for key at this peer.
func (s *Session) Install(key string, value []byte) error {
	return s.put(key, value, EventInstalled, wire.TraceContext{})
}

// InstallCtx installs state for key while forwarding an upstream trace
// context — the relay path of hop-propagated tracing. The origin stamp
// passes through unchanged and the hop count increments, so the final
// receiver can measure the full chain's install latency. A zero fwd is
// equivalent to Install.
func (s *Session) InstallCtx(key string, value []byte, fwd wire.TraceContext) error {
	return s.put(key, value, EventInstalled, fwd)
}

// Update changes the state value for key; it is an error to update a key
// that was never installed at this peer or is being removed.
func (s *Session) Update(key string, value []byte) error {
	known := false
	s.ss.tbl.Update(s.key(key), func(e *senderEntry, _ statetable.TimerControl[senderEntry]) {
		known = !e.removing
	})
	if !known {
		return fmt.Errorf("signal: update of unknown key %q", key)
	}
	return s.put(key, value, EventUpdated, wire.TraceContext{})
}

// traceStamp is the wire trace clock: nanoseconds since the shared
// sequence epoch, biased +1 so a stamp at virtual time zero is still
// distinguishable from "untraced" (OriginNs 0 means unsampled).
func (ss *Sessions) traceStamp() int64 {
	return int64(ss.clk.Now().Sub(seqEpoch)) + 1
}

// traceCtxFor derives the wire trace context a (re)install stores on its
// entry: a forwarded context keeps its origin stamp and gains a hop, a
// tracer-sampled key starts a fresh wave at hop zero, everything else
// stays untraced. HopNs is left zero — it is stamped per transmission.
func (ss *Sessions) traceCtxFor(key string, fwd wire.TraceContext) wire.TraceContext {
	if fwd.Sampled() {
		hops := fwd.Hops
		if hops < ^uint8(0) {
			hops++
		}
		return wire.TraceContext{OriginNs: fwd.OriginNs, Hops: hops}
	}
	if ss.trace.Sampled(key) {
		return wire.TraceContext{OriginNs: ss.traceStamp()}
	}
	return wire.TraceContext{}
}

// tracedMsg stamps m with the entry's trace context (HopNs = now) when
// the key is traced; untraced keys send plain v1 frames.
func (ss *Sessions) tracedMsg(m wire.Message, ctx wire.TraceContext) wire.Message {
	if ctx.Sampled() {
		m.Trace = ctx
		m.Trace.HopNs = ss.traceStamp()
	}
	return m
}

func (s *Session) put(key string, value []byte, kind EventKind, fwd wire.TraceContext) error {
	if len(key) > wire.MaxKeyLen || len(value) > wire.MaxValueLen {
		return wire.ErrTooLarge
	}
	ss := s.ss
	if ss.closed.Load() {
		return ErrClosed
	}
	s.touch()
	if s.gone.Load() {
		ss.file(s) // so the entry made below resolves from its first timer on
	}
	v := make([]byte, len(value))
	copy(v, value)
	err := error(nil)
	ss.tbl.Upsert(s.key(key), func(e *senderEntry, created bool, tc statetable.TimerControl[senderEntry]) {
		// Re-check under the shard lock: Shutdown may have completed since
		// the fast-path check above, and a success return here would claim
		// an install that no timer will ever maintain. A just-created entry
		// is deleted again so the table and the live counters stay in step.
		if ss.closed.Load() {
			if created {
				tc.Delete()
			}
			err = ErrClosed
			return
		}
		if created {
			s.tabled.Add(1)
		}
		var old uint64 // the hash the fold holds for the key: none unless live
		if created || e.removing {
			s.live.Add(1)
			ss.live.Add(1)
		} else {
			old = wire.StateHash(key, e.seq, e.value)
		}
		e.value = v
		e.removing = false
		e.retries = 0
		e.seq = s.seq.Add(1)
		s.fold.Add(wire.StateHash(key, e.seq, e.value) - old)
		s.sweepDirty.Store(true)
		e.setTrace(ss.traceCtxFor(key, fwd))
		if ss.measure {
			e.sentAt = ss.clk.Since(ss.born) + 1
		}
		s.trigs.Add(1)
		ss.send(ss.tracedMsg(wire.Message{Type: wire.TypeTrigger, Seq: e.seq, Key: key, Value: e.value}, e.trace()), s.peer)
		ss.trace.Record(telemetry.TraceTrigger, key, e.seq, s.peer)
		ss.armTriggerRetx(tc)
		ss.armRefresh(tc)
		ss.emit(Event{Kind: kind, Key: key, Value: e.value, Seq: e.seq, Peer: s.peer, Trace: e.trace()})
	})
	if err == nil && s.gone.Load() {
		ss.reattach(s)
	}
	return err
}

// Remove withdraws the state for key at this peer. With explicit-removal
// protocols a removal message is sent (reliably for SS+RTR and HS);
// otherwise the receiver is left to time the state out.
func (s *Session) Remove(key string) error {
	ss := s.ss
	if ss.closed.Load() {
		return ErrClosed
	}
	s.touch()
	known := false
	err := error(nil)
	ss.tbl.Update(s.key(key), func(e *senderEntry, tc statetable.TimerControl[senderEntry]) {
		if e.removing {
			return
		}
		known = true
		if ss.closed.Load() { // Shutdown completed since the fast-path check
			err = ErrClosed
			return
		}
		s.live.Add(-1)
		ss.live.Add(-1)
		s.sweepDirty.Store(true)
		s.fold.Add(-wire.StateHash(key, e.seq, e.value))
		tc.Cancel(timerRefresh)
		tc.Cancel(timerRetx)
		if !ss.prof.ExplicitRemoval {
			ss.deleteEntry(s, tc)
			ss.trace.Record(telemetry.TraceRemoval, key, 0, s.peer)
			ss.emit(Event{Kind: EventRemoved, Key: key, Peer: s.peer})
			return
		}
		e.removing = true
		e.removalSeq = s.seq.Add(1)
		e.retries = 0
		e.value = nil
		if ss.measure {
			e.sentAt = ss.clk.Since(ss.born) + 1
		}
		ss.send(wire.Message{Type: wire.TypeRemoval, Seq: e.removalSeq, Key: key}, s.peer)
		if ss.prof.ReliableRemoval {
			tc.Schedule(timerRetx, ss.cfg.Retransmit)
		} else {
			ss.deleteEntry(s, tc)
			ss.trace.Record(telemetry.TraceRemoval, key, e.removalSeq, s.peer)
			ss.emit(Event{Kind: EventRemoved, Key: key, Peer: s.peer})
		}
	})
	if !known {
		return fmt.Errorf("signal: remove of unknown key %q", key)
	}
	return err
}

// Keys returns the keys with live (non-removing) state at this peer. It
// scans the whole shared table (cost is O(total keys across all
// sessions), one shard lock at a time) — fine for CLIs and tests, not
// for hot paths on a large node; Live is the O(1) count.
func (s *Session) Keys() []string {
	out := make([]string, 0, s.live.Load())
	s.ss.tbl.Range(func(ck string, e *senderEntry) bool {
		if sessionID(ck) == s.id && !e.removing {
			out = append(out, userKey(ck))
		}
		return true
	})
	return out
}

// --- timers (fired by the shared table's shard wheels) ---

// armRefresh schedules the next per-key refresh; in summary mode the
// sweeper carries refreshes instead, so no per-key deadline exists.
func (ss *Sessions) armRefresh(tc statetable.TimerControl[senderEntry]) {
	if !ss.prof.Refresh || ss.summaryMode() {
		return
	}
	tc.Schedule(timerRefresh, ss.refreshInterval())
}

func (ss *Sessions) armTriggerRetx(tc statetable.TimerControl[senderEntry]) {
	if !ss.prof.ReliableTrigger {
		tc.Cancel(timerRetx) // a reinstall may race a pending removal retx
		return
	}
	tc.Schedule(timerRetx, ss.cfg.Retransmit)
}

// retxDelay is the retransmission engine's backoff schedule: the wait
// after n unacked attempts is Γ·bⁿ, capped at RetransmitMax, so a dead or
// partitioned peer costs geometrically less traffic while an ACK (which
// resets the attempt counter) restores the fast timer instantly. The
// delays ride the entry's wheel timer — no per-message allocation.
func (ss *Sessions) retxDelay(attempts int) time.Duration {
	d := ss.cfg.Retransmit
	for i := 0; i < attempts && d < ss.cfg.RetransmitMax; i++ {
		d = time.Duration(float64(d) * ss.cfg.RetransmitBackoff)
	}
	if d > ss.cfg.RetransmitMax {
		d = ss.cfg.RetransmitMax
	}
	return d
}

// deleteEntry removes a session's entry from the shared table, keeping
// the per-session entry counter (the idle-eviction guard) in step.
// Callers hold the entry's shard lock via tc.
func (ss *Sessions) deleteEntry(s *Session, tc statetable.TimerControl[senderEntry]) {
	tc.Delete()
	s.tabled.Add(-1)
}

// refreshInterval returns the per-key refresh interval, stretched when an
// aggregate rate bound is configured (scalable timers): with n live keys
// across all peers the aggregate rate is n/interval, so the interval
// grows to n/MaxRefreshRate once n exceeds MaxRefreshRate·R. The live
// count is a single atomic read, not a table scan.
func (ss *Sessions) refreshInterval() time.Duration {
	interval := ss.cfg.RefreshInterval
	if ss.cfg.MaxRefreshRate <= 0 {
		return interval
	}
	if min := time.Duration(float64(ss.live.Load()) / ss.cfg.MaxRefreshRate * float64(time.Second)); min > interval {
		interval = min
	}
	return interval
}

// onExpire dispatches wheel deadlines; it runs on a shard's timer callback
// with the shard locked.
func (ss *Sessions) onExpire(ck string, kind statetable.TimerKind, e *senderEntry, tc statetable.TimerControl[senderEntry]) {
	if ss.closed.Load() {
		return
	}
	s := ss.resolve(ck)
	if s == nil {
		return // unreachable: an entry's session stays filed (CheckInvariants)
	}
	key := userKey(ck)
	switch kind {
	case timerRefresh:
		if e.removing {
			return
		}
		msg := wire.Message{Type: wire.TypeRefresh, Seq: e.seq, Key: key, Value: e.value}
		if e.originNs != 0 && e.hops == 0 {
			// A locally-originated traced key starts a fresh propagation
			// wave on every refresh: new origin stamp, hop zero, so the
			// chain's steady-state refresh latency keeps being measured.
			// Forwarded keys (hops > 0) refresh untraced — relays refresh
			// independently, so re-propagating a stale origin stamp would
			// record chain latencies that never happened.
			e.originNs = ss.traceStamp()
			msg = ss.tracedMsg(msg, e.trace())
		}
		ss.send(msg, s.peer)
		ss.trace.Record(telemetry.TraceRefresh, key, e.seq, s.peer)
		ss.armRefresh(tc)
	case timerRetx:
		if e.removing {
			ss.removalRetx(s, key, e, tc)
		} else {
			ss.triggerRetx(s, key, e, tc)
		}
	}
}

func (ss *Sessions) triggerRetx(s *Session, key string, e *senderEntry, tc statetable.TimerControl[senderEntry]) {
	if e.ackedSeq >= e.seq {
		return
	}
	if ss.cfg.MaxRetransmits > 0 && int(e.retries) >= ss.cfg.MaxRetransmits {
		ss.emit(Event{Kind: EventGaveUp, Key: key, Seq: e.seq, Peer: s.peer})
		return
	}
	e.retries++
	s.retxs.Add(1)
	// Retransmits keep the stored origin stamp and hop count (HopNs
	// stamped anew), so the measured end-to-end latency includes
	// retransmission delay — exactly the loss sensitivity the paper's
	// install-latency curves show.
	ss.send(ss.tracedMsg(wire.Message{Type: wire.TypeTrigger, Seq: e.seq, Key: key, Value: e.value}, e.trace()), s.peer)
	ss.trace.Record(telemetry.TraceRetransmit, key, e.seq, s.peer)
	tc.Schedule(timerRetx, ss.retxDelay(int(e.retries)))
}

func (ss *Sessions) removalRetx(s *Session, key string, e *senderEntry, tc statetable.TimerControl[senderEntry]) {
	if ss.cfg.MaxRetransmits > 0 && int(e.retries) >= ss.cfg.MaxRetransmits {
		seq := e.removalSeq
		ss.deleteEntry(s, tc)
		ss.emit(Event{Kind: EventGaveUp, Key: key, Seq: seq, Peer: s.peer})
		return
	}
	e.retries++
	s.retxs.Add(1)
	ss.send(wire.Message{Type: wire.TypeRemoval, Seq: e.removalSeq, Key: key}, s.peer)
	ss.trace.Record(telemetry.TraceRetransmit, key, e.removalSeq, s.peer)
	tc.Schedule(timerRetx, ss.retxDelay(int(e.retries)))
}

// --- summary refresh (RFC 2961-style refresh reduction) ---

// sweep is the summary sweeper: one clock callback per sweep, renewing
// every live key of every session with batched summary datagrams instead
// of one refresh per key, then rearmed against the current (possibly
// stretched) interval. A sweep covers whatever is live when it runs, so a
// callback the wall clock dispatched late or twice is harmless.
func (ss *Sessions) sweep() {
	ss.sweepMu.Lock()
	defer ss.sweepMu.Unlock()
	if ss.closed.Load() {
		return
	}
	ss.sweepLocked()
	ss.sweepTimer.Reset(ss.summaryInterval())
}

// summaryInterval is the sweep period: the refresh interval R, stretched
// so the aggregate summary-datagram rate (at least ⌈n/SummaryMaxKeys⌉ per
// sweep for n live keys) stays under MaxRefreshRate when one is
// configured.
func (ss *Sessions) summaryInterval() time.Duration {
	interval := ss.cfg.RefreshInterval
	if ss.cfg.MaxRefreshRate <= 0 {
		return interval
	}
	datagrams := (float64(ss.live.Load()) + float64(ss.cfg.SummaryMaxKeys) - 1) / float64(ss.cfg.SummaryMaxKeys)
	if min := time.Duration(datagrams / ss.cfg.MaxRefreshRate * float64(time.Second)); min > interval {
		interval = min
	}
	return interval
}

// SummarySweep sends one round of summary refreshes covering every live
// key of every session — one batch stream per peer — and returns the
// number of datagrams it took (none after Shutdown). The sweeper runs the
// same round every refresh interval; benchmarks and drivers may call it
// directly.
func (ss *Sessions) SummarySweep() int {
	ss.sweepMu.Lock()
	defer ss.sweepMu.Unlock()
	if ss.closed.Load() {
		return 0
	}
	return ss.sweepLocked()
}

// sweepFrames is one session's sweep cache: its summary datagrams as
// Message.Append encoded them at the last rebuild, back to back in one
// pointer-free buffer; ends[i] is where frame i ends. stale marks the
// session for the rebuild of the sweep in progress.
type sweepFrames struct {
	buf   []byte
	ends  []int
	stale bool
}

// encode rebuilds f from keys, a session's sorted live user keys, and
// hashes, the wire.StateHash of each, chunked by SummaryFits and encoded by
// Message.Append with seq and each chunk's fold: every limit the codec
// checks is checked here, once per change. The buffer is reused when it is
// large enough and sized exactly when it is not.
func (f *sweepFrames) encode(keys []string, hashes []uint64, maxKeys int, seq uint64) {
	f.ends = f.ends[:0] // each frame's key count, until the frame is encoded
	need := 0
	for rest := keys; len(rest) > 0; {
		// SummaryFits walks what it is handed up to the wire limits (1,024
		// keys or 8 KB), so it is handed no more than one datagram may take.
		n := wire.SummaryFits(rest[:min(len(rest), maxKeys)])
		if n == 0 {
			break // unreachable: every installed key fits a datagram
		}
		need += (&wire.Message{Type: wire.TypeSummaryRefresh, Keys: rest[:n]}).EncodedLen()
		f.ends = append(f.ends, n)
		rest = rest[n:]
	}
	if cap(f.buf) < need {
		f.buf = make([]byte, 0, need)
	}
	f.buf = f.buf[:0]
	for i, n := range f.ends {
		m := wire.Message{Type: wire.TypeSummaryRefresh, Seq: seq, Keys: keys[:n]}
		for _, h := range hashes[:n] {
			m.Fold += h
		}
		buf, err := m.Append(f.buf)
		if err != nil {
			f.ends = f.ends[:i] // unreachable: SummaryFits admitted the chunk, Install its keys
			break
		}
		f.buf, f.ends[i], keys, hashes = buf, len(buf), keys[n:], hashes[n:]
	}
}

// sweepScratchCap bounds the key scratch kept between rebuilds (keys).
const sweepScratchCap = 4096

// sweepKeys is a rebuild's scratch: table keys and their entries' hashes,
// sorted together by key.
type sweepKeys struct {
	cks    []string
	hashes []uint64
}

func (k sweepKeys) Len() int           { return len(k.cks) }
func (k sweepKeys) Less(i, j int) bool { return k.cks[i] < k.cks[j] }
func (k sweepKeys) Swap(i, j int) {
	k.cks[i], k.cks[j] = k.cks[j], k.cks[i]
	k.hashes[i], k.hashes[j] = k.hashes[j], k.hashes[i]
}

// rebuildFrames re-encodes the frames of every session marked stale from
// one scan of the shared table, and returns how many frames that made. A
// table key is its session's id, big endian, then the user key, so one sort
// groups the collected keys by session in id order — the order of sessions —
// and leaves each group in the order of its user keys. The scan keeps only
// stale sessions' keys, each with its entry's hash, reading a key's session
// off its id: a binary search of sessions, no lock and no pointer per
// entry.
func (ss *Sessions) rebuildFrames(sessions []*Session) (encoded int) {
	stale := func(id uint32) bool {
		i, ok := slices.BinarySearchFunc(sessions, id, func(s *Session, id uint32) int { return cmp.Compare(s.id, id) })
		return ok && sessions[i].frames.stale
	}
	sk := sweepKeys{ss.sweepScratch.cks[:0], ss.sweepScratch.hashes[:0]}
	ss.tbl.Range(func(ck string, e *senderEntry) bool {
		if !e.removing && stale(sessionID(ck)) {
			sk.cks = append(sk.cks, ck)
			sk.hashes = append(sk.hashes, wire.StateHash(userKey(ck), e.seq, e.value))
		}
		return true
	})
	sort.Sort(sk)
	cks, hashes := sk.cks, sk.hashes
	for _, sess := range sessions {
		if !sess.frames.stale {
			continue
		}
		sess.frames.stale = false
		n := 0
		for ; n < len(cks) && sessionID(cks[n]) == sess.id; n++ {
			cks[n] = userKey(cks[n])
		}
		sess.frames.encode(cks[:n], hashes[:n], ss.cfg.SummaryMaxKeys, sess.seq.Load())
		encoded += len(sess.frames.ends)
		cks, hashes = cks[n:], hashes[n:]
	}
	clear(sk.cks) // the strings alias table keys: do not pin removed ones
	if cap(sk.cks) > sweepScratchCap {
		sk = sweepKeys{}
	}
	ss.sweepScratch = sk
	return encoded
}

// sweepLocked is one sweep round; callers hold sweepMu. Each session
// carries its summary datagrams already encoded (sweepFrames), rebuilt —
// with a single scan of the shared table — only for sessions that took a
// sequence number since the last sweep, so every frame carries the
// session's current one and its list's fold at the current versions. A
// steady-state sweep (millions of keys, no churn) therefore walks no table
// shards, sorts nothing and encodes nothing: it queues each frame as it
// stands. The sorted order doubles as the determinism guarantee for
// virtual runs: datagram composition does not depend on map iteration.
func (ss *Sessions) sweepLocked() int {
	if ss.peersDirty.Swap(false) {
		ss.sweepSessions = ss.Peers()
		sort.Slice(ss.sweepSessions, func(i, j int) bool {
			return ss.sweepSessions[i].id < ss.sweepSessions[j].id
		})
	}
	sessions := ss.sweepSessions
	stale := false
	for _, sess := range sessions {
		if sess.sweepDirty.Swap(false) {
			sess.frames.stale, stale = true, true
		}
	}
	if stale {
		ss.ctrs.summaryFramesEncoded.Add(int64(ss.rebuildFrames(sessions)))
	}
	// The batch writer does not copy the frames it is handed: they are only
	// written here, under sweepMu, and the flush below returns first. They
	// leave in WriteBatch-sized bursts, in per-peer composition and order.
	sent := 0
	for _, sess := range sessions {
		f, start := &sess.frames, 0
		for _, end := range f.ends {
			frame := f.buf[start:end]
			start = end
			ss.sweepBW.addEncoded(frame, wire.TypeSummaryRefresh, sess.peer)
			ss.trace.Record(telemetry.TraceSummary, "", uint64(wire.SummaryFrame(frame)), sess.peer)
			sent++
		}
	}
	ss.sweepBW.flush()
	ss.ctrs.summaryFramesSent.Add(int64(sent))
	return sent
}

// --- inbound ---

// Handle processes one inbound message addressed to this session (ACKs,
// removal-ACKs, notifications, summary NACKs, and coalesced ack batches).
// Multi-peer read loops route each datagram here after Lookup on its
// source address.
func (s *Session) Handle(m wire.Message) {
	ss := s.ss
	if ss.closed.Load() {
		return
	}
	s.touch()
	ss.ctrs.received[m.Type].Add(1)
	switch m.Type {
	case wire.TypeAck:
		s.handleAck(m.Seq, m.Key)
	case wire.TypeRemovalAck:
		s.handleRemovalAck(m.Seq, m.Key)
	case wire.TypeAckBatch:
		// Coalesced replies: unpack and dispatch each item.
		ss.ctrs.coalescedAcks.Add(int64(len(m.Acks)))
		for i := range m.Acks {
			switch m.Acks[i].Kind {
			case wire.TypeAck:
				s.handleAck(m.Acks[i].Seq, m.Acks[i].Key)
			case wire.TypeRemovalAck:
				s.handleRemovalAck(m.Acks[i].Seq, m.Acks[i].Key)
			}
		}
	case wire.TypeNotify:
		// The receiver dropped our state (timeout or false signal);
		// repair by re-triggering if we still own the key.
		s.retrigger(m.Key)
	case wire.TypeSummaryNack:
		// The receiver does not hold these keys: fall back from summary
		// refresh to full triggers for each.
		for _, key := range m.Keys {
			s.retrigger(key)
		}
	case wire.TypeProbe:
		// The receiver's hard-state orphan detector asks whether we are
		// alive, with which keys — or, auditing, whether we still own one.
		s.handleProbe(m)
	case wire.TypeDigestReply:
		// A census answer from this peer's receiver: route it to the
		// waiting CensusPeer exchange, if any.
		ss.deliverCensusReply(m)
	}
}

// handleProbe answers a liveness probe. A peer probe is answered from the
// session alone, with its pair: the live keys and their fold. A per-key
// probe is answered only for a key the session still owns: silence is what
// lets withdrawn state be cleaned up.
func (s *Session) handleProbe(m wire.Message) {
	ss := s.ss
	if _, _, ok := m.Pair(); ok {
		var v [wire.PairLen]byte
		ss.send(wire.Message{Type: wire.TypeProbeAck, Seq: m.Seq, Value: wire.AppendPair(v[:0], uint64(s.live.Load()), s.fold.Load())}, s.peer)
		return
	}
	ss.tbl.Update(s.key(m.Key), func(e *senderEntry, _ statetable.TimerControl[senderEntry]) {
		if e.removing {
			return
		}
		ss.send(wire.Message{Type: wire.TypeProbeAck, Seq: m.Seq, Key: m.Key}, s.peer)
	})
}

func (s *Session) handleAck(seq uint64, key string) {
	ss := s.ss
	ss.tbl.Update(s.key(key), func(e *senderEntry, tc statetable.TimerControl[senderEntry]) {
		if e.removing {
			return
		}
		if seq > e.ackedSeq {
			e.ackedSeq = seq
		}
		if e.ackedSeq >= e.seq {
			tc.Cancel(timerRetx)
			e.retries = 0
			if ss.measure && e.sentAt > 0 {
				d := ss.clk.Since(ss.born) + 1 - e.sentAt
				ss.histInstallAck.Observe(d)
				// Gain-1/8 EWMA of the trigger→ack round trip, the
				// per-peer health estimate behind the RTT gauge.
				if old := s.rttNs.Load(); old == 0 {
					s.rttNs.Store(int64(d))
				} else {
					s.rttNs.Store(old + (int64(d)-old)/8)
				}
				e.sentAt = 0
			}
			ss.trace.Record(telemetry.TraceAck, key, e.seq, s.peer)
			ss.emit(Event{Kind: EventAcked, Key: key, Seq: e.seq, Peer: s.peer})
		}
	})
}

func (s *Session) handleRemovalAck(seq uint64, key string) {
	ss := s.ss
	ss.tbl.Update(s.key(key), func(e *senderEntry, tc statetable.TimerControl[senderEntry]) {
		if !e.removing || seq < e.removalSeq {
			return
		}
		tc.Cancel(timerRetx)
		if ss.measure && e.sentAt > 0 {
			ss.histRemoval.Observe(ss.clk.Since(ss.born) + 1 - e.sentAt)
		}
		ss.deleteEntry(s, tc)
		ss.trace.Record(telemetry.TraceRemoval, key, seq, s.peer)
		ss.emit(Event{Kind: EventRemoved, Key: key, Peer: s.peer})
	})
}

// --- idle peer lifecycle ---

// touch stamps the session as active; the reaper only considers sessions
// whose last activity is a full PeerIdleTimeout old.
func (s *Session) touch() {
	if s.ss.cfg.PeerIdleTimeout > 0 {
		s.lastActive.Store(int64(s.ss.clk.Since(s.ss.born)))
	}
}

// Evictions reports how many idle sessions the reaper has dropped from
// the peer table since start.
func (ss *Sessions) Evictions() int { return int(ss.evictions.Value()) }

// reapInterval is the eviction scan period: a quarter of the idle
// timeout, so eviction lands within 1.25× the configured quiet period.
func (ss *Sessions) reapInterval() time.Duration {
	ri := ss.cfg.PeerIdleTimeout / 4
	if ri <= 0 {
		ri = ss.cfg.PeerIdleTimeout
	}
	return ri
}

// reap is the idle reaper: one clock callback per scan. reapIdle judges
// every session against the clock as it reads now, so a late or repeated
// callback evicts nothing a punctual one would have kept.
func (ss *Sessions) reap() {
	ss.sweepMu.Lock()
	defer ss.sweepMu.Unlock()
	if ss.closed.Load() {
		return
	}
	ss.reapIdle()
	ss.reapTimer.Reset(ss.reapInterval())
}

// reapIdle drops every session that owns no table entries (no live keys,
// no pending removals) and has been quiet for PeerIdleTimeout, bounding
// the peer table under churn. The evicted address's sequence space is
// retired in the shard so a returning peer resumes it. Then it unfiles
// every gone session that is as idle: the ones just evicted, and detached
// handles whose entries have drained.
func (ss *Sessions) reapIdle() {
	now := ss.clk.Since(ss.born)
	idle := ss.cfg.PeerIdleTimeout
	reapable := func(s *Session) bool {
		return s.tabled.Load() == 0 && now-time.Duration(s.lastActive.Load()) >= idle
	}
	ss.retired.Range(func(addr, rp any) bool {
		if now-rp.(retiredPeer).at >= retiredTTLFactor*idle {
			ss.retired.Delete(addr)
		}
		return true
	})
	ss.peers.deleteIf(func(addr string, s *Session) bool {
		if !reapable(s) {
			return false
		}
		ss.retired.Store(addr, retiredPeer{seq: s.seq.Load(), at: now})
		s.gone.Store(true)
		ss.evictions.Add(1)
		ss.peersDirty.Store(true)
		return true
	})
	ss.byIDMu.Lock()
	for id, s := range ss.byID {
		if s.gone.Load() && reapable(s) {
			delete(ss.byID, id)
		}
	}
	ss.byIDMu.Unlock()
}

// reattach re-registers an evicted session a caller kept a handle to and
// used again; put has filed it by id already. If the address has meanwhile
// been re-claimed by a newer session, the old handle stays detached (its
// traffic still flows, but inbound replies route to the table's session
// for the address), and filed by id until its entries drain.
func (ss *Sessions) reattach(s *Session) {
	addr := s.peer.String()
	ss.peers.getOrCreate(addr, func() *Session {
		ss.unretire(addr)
		s.gone.Store(false)
		ss.peersDirty.Store(true)
		return s
	})
}

// retrigger re-installs key at the peer with a fresh sequence number.
func (s *Session) retrigger(key string) {
	ss := s.ss
	ss.tbl.Update(s.key(key), func(e *senderEntry, tc statetable.TimerControl[senderEntry]) {
		if e.removing {
			return
		}
		old := wire.StateHash(key, e.seq, e.value)
		e.seq = s.seq.Add(1)
		e.retries = 0
		s.fold.Add(wire.StateHash(key, e.seq, e.value) - old)
		s.sweepDirty.Store(true)
		// A repair is a fresh wave even for keys first installed via a
		// forwarded context: the upstream stamp described the original
		// propagation, not this re-trigger.
		e.setTrace(ss.traceCtxFor(key, wire.TraceContext{}))
		if ss.measure {
			e.sentAt = ss.clk.Since(ss.born) + 1
		}
		s.trigs.Add(1)
		ss.send(ss.tracedMsg(wire.Message{Type: wire.TypeTrigger, Seq: e.seq, Key: key, Value: e.value}, e.trace()), s.peer)
		ss.trace.Record(telemetry.TraceTrigger, key, e.seq, s.peer)
		ss.armTriggerRetx(tc)
		ss.armRefresh(tc)
		ss.emit(Event{Kind: EventRepaired, Key: key, Seq: e.seq, Peer: s.peer})
	})
}
