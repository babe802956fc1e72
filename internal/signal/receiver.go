package signal

import (
	"bytes"
	"errors"
	"net"
	"net/netip"
	"sync"
	"time"

	"softstate/internal/clock"
	"softstate/internal/statetable"
	"softstate/internal/telemetry"
	"softstate/internal/transport"
	"softstate/internal/wire"
)

// Receiver holds signaling state installed by remote Senders. One Receiver
// can serve many senders concurrently: state is keyed by (source address,
// key), so two senders installing the same key hold independent entries
// with independent timeouts and sequence spaces, and replies (ACKs, NACKs,
// notifications) go to the source address of the triggering datagram.
// State lives in a sharded state table whose timing wheels drive every
// state-timeout deadline, so one Receiver holds millions of keys with
// only its read loops running. All methods are safe for concurrent use.
type Receiver struct {
	endpoint

	tbl   *statetable.Table[receiverEntry]
	peers peerTable // who holds state here: one record per source address

	// histHop and histE2E are fed by inbound wire trace contexts: per-hop
	// propagation latency on any traced frame, end-to-end install latency
	// on traced triggers.
	histJitter *telemetry.Histogram
	histHop    *telemetry.Histogram
	histE2E    *telemetry.Histogram
	histOrphan *telemetry.Histogram // last answer → orphan drop of a whole record

	ackBW      *batchWriter   // flush datagram coalescer (guarded by ackMu); nil unless cfg.CoalesceAcks
	ackMu      sync.Mutex     // serializes flushAcks
	flushTimer clock.Timer    // ack flusher, armed by the first ack of a window
	wg         sync.WaitGroup // read loops (one per transport lane)

	// Hard state only (probe.go): the probe round, its serialization
	// against Close, and the writer its datagrams leave through.
	probeTimer clock.Timer
	probeMu    sync.Mutex
	probeBW    *batchWriter
}

// receiverEntry is one installed piece of state for one (peer, key) pair.
// Neither the sender's address nor the user key is stored: peer names the
// sender's record, and the user key is the table key past that record's
// prefix. The entry is 48 bytes, a 72-byte slot of a table chunk, plus
// its state-timeout node where the profile arms one (TestEntrySizes).
type receiverEntry struct {
	value   []byte
	lastSeq uint64
	peer    uint32 // id of the installing sender's peer record
	// aux is the word the two lifetime mechanisms share, since a profile has
	// one or the other. Refresh profiles name the entry's datagram lease in
	// it (lease.go), 0 for none. Hard state counts in it the per-key probes
	// the sender left unanswered while an audit of its pair runs (probe.go);
	// MaxProbeMisses of them orphan the entry, and outside an audit it is
	// unused.
	aux uint32
	// renewedAt stamps the last accepted renewal (trigger, refresh, or
	// summary), feeding the refresh-jitter histogram; biased by +1 ns so
	// a renewal at virtual time zero still reads as stamped. Written only
	// when the receiver has metrics enabled; 0 means unstamped.
	renewedAt time.Duration
}

// NewReceiver creates a receiver speaking cfg.Protocol on conn and starts
// its receive loop.
func NewReceiver(conn net.PacketConn, cfg Config) (*Receiver, error) {
	if conn == nil {
		return nil, errors.New("signal: nil conn")
	}
	r := &Receiver{}
	r.init(conn, cfg)
	cfg, clk := r.cfg, r.clk
	r.peers.byID = make(map[uint32]*peer)
	r.tbl = statetable.New(statetable.Config[receiverEntry]{
		Shards:   cfg.Shards,
		Clock:    cfg.Clock,
		OnExpire: r.onTimeout,
	})
	r.registerMetrics()
	if cfg.CoalesceAcks {
		r.ackBW = newBatchWriter(&r.tp, &r.ctrs)
		// Flushes are clock callbacks armed by the first ack of each batch
		// window: an idle coalescing receiver has nothing armed. One takes
		// whatever is pending, so a callback the wall clock dispatched
		// before a Reset re-armed the window finds nothing or flushes early;
		// the close-time drain is Close's own.
		r.flushTimer = clk.NewTimer(func() {
			if !r.closed.Load() {
				r.flushAcks()
			}
		})
	}
	if r.prof.HardState {
		r.probeBW = newBatchWriter(&r.tp, &r.ctrs)
		r.probeTimer = clk.NewTimer(r.probeRound)
	}
	// One read loop per transport lane: sharded kernel-socket backends
	// expose each SO_REUSEPORT socket as its own lane, so inbound fan-in
	// drains in parallel without a demux goroutine in between.
	lanes := transport.Fanout(r.tp.bc)
	r.wg.Add(len(lanes))
	for _, lane := range lanes {
		go r.readLoop(lane)
	}
	return r, nil
}

// Get returns an installed value for key from any sender: one table lookup
// per sender holding state here, in address order. With a single sender it
// is equivalent to GetFrom, which is the O(1) form; with several holding the
// same key it returns the one whose (source, key) entry sorts first, which
// keeps virtual-time runs deterministic.
func (r *Receiver) Get(key string) ([]byte, bool) {
	for _, p := range r.peers.sorted() {
		if e, ok := r.tbl.Get(p.key(key)); ok {
			return append([]byte{}, e.value...), true
		}
	}
	return nil, false
}

// GetFrom returns the value installed for key by the sender at from — an
// O(1) lookup on the (peer, key) table.
func (r *Receiver) GetFrom(from net.Addr, key string) ([]byte, bool) {
	e, ok := r.tbl.Get(RKey(from, key))
	if !ok {
		return nil, false
	}
	return append([]byte{}, e.value...), true
}

// Len returns the number of installed (peer, key) entries.
func (r *Receiver) Len() int { return r.tbl.Len() }

// NumPeers returns the number of senders holding state (or owed a coalesced
// ack) here, mirroring Sessions.NumPeers.
func (r *Receiver) NumPeers() int { return r.peers.byAddr.len() }

// Keys returns the installed keys. A key installed by several senders
// appears once per sender.
func (r *Receiver) Keys() []string {
	out := make([]string, 0, r.tbl.Len())
	r.tbl.Range(func(ck string, e *receiverEntry) bool {
		out = append(out, r.peers.resolve(e.peer).userKey(ck))
		return true
	})
	return out
}

// InjectFalseRemoval simulates the hard-state external failure signal
// firing falsely for key: the state is removed (for every sender holding
// it) and each owning sender is notified so it can repair (paper §II, HS
// false notification). It reports whether any state existed.
func (r *Receiver) InjectFalseRemoval(key string) bool {
	if r.closed.Load() {
		return false
	}
	dropped := false
	for _, p := range r.peers.sorted() {
		r.tbl.Update(p.key(key), func(e *receiverEntry, tc statetable.TimerControl[receiverEntry]) {
			dropped = true
			_, peer := r.drop(e, tc, EventFalseRemoval)
			r.send(wire.Message{Type: wire.TypeNotify, Key: key}, peer)
		})
	}
	return dropped
}

// Close stops all timers, closes the transport, and drains the loops.
func (r *Receiver) Close() error {
	if r.closed.Swap(true) {
		return nil
	}
	// The closed flag stops handle() from queueing new acks; drain what is
	// pending while the transport is still open, so coalesced replies go
	// out instead of being dropped by the fence — matching the
	// immediate-send behavior of the non-coalescing path. flushAcks waits
	// on ackMu for a flush callback already in flight, so that one's
	// writes land before the transport closes too.
	if r.flushTimer != nil {
		r.flushTimer.Stop()
		r.flushAcks()
	}
	if r.probeTimer != nil {
		// A round in flight finishes its writes first; a later one finds the
		// closed flag.
		r.probeMu.Lock()
		r.probeTimer.Stop()
		r.probeMu.Unlock()
	}
	r.tbl.Close() // no timeout callback runs past this point
	err := r.tp.close()
	r.wg.Wait()
	r.events.close()
	return err
}

// readLoop drains one transport lane in ReadBatch strides — up to a full
// ring of datagrams per syscall on batching backends — and dispatches
// each through the zero-alloc summary fast path or the generic decoder.
func (r *Receiver) readLoop(c transport.Conn) {
	defer r.wg.Done()
	ms := transport.NewBatch(transport.DefaultBatchSize)
	scratch := r.newDispatchScratch()
	for {
		cnt, err := c.ReadBatch(ms)
		if err != nil {
			return
		}
		for i := 0; i < cnt; i++ {
			r.dispatch(ms[i].Data, ms[i].Addr, scratch)
		}
	}
}

// dispatch routes one raw datagram.
func (r *Receiver) dispatch(data []byte, from net.Addr, scratch *dispatchScratch) {
	if wire.PeekType(data) == wire.TypeSummaryRefresh {
		// Summary refreshes are the steady-state hot path (one datagram
		// renews up to SummaryMaxKeys keys); decode them in place instead
		// of materializing a key-string slice per datagram.
		r.handleSummaryFast(data, from, scratch)
		return
	}
	// A hard-state receiver's steady state is one peer probe-ack per sender
	// per round: its pair is read in place too.
	var m wire.Message
	if !wire.DecodePeer(data, &m) {
		if derr := m.UnmarshalBinary(data); derr != nil {
			r.ctrs.decodeErrors.Add(1)
			return
		}
	}
	r.handle(m, from, scratch)
}

// dispatchScratch is the read loop's reusable state: the current source's
// peer record, the lookup buffer every frame type builds its table key in,
// and, for in-place summary handling, the unknown-key list for NACKs and
// the hoisted closures — built once per read loop so the per-key path
// allocates nothing.
type dispatchScratch struct {
	from    net.Addr      // the address the last frame came from, as the transport gave it
	peer    *peer         // that source's record, whose prefix heads ck; nil for a stranger
	ck      []byte        // the table key, rebuilt per key past the peer's prefix
	seq     uint64        // current datagram's sequence number
	now     time.Duration // clock offset, read once per datagram (metrics)
	unknown []string
	// The summary walks' visitors: check looks every key up and folds the
	// entries found, renew renews them, list lists every key.
	check, renew, list func(seq uint64, key []byte)
	// found counts the current datagram's keys that resolved to an entry and
	// fold is the fold of those entries, as check found them.
	found int64
	fold  uint64
	// The datagram's r.lifetime(), read once per datagram, not once per key.
	tick int64
	arm  bool
	// joining is the lease the renewing walk builds, nil for none.
	joining *lease
}

func (r *Receiver) newDispatchScratch() *dispatchScratch {
	sc := &dispatchScratch{}
	hash := func(e *receiverEntry, _ statetable.TimerControl[receiverEntry]) {
		sc.fold += wire.StateHash(sc.ck[len(sc.peer.prefix):], e.lastSeq, e.value)
	}
	sc.check = func(_ uint64, key []byte) {
		// A stranger holds nothing, so its every key is unknown.
		if sc.peer != nil {
			sc.ck = append(sc.ck[:len(sc.peer.prefix)], key...)
			if r.tbl.UpdateBytes(sc.ck, hash) {
				sc.found++
				return
			}
		}
		sc.unknown = append(sc.unknown, string(key))
	}
	renew := func(e *receiverEntry, tc statetable.TimerControl[receiverEntry]) {
		// Same staleness guard as per-key refreshes: a delayed or replayed
		// summary must not renew state that a newer per-key message has
		// since superseded.
		if sc.seq < e.lastSeq {
			return
		}
		if r.measure {
			if at := r.lastRenewal(sc.peer, e); at > 0 {
				r.histJitter.Observe(sc.now - at)
			}
			e.renewedAt = sc.now
		}
		if sc.arm {
			tc.ScheduleAt(timerTimeout, sc.tick)
		}
		if sc.joining != nil {
			r.join(sc, e)
		}
	}
	sc.renew = func(_ uint64, key []byte) {
		sc.ck = append(sc.ck[:len(sc.peer.prefix)], key...)
		r.tbl.UpdateBytes(sc.ck, renew)
	}
	sc.list = func(_ uint64, key []byte) { sc.unknown = append(sc.unknown, string(key)) }
	return sc
}

// source makes from the current source and returns its record, nil if the
// address holds nothing here. Frames arrive in runs from one source, and
// formatting a kernel address allocates, so the record is kept while it is
// live and from is the address it was found under: the same pointer out of
// the transport's address cache, an equal value for the in-memory and stream
// address types, or — a transport that hands out a fresh *net.UDPAddr per
// datagram — another pointer to the same IP and port, which is compared as
// a netip.AddrPort and remembered in the first one's place.
func (r *Receiver) source(sc *dispatchScratch, from net.Addr) *peer {
	if p := sc.peer; p == nil || p.gone.Load() || (from != sc.from && !sameAddr(from, p.addr)) {
		if sc.peer = r.peers.byAddr.get(from.String()); sc.peer != nil {
			sc.ck = append(sc.ck[:0], sc.peer.prefix...)
		}
	}
	sc.from = from
	return sc.peer
}

// sameAddr reports whether a, which is not the interface value b's record
// was last found under, is b's address all the same. Only kernel UDP
// addresses are worth telling apart without formatting them.
func sameAddr(a, b net.Addr) bool {
	ua, ok := a.(*net.UDPAddr)
	if !ok {
		return a.String() == b.String()
	}
	ub, ok := b.(*net.UDPAddr)
	return ok && udpAddrPort(ua) == udpAddrPort(ub)
}

// udpAddrPort is a's comparable form, with an IPv4 address in either of the
// two lengths net.IP holds it in mapped to the same value, as String does.
func udpAddrPort(a *net.UDPAddr) netip.AddrPort {
	ap := a.AddrPort()
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// key builds the current source's table key for key in the scratch buffer,
// valid until the next source or key. A stranger has none.
func (sc *dispatchScratch) key(key string) []byte {
	sc.ck = append(sc.ck[:len(sc.peer.prefix)], key...)
	return sc.ck
}

// handleSummaryFast absorbs a summary refresh without allocating, through
// the cheaper of two tiers that applies. A datagram whose key count and
// fold the source holds an intact lease for extends the lease and is done
// (extendLease). Otherwise the list is walked in place (wire.VisitKeyList):
// each (peer, key) composite lookup key is built in a reusable buffer, and
// a first walk looks every key up through the state table's byte-key path
// and folds the entries it finds. A datagram naming a key not held here
// renews the keys that are and NACKs the rest. One whose keys are all held
// but whose fold differs from theirs names some key at another version
// than the one held: it renews nothing and NACKs its whole list, so the
// sender re-triggers every key of it. Otherwise a second walk renews every
// entry and makes it a member of the lease the list's next datagram
// extends. Only the NACKs — rare by construction — copy anything.
func (r *Receiver) handleSummaryFast(data []byte, from net.Addr, sc *dispatchScratch) {
	if r.closed.Load() {
		return
	}
	seq, fold, n, list, err := wire.SummaryKeyList(data)
	if err != nil {
		r.ctrs.decodeErrors.Add(1)
		return
	}
	p := r.source(sc, from)
	if r.measure {
		sc.now = r.clk.Since(r.born) + 1
	}
	sc.tick, sc.arm = r.lifetime()
	leasing := p != nil && r.prof.Refresh
	if leasing && r.extendLease(sc, p, seq, fold, n) {
		r.ctrs.received[wire.TypeSummaryRefresh].Add(1)
		r.ctrs.summaryRenewals.Add(int64(n))
		r.ctrs.summaryLeased.Add(int64(n))
		return
	}
	sc.seq, sc.unknown, sc.found, sc.fold = seq, sc.unknown[:0], 0, 0
	if err := wire.VisitKeyList(seq, n, list, sc.check); err != nil {
		r.ctrs.decodeErrors.Add(1)
		return
	}
	r.ctrs.received[wire.TypeSummaryRefresh].Add(1)
	// Once per datagram, not per key: the keys (unknown ones included) the
	// walk looked up in the table's index — a stranger's are not looked up
	// at all — and the keys it renewed.
	if p != nil {
		r.ctrs.summaryIndexLookups.Add(int64(n))
	}
	switch {
	case len(sc.unknown) == 0 && sc.fold != fold:
		r.ctrs.summaryFoldMismatches.Add(1)
		_ = wire.VisitKeyList(seq, n, list, sc.list) // the list validated above
	case sc.found > 0:
		if leasing && len(sc.unknown) == 0 {
			sc.joining = r.fileLease(sc, p, seq, fold, n)
		}
		r.ctrs.summaryRenewals.Add(sc.found)
		_ = wire.VisitKeyList(seq, n, list, sc.renew)
		if sc.joining != nil {
			r.settleLease(p, sc.joining)
			sc.joining = nil
		}
	}
	unknown := sc.unknown
	for len(unknown) > 0 {
		n := wire.SummaryFits(unknown)
		if n == 0 {
			return // unreachable: NACKed keys arrived in a datagram
		}
		r.send(wire.Message{Type: wire.TypeSummaryNack, Seq: seq, Keys: unknown[:n]}, from)
		unknown = unknown[n:]
	}
}

func (r *Receiver) handle(m wire.Message, from net.Addr, sc *dispatchScratch) {
	if r.closed.Load() {
		return
	}
	r.ctrs.received[m.Type].Add(1)
	switch m.Type {
	case wire.TypeTrigger, wire.TypeRefresh:
		var now time.Duration
		if r.measure {
			now = r.clk.Since(r.born) + 1
		}
		p := r.source(sc, from)
		install := func(e *receiverEntry, created bool, tc statetable.TimerControl[receiverEntry]) {
			// Accept only non-stale payloads: a retransmitted old trigger
			// must not clobber a newer value (sequence numbers are monotone
			// within one sender session, and entries are per-sender).
			accepted := m.Seq >= e.lastSeq || created
			var old uint64 // the hash of the version an accepted change replaces
			versioned := false
			if created {
				var arm bool
				if p, arm = r.peers.install(p, from, wire.StateHash(m.Key, m.Seq, m.Value)); arm && r.prof.HardState {
					r.probeTimer.Reset(r.cfg.ProbeInterval)
				}
				e.peer = p.id
				r.trace.Record(telemetry.TraceInstall, m.Key, m.Seq, from)
				r.emit(Event{Kind: EventInstalled, Key: m.Key, Value: m.Value, Seq: m.Seq, Peer: from, Trace: m.Trace})
			} else if accepted {
				changed := !bytes.Equal(e.value, m.Value)
				if changed {
					r.emit(Event{Kind: EventUpdated, Key: m.Key, Value: m.Value, Seq: m.Seq, Peer: from, Trace: m.Trace})
				}
				if versioned = changed || e.lastSeq != m.Seq; versioned {
					old = wire.StateHash(m.Key, e.lastSeq, e.value)
				}
			}
			if accepted {
				e.lastSeq = m.Seq
				e.value = m.Value
				if r.measure {
					if !created {
						if at := r.lastRenewal(p, e); at > 0 {
							r.histJitter.Observe(now - at)
						}
					}
					e.renewedAt = now
				}
				if versioned {
					// A new version: the record's fold follows it, and the
					// entry leaves its lease, whose fold names the old one
					// (after the jitter above read the lease's stamp).
					if p == nil {
						p = r.peers.resolve(e.peer)
					}
					r.peers.refold(p, old, wire.StateHash(m.Key, m.Seq, m.Value))
					r.unlease(p, e)
				}
				if m.Trace.Sampled() {
					r.observeTrace(m, from)
				}
				if r.prof.HardState {
					// The sender is alive and owns the key.
					e.aux = 0
					if p != nil {
						p.answered(now)
					}
				}
				// Stale traffic must not renew a soft-state lifetime: if a
				// forged or mis-delivered frame ever installed a higher
				// sequence, the genuine sender's refreshes (now "stale")
				// could otherwise keep the wrong value alive forever while
				// being unable to overwrite it. Letting the entry time out
				// instead lets the next genuine refresh re-create it — the
				// soft-state repair property.
				r.armTimeout(tc)
			}
			if m.Type == wire.TypeTrigger && r.prof.ReliableTrigger {
				r.ack(wire.TypeAck, m.Seq, m.Key, p, from)
			}
		}
		// An entry that exists — every refresh, every retransmitted
		// trigger — is found straight from the scratch buffer; only a first
		// install pays for the table key string, and only a stranger's for
		// formatting its address.
		renew := func(e *receiverEntry, tc statetable.TimerControl[receiverEntry]) { install(e, false, tc) }
		if p == nil {
			r.tbl.Upsert(RKey(from, m.Key), install)
		} else if ck := sc.key(m.Key); !r.tbl.UpdateBytes(ck, renew) {
			r.tbl.Upsert(string(ck), install)
		}
	case wire.TypeRemoval:
		if r.source(sc, from) != nil {
			r.tbl.UpdateBytes(sc.key(m.Key), func(e *receiverEntry, tc statetable.TimerControl[receiverEntry]) {
				if m.Seq >= e.lastSeq {
					r.drop(e, tc, EventRemoved)
				}
			})
		}
		// ACK removals even for unknown keys: the state may have timed out
		// while the sender kept retransmitting.
		if r.prof.ReliableRemoval {
			r.ack(wire.TypeRemovalAck, m.Seq, m.Key, sc.peer, from)
		}
	case wire.TypeDigest:
		// A census audit asks for this receiver's digest of the
		// requester's keys.
		r.handleDigest(m, from, r.source(sc, from))
	case wire.TypeProbeAck:
		r.handleProbeAck(m, from, sc)
	}
	// wire.TypeSummaryRefresh never reaches here: the read loop routes it
	// to handleSummaryFast before the generic decode.
}

// observeTrace turns an accepted frame's hop-propagated trace context
// into latency observations: per-hop propagation (send stamp → now) on
// any traced frame, end-to-end install latency (origin stamp → now) on
// triggers — a trigger is the propagation wavefront; refreshes only
// re-measure their own hop. Clock skew can make a wall-clock delta
// negative across machines; those clamp to zero rather than vanish, so
// the histogram count still reflects every traced frame.
func (r *Receiver) observeTrace(m wire.Message, from net.Addr) {
	now := int64(r.clk.Now().Sub(seqEpoch)) + 1
	if r.measure {
		hop := now - m.Trace.HopNs
		if hop < 0 {
			hop = 0
		}
		r.histHop.Observe(time.Duration(hop))
		if m.Type == wire.TypeTrigger {
			e2e := now - m.Trace.OriginNs
			if e2e < 0 {
				e2e = 0
			}
			r.histE2E.Observe(time.Duration(e2e))
		}
	}
	r.trace.Record(telemetry.TraceHop, m.Key, uint64(m.Trace.Hops), from)
}

// handleDigest answers a census digest request with this receiver's
// digest of the requester's keys — scoped to the source address, since
// the auditing sender compares against its own intent for that one link.
// The fold round reads the requester's record; the other two walk its
// entries. p is the requester's record: a stranger's (nil) answer — fold
// 0, zero sums, one empty detail part — is known without walking the
// table.
func (r *Receiver) handleDigest(m wire.Message, from net.Addr, p *peer) {
	req, err := wire.ParseDigestRequest(m.Value)
	if err != nil {
		r.ctrs.decodeErrors.Add(1)
		return
	}
	// held visits the digest of every entry p holds.
	held := func(fn func(key string, sum uint64)) {
		if p != nil {
			r.digests(p, fn)
		}
	}
	reply := func(dr wire.DigestReply) {
		if val, err := dr.Encode(); err == nil {
			r.send(wire.Message{Type: wire.TypeDigestReply, Seq: m.Seq, Value: val}, from)
		}
	}
	switch req.Kind {
	case wire.DigestFold:
		var fold uint64
		if p != nil {
			r.peers.mu.RLock()
			fold = p.fold
			r.peers.mu.RUnlock()
		}
		reply(wire.DigestReply{Kind: wire.DigestFold, Fold: fold})
	case wire.DigestSummary:
		reply(wire.DigestReply{Kind: wire.DigestSummary, Sums: censusSums(held)})
	case wire.DigestDetail:
		if int(req.Bucket) >= censusBuckets {
			return
		}
		var keys []wire.DigestKeySum
		for _, kd := range censusBucketKeys(held, int(req.Bucket)) {
			keys = append(keys, wire.DigestKeySum{Key: kd.Key, Sum: kd.Sum})
		}
		// Chunk the listing to the wire budget, part count declared up
		// front so the requester knows when the answer is complete. An
		// empty bucket still answers: one empty part, so a one-sided
		// divergence (receiver holds nothing) resolves instead of
		// timing out.
		chunks := [][]wire.DigestKeySum{}
		rest := keys
		for {
			fit := wire.DigestDetailFits(rest)
			if fit <= 0 || fit >= len(rest) {
				chunks = append(chunks, rest)
				break
			}
			chunks = append(chunks, rest[:fit])
			rest = rest[fit:]
		}
		for i, c := range chunks {
			reply(wire.DigestReply{Kind: wire.DigestDetail, Bucket: req.Bucket, Part: uint16(i), Parts: uint16(len(chunks)), Keys: c})
		}
	}
}

// lifetime is the wheel tick a renewal's state timeout is now due at; ok
// is false for a profile without refresh, whose entries arm no timer (hard
// state's lifetime guard is the per-peer probe round, probe.go).
func (r *Receiver) lifetime() (tick int64, ok bool) {
	if !r.prof.Refresh {
		return 0, false
	}
	return r.tbl.DeadlineTick(r.cfg.Timeout), true
}

func (r *Receiver) armTimeout(tc statetable.TimerControl[receiverEntry]) {
	if tick, ok := r.lifetime(); ok {
		tc.ScheduleAt(timerTimeout, tick)
	}
}

// onTimeout fires when a key's state timeout expires; it runs on a shard's
// timer callback with the shard locked.
func (r *Receiver) onTimeout(_ string, _ statetable.TimerKind, e *receiverEntry, tc statetable.TimerControl[receiverEntry]) {
	if r.closed.Load() {
		return
	}
	// The entry's own timer is where the per-key path last put it; summaries
	// that extended its lease since have moved its deadline without it.
	if r.prof.Refresh && e.aux != 0 {
		if tick, _ := r.leased(r.peers.resolve(e.peer), e); tc.Ahead(tick) {
			tc.ScheduleAt(timerTimeout, tick)
			return
		}
	}
	key, peer := r.drop(e, tc, EventExpired)
	// SS+RT and SS+RTR notify the sender of timeout removals so false
	// removals are repaired promptly.
	if r.prof.ReliableTrigger {
		r.send(wire.Message{Type: wire.TypeNotify, Key: key}, peer)
	}
}

// drop removes an entry (with its place in its lease and its share of its
// peer's record) and emits the given event, returning the entry's user key
// and its sender's address; callers hold the entry's shard lock via tc.
func (r *Receiver) drop(e *receiverEntry, tc statetable.TimerControl[receiverEntry], kind EventKind) (string, net.Addr) {
	p := r.peers.resolve(e.peer)
	key, value, peer := p.userKey(tc.Key()), e.value, p.addr
	tc.Delete()
	r.unlease(p, e)
	r.peers.uninstall(p, wire.StateHash(key, e.lastSeq, value))
	if r.trace != nil {
		tk := telemetry.TraceRemoval
		switch kind {
		case EventExpired:
			tk = telemetry.TraceExpiry
		case EventOrphaned:
			tk = telemetry.TraceOrphan
		}
		r.trace.Record(tk, key, e.lastSeq, peer)
	}
	r.emit(Event{Kind: kind, Key: key, Value: value, Peer: peer})
	return key, peer
}

// unlease takes e, one of p's entries, out of its lease if it is in one; the
// entry's shard lock is held.
func (r *Receiver) unlease(p *peer, e *receiverEntry) {
	if r.prof.Refresh && e.aux != 0 {
		p.leases.mu.Lock()
		p.leases.leave(e)
		p.leases.mu.Unlock()
	}
}

// ack queues on to's record (p, if the caller has it) or, without
// coalescing, immediately sends one acknowledgement to to. The first ack
// of a batch window arms the flush.
func (r *Receiver) ack(kind wire.Type, seq uint64, key string, p *peer, to net.Addr) {
	if r.ackBW == nil {
		r.send(wire.Message{Type: kind, Seq: seq, Key: key}, to)
	} else if r.peers.queueAck(p, to, wire.AckItem{Kind: kind, Seq: seq, Key: key}) {
		r.flushTimer.Reset(r.cfg.AckFlushInterval)
	}
}

// flushAcks sends every pending coalesced acknowledgement: one ack-batch
// datagram per peer (more only if a batch overflows the wire budget),
// mirroring summary refresh on the reply path. The datagrams of one flush
// ride the batch writer, so a fan-in receiver answering many senders
// spends one write syscall per WriteBatch-ful of peers, not one per peer.
func (r *Receiver) flushAcks() {
	r.ackMu.Lock()
	defer r.ackMu.Unlock()
	r.peers.takeAcks(func(to net.Addr, items []wire.AckItem) {
		for len(items) > 0 {
			n := wire.AckBatchFits(items)
			if n == 0 {
				break // unreachable (ACKed keys arrived in a datagram);
				// abandons only this peer's batch, never the whole flush
			}
			if r.ackBW.add(wire.Message{Type: wire.TypeAckBatch, Acks: items[:n]}, to) {
				r.ctrs.coalescedAcks.Add(int64(n))
			}
			items = items[n:]
		}
	})
	r.ackBW.flush()
}
