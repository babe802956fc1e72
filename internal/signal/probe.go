package signal

import (
	"net"
	"slices"
	"sort"
	"time"

	"softstate/internal/statetable"
	"softstate/internal/wire"
)

// Hard-state liveness: the paper's HS receiver removes orphaned state when
// an external, per-link failure signal fires. Here that signal is one probe
// round per ProbeInterval, armed while any peer record holds entries. Every
// record with entries gets one peer probe carrying the record's pair — how
// many entries it holds and their fold (Σ wire.StateHash of their user
// key, seq and value) — and the sender answers with its own pair for this receiver, kept next to
// its live-key count. An answer, or any accepted trigger, clears the
// record's miss count; a record that misses MaxProbeMisses rounds is
// orphaned whole.
//
// Agreeing pairs cost nothing per key. A disagreement opens an audit: the
// following rounds probe that sender's entries one key at a time, counting
// each key's unanswered probes in receiverEntry.aux, so a key the sender no
// longer owns — an install replayed after an acked removal, or a previous
// incarnation's leftover — is still orphaned after MaxProbeMisses of them.
// An audit round that finds every held key answered settles the
// disagreement until either pair changes: a key missing here (a false
// removal whose notify was lost), or one held at another version than the
// sender's, costs one audit, not one per round.

// pair is one end's account of a sender's key set at this receiver.
type pair struct{ count, fold uint64 }

// audit is a record's disagreement state, guarded by the peer table's mu.
type audit struct {
	theirs pair // the sender's pair in its last peer probe-ack
	open   bool // theirs disagreed with ours, and no audit has settled it
	rounds int  // audit rounds run for the open disagreement
	// settled is ours and theirs when an audit last settled a
	// disagreement; zero (two equal pairs, never a disagreement) for none.
	settled [2]pair
}

// walkKind is what a probe round does to each entry of one record.
type walkKind uint8

const (
	walkOrphan     walkKind = iota + 1 // the record missed MaxProbeMisses rounds: drop every entry
	walkAuditFirst                     // an audit begins: every entry starts with one unanswered probe
	walkAudit                          // an audit goes on: entries still unanswered are probed again
)

// answered records proof that p's sender is alive at clock offset at (0
// when unmeasured).
func (p *peer) answered(at time.Duration) {
	if p.misses.Load() != 0 {
		p.misses.Store(0)
	}
	if at > 0 {
		p.answeredAt.Store(int64(at))
	}
}

// stamp is the clock offset liveness stamps use: +1 so that zero means
// unstamped, and 0 without metrics, where nothing reads it.
func (r *Receiver) stamp() time.Duration {
	if !r.measure {
		return 0
	}
	return r.clk.Since(r.born) + 1
}

// handleProbeAck takes a probe-ack from the current source: a peer
// probe-ack compares the sender's pair with the record's, a per-key one
// clears that key's miss count. Only hard state probes, and a stranger holds
// nothing to vouch for.
func (r *Receiver) handleProbeAck(m wire.Message, from net.Addr, sc *dispatchScratch) {
	if !r.prof.HardState {
		return
	}
	p := r.source(sc, from)
	if p == nil {
		return
	}
	if count, fold, ok := m.Pair(); ok {
		r.peerAnswered(p, pair{count, fold})
		return
	}
	p.answered(r.stamp())
	r.tbl.UpdateBytes(sc.key(m.Key), func(e *receiverEntry, _ statetable.TimerControl[receiverEntry]) {
		e.aux = 0
	})
}

// peerAnswered takes the sender's pair from a peer probe-ack: agreement
// ends any audit, and a disagreement opens one unless an audit already
// settled exactly this one.
func (r *Receiver) peerAnswered(p *peer, theirs pair) {
	p.answered(r.stamp())
	r.peers.mu.Lock()
	defer r.peers.mu.Unlock()
	if p.entries == 0 {
		return // holds nothing to audit (a record kept for pending acks)
	}
	a, ours := &p.audit, pair{uint64(p.entries), p.fold}
	a.theirs = theirs
	switch {
	case ours == theirs:
		a.open, a.rounds = false, 0
	case a.settled != [2]pair{ours, theirs}:
		a.open = true
	}
}

// probeRound is one liveness round, a clock callback re-armed while any
// record holds entries. Each record's miss count is judged and bumped and
// its peer probe queued under the peer table's mu; the records orphaned
// whole or audited have their entries visited after it; everything the
// round sends leaves through one batch writer.
func (r *Receiver) probeRound() {
	r.probeMu.Lock()
	defer r.probeMu.Unlock()
	if r.closed.Load() {
		return
	}
	now, limit := r.stamp(), int32(r.cfg.MaxProbeMisses)
	walk := map[uint32]walkKind{}
	var to []net.Addr
	var pairs []pair
	r.peers.mu.Lock()
	holding := r.peers.holdingLocked()
	for _, p := range holding {
		if p.misses.Load() >= limit {
			walk[p.id] = walkOrphan
			if at := p.answeredAt.Load(); now > 0 && at > 0 {
				r.histOrphan.Observe(now - time.Duration(at))
			}
			p.misses.Store(0)
			p.audit = audit{}
			continue
		}
		p.misses.Add(1)
		to, pairs = append(to, p.addr), append(pairs, pair{uint64(p.entries), p.fold})
		if p.audit.open {
			walk[p.id] = walkAudit
		}
	}
	r.peers.probing = len(holding) > 0
	r.peers.mu.Unlock()
	if len(holding) == 0 {
		return
	}
	r.probeTimer.Reset(r.cfg.ProbeInterval)
	for i, pr := range pairs {
		var v [wire.PairLen]byte
		r.probeBW.add(wire.Message{Type: wire.TypeProbe, Value: wire.AppendPair(v[:0], pr.count, pr.fold)}, to[i])
	}
	if len(walk) > 0 {
		r.walkRound(walk)
	}
	r.probeBW.flush()
}

// holdingLocked returns the records holding entries in address order, so a
// round's datagrams go out in the same order on every run; mu is held.
func (t *peerTable) holdingLocked() []*peer {
	var out []*peer
	for _, p := range t.byID {
		if p.entries > 0 {
			out = append(out, p)
		}
	}
	slices.SortFunc(out, comparePeers)
	return out
}

// walkRound visits the entries of the records walk names, in table-key
// order: one scan of the table finds them and counts each audited record's
// unanswered keys, an audited record whose previous round left none is
// settled instead, and each remaining entry is orphaned or probed.
func (r *Receiver) walkRound(walk map[uint32]walkKind) {
	var cks []string
	unanswered := map[uint32]int{}
	r.tbl.Range(func(ck string, e *receiverEntry) bool {
		if k := walk[e.peer]; k != 0 {
			cks = append(cks, ck)
			if e.aux != 0 {
				unanswered[e.peer]++
			}
		}
		return true
	})
	r.peers.mu.Lock()
	for id, k := range walk {
		if k != walkAudit {
			continue
		}
		p := r.peers.byID[id]
		switch {
		case p == nil || !p.audit.open:
			delete(walk, id) // reaped, or an answer since agreed
		case p.audit.rounds > 0 && unanswered[id] == 0:
			p.audit.settled = [2]pair{{uint64(p.entries), p.fold}, p.audit.theirs}
			p.audit.open, p.audit.rounds = false, 0
			delete(walk, id)
		default:
			if p.audit.rounds == 0 {
				walk[id] = walkAuditFirst
			}
			p.audit.rounds++
			r.ctrs.probeAudits.Add(1)
		}
	}
	r.peers.mu.Unlock()

	sort.Strings(cks)
	limit := uint32(r.cfg.MaxProbeMisses)
	visit := func(e *receiverEntry, tc statetable.TimerControl[receiverEntry]) {
		switch k := walk[e.peer]; {
		case k == 0, k == walkAudit && e.aux == 0:
			return // not walked this round, or answered
		case k == walkOrphan, k == walkAudit && e.aux >= limit:
			key, to := r.drop(e, tc, EventOrphaned)
			r.probeBW.add(wire.Message{Type: wire.TypeNotify, Key: key}, to)
			return
		case k == walkAuditFirst:
			e.aux = 1
		default:
			e.aux++
		}
		p := r.peers.resolve(e.peer)
		r.probeBW.add(wire.Message{Type: wire.TypeProbe, Seq: e.lastSeq, Key: p.userKey(tc.Key())}, p.addr)
	}
	for _, ck := range cks {
		r.tbl.Update(ck, visit)
	}
}
