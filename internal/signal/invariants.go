package signal

import (
	"fmt"

	"softstate/internal/statetable"
	"softstate/internal/wire"
)

// Invariant checking: every structural promise the sender and receiver
// make about their own state, audited on demand. The chaos engine runs
// these after every adversarial step, tests call them instead of
// re-deriving ad-hoc table/counter comparisons, and `signald -debug`
// exposes them on the introspection surface. A nil return means every
// invariant holds; otherwise each string describes one violation.
//
// The checks are exact when the caller holds the system quiescent (a
// parked virtual clock, or a closed endpoint); under live concurrent
// traffic the counter comparisons are advisory, since the table walk and
// the atomic counters are read at slightly different instants.

// CheckInvariants audits the receiver's internal consistency:
//
//   - the peer records account for the table: their entry counts sum to the
//     table size, and none holds neither an entry, a pin nor a pending ack;
//   - every record's pair — its entry count and fold — is the pair
//     recomputed from scratch over the entries naming it;
//   - the datagram leases account for their members (refresh profiles):
//     every entry that names a lease names one its peer has, a lease's
//     member count is the number of entries naming it, none is kept with
//     no member, an intact one is filed under its fold, has exactly one
//     member per key and its members' versions fold to its fold, and a
//     broken one is neither expected next by the set nor expects a
//     successor itself;
//   - under hard state the probe round is armed while any entry exists;
//   - the armed-timer census matches the profile — refresh profiles arm
//     exactly one state-timeout per entry, every other profile (hard state
//     included) no per-entry timer at all.
func (r *Receiver) CheckInvariants() []string {
	var bad []string
	tblLen := r.tbl.Len()

	type leaseName struct{ peer, lease uint32 }
	naming := map[leaseName]pair{} // the entries naming each lease: how many, and their fold
	tally := map[uint32]pair{}     // each record's pair, recomputed
	r.tbl.Range(func(ck string, e *receiverEntry) bool {
		id := ownerID(ck)
		hash := wire.StateHash(userKey(ck), e.lastSeq, e.value)
		t := tally[id]
		tally[id] = pair{t.count + 1, t.fold + hash}
		if r.prof.Refresh && e.aux != 0 {
			name := leaseName{id, e.aux}
			n := naming[name]
			naming[name] = pair{n.count + 1, n.fold + hash}
		}
		return true
	})
	held := 0
	r.peers.mu.RLock()
	if r.prof.HardState && tblLen > 0 && !r.peers.probing {
		bad = append(bad, fmt.Sprintf("receiver: %d entries held and no probe round armed", tblLen))
	}
	for _, p := range r.peers.byAddr.all() {
		held += p.entries
		if p.entries <= 0 && p.pins == 0 && len(p.acks) == 0 {
			bad = append(bad, fmt.Sprintf("receiver: peer %d (%s) holds %d entries and no pending ack", p.id, p.addr, p.entries))
		}
		if ours := (pair{uint64(p.entries), p.fold}); ours != tally[p.id] {
			bad = append(bad, fmt.Sprintf("receiver: peer %d pairs (%d, %x), its entries (%d, %x)", p.id, ours.count, ours.fold, tally[p.id].count, tally[p.id].fold))
		}
		ls := &p.leases
		ls.mu.Lock()
		for id, l := range ls.byID {
			if l == nil {
				continue
			}
			name := leaseName{p.id, uint32(id)}
			got := naming[name]
			if got.count != uint64(l.members) || got.count == 0 {
				bad = append(bad, fmt.Sprintf("receiver: peer %d lease %d counts %d members, %d entries name it", p.id, id, l.members, got.count))
			}
			delete(naming, name)
			if !l.broken && (l.members != l.n || ls.byFold[l.fold] != l) {
				bad = append(bad, fmt.Sprintf("receiver: peer %d lease %d over %d keys has %d members, or is not filed under its fold", p.id, id, l.n, l.members))
			}
			if !l.broken && got.fold != l.fold {
				bad = append(bad, fmt.Sprintf("receiver: peer %d lease %d folds %x, its members %x", p.id, id, l.fold, got.fold))
			}
			if l.broken && (l.next != nil || ls.last == l) {
				bad = append(bad, fmt.Sprintf("receiver: peer %d lease %d is broken and still in the sweep order", p.id, id))
			}
		}
		for fold, l := range ls.byFold {
			if l.broken || l.fold != fold || int(l.id) >= len(ls.byID) || ls.byID[l.id] != l {
				bad = append(bad, fmt.Sprintf("receiver: peer %d files lease %d under fold %x, which it does not hold intact", p.id, l.id, fold))
			}
		}
		ls.mu.Unlock()
	}
	r.peers.mu.RUnlock()
	for name, n := range naming {
		bad = append(bad, fmt.Sprintf("receiver: %d entries of peer %d name lease %d, which it does not have", n.count, name.peer, name.lease))
	}
	if held != tblLen {
		bad = append(bad, fmt.Sprintf("receiver: peer records count %d entries, state table holds %d", held, tblLen))
	}

	var want [statetable.NumTimerKinds]int
	if r.prof.Refresh {
		want[timerTimeout] = tblLen
	}
	if armed := r.tbl.TimersArmed(); armed != want {
		bad = append(bad, fmt.Sprintf("receiver: %s armed %v timers per kind for %d entries, want %v",
			r.prof.Name, armed, tblLen, want))
	}
	return bad
}

// SeqSnapshot returns the per-(source, key) sequence high-water marks,
// keyed by RKey. The chaos engine diffs successive snapshots to prove no
// accepted message ever moved a source's sequence space backward.
func (r *Receiver) SeqSnapshot() map[string]uint64 {
	out := make(map[string]uint64, r.tbl.Len())
	r.tbl.Range(func(ck string, e *receiverEntry) bool {
		if p := r.peers.resolve(ck); p != nil {
			out[RKey(p.addr, userKey(ck))] = e.lastSeq
		}
		return true
	})
	return out
}

// CheckInvariants audits the sender core's internal consistency:
//
//   - the live-key gauge equals the table's census of non-removing
//     entries, globally and per session (and per-session tabled counts —
//     the idle-eviction guard — match the table exactly), and each
//     session's fold is its live keys' fold recomputed from scratch;
//   - every entry's session id resolves to a filed Session, which is
//     registered in the peer table or marked evicted, and every session
//     in the peer table is filed under its id;
//   - the armed-timer census matches the mechanisms: per-key refresh
//     mode arms exactly one refresh timer per live key, summary mode
//     arms none, and profiles without reliable delivery arm no
//     retransmit timers.
func (ss *Sessions) CheckInvariants() []string {
	var bad []string
	type tally struct {
		tabled, live int64
		fold         uint64
	}
	counts := make(map[uint32]*tally) // by session id
	var totalLive int64
	tblLen := 0
	ss.tbl.Range(func(ck string, e *senderEntry) bool {
		tblLen++
		id := ownerID(ck)
		c := counts[id]
		if c == nil {
			c = &tally{}
			counts[id] = c
		}
		c.tabled++
		if !e.removing {
			c.live++
			totalLive++
			c.fold += wire.StateHash(userKey(ck), e.seq, e.value)
		}
		return true
	})
	if got := ss.live.Load(); got != totalLive {
		bad = append(bad, fmt.Sprintf("sender: live gauge %d, table holds %d non-removing entries", got, totalLive))
	}
	peers := ss.Peers() // before byIDMu: it is a leaf under the peer table's locks
	ss.byIDMu.RLock()
	for _, s := range peers {
		if ss.byID[s.id] != s {
			bad = append(bad, fmt.Sprintf("sender: session %d (%s) is in the peer table but not filed under its id", s.id, s.peer))
		}
		c := counts[s.id]
		if c == nil {
			c = &tally{}
		}
		if got := s.tabled.Load(); got != c.tabled {
			bad = append(bad, fmt.Sprintf("sender: session %d tabled counter %d, table holds %d of its entries", s.id, got, c.tabled))
		}
		if got := s.live.Load(); got != c.live {
			bad = append(bad, fmt.Sprintf("sender: session %d live counter %d, table holds %d of its live keys", s.id, got, c.live))
		}
		if got := s.fold.Load(); got != c.fold {
			bad = append(bad, fmt.Sprintf("sender: session %d folds %x, its live keys fold %x", s.id, got, c.fold))
		}
		delete(counts, s.id)
	}
	for id, c := range counts {
		switch s := ss.byID[id]; {
		case s == nil:
			bad = append(bad, fmt.Sprintf("sender: %d entries name session %d, which is not filed", c.tabled, id))
		case !s.gone.Load():
			bad = append(bad, fmt.Sprintf("sender: session %d owns %d entries but is missing from the peer table", id, c.tabled))
		}
	}
	ss.byIDMu.RUnlock()

	armed := ss.tbl.TimersArmed()
	if ss.prof.Refresh && !ss.summaryMode() {
		if int64(armed[timerRefresh]) != totalLive {
			bad = append(bad, fmt.Sprintf("sender: %d refresh timers armed for %d live keys", armed[timerRefresh], totalLive))
		}
	} else if armed[timerRefresh] != 0 {
		bad = append(bad, fmt.Sprintf("sender: %d refresh timers armed outside per-key refresh mode", armed[timerRefresh]))
	}
	if !ss.prof.ReliableTrigger && !ss.prof.ReliableRemoval && armed[timerRetx] != 0 {
		bad = append(bad, fmt.Sprintf("sender: %d retransmit timers armed without reliable delivery", armed[timerRetx]))
	}
	if armed[timerRetx] > tblLen {
		bad = append(bad, fmt.Sprintf("sender: %d retransmit timers armed for %d entries", armed[timerRetx], tblLen))
	}
	return bad
}

// CheckInvariants audits the sender's session core; see
// Sessions.CheckInvariants.
func (s *Sender) CheckInvariants() []string { return s.ss.CheckInvariants() }
