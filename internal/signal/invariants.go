package signal

import (
	"fmt"
	"net"
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
//   - the secondary key index and the state table agree entry for entry
//     (same size, and every indexed (source, key) resolves in the table);
//   - the armed-timer census matches the profile — hard state arms
//     exactly one probe timer per entry and no timeouts, refresh
//     profiles exactly one state-timeout per entry and no probes.
func (r *Receiver) CheckInvariants() []string {
	var bad []string
	tblLen := r.tbl.Len()

	// Snapshot the index under its own lock, then verify against the
	// table lock-free of it: idx.mu is a leaf lock under the table's
	// shard locks, so holding it across tbl.Get could deadlock.
	r.idx.mu.Lock()
	idxTotal := 0
	cks := make([]string, 0, tblLen)
	for _, holders := range r.idx.m {
		idxTotal += len(holders)
		cks = append(cks, holders...)
	}
	r.idx.mu.Unlock()
	if idxTotal != tblLen {
		bad = append(bad, fmt.Sprintf("receiver: key index holds %d entries, state table holds %d", idxTotal, tblLen))
	}
	for _, ck := range cks {
		if _, ok := r.tbl.Get(ck); !ok {
			bad = append(bad, fmt.Sprintf("receiver: key index references missing table entry %q", ck))
		}
	}

	armed := r.tbl.TimersArmed()
	switch {
	case r.prof.HardState:
		if armed[timerProbe] != tblLen {
			bad = append(bad, fmt.Sprintf("receiver: hard state armed %d probe timers for %d entries", armed[timerProbe], tblLen))
		}
		if armed[timerTimeout] != 0 {
			bad = append(bad, fmt.Sprintf("receiver: hard state armed %d state-timeout timers", armed[timerTimeout]))
		}
	case r.prof.Refresh:
		if armed[timerTimeout] != tblLen {
			bad = append(bad, fmt.Sprintf("receiver: soft state armed %d state-timeout timers for %d entries", armed[timerTimeout], tblLen))
		}
		if armed[timerProbe] != 0 {
			bad = append(bad, fmt.Sprintf("receiver: soft state armed %d probe timers", armed[timerProbe]))
		}
	default:
		if armed[timerTimeout]+armed[timerProbe] != 0 {
			bad = append(bad, fmt.Sprintf("receiver: timerless profile armed %d timers", armed[timerTimeout]+armed[timerProbe]))
		}
	}
	return bad
}

// RKey returns the composite (source, key) identifier SeqSnapshot keys
// its map with, so external auditors (the chaos engine) can correlate
// lifecycle events with snapshot entries.
func RKey(from net.Addr, key string) string { return rkey(from.String(), key) }

// SeqSnapshot returns the per-(source, key) sequence high-water marks,
// keyed by the composite table key. The chaos engine diffs successive
// snapshots to prove no accepted message ever moved a source's sequence
// space backward.
func (r *Receiver) SeqSnapshot() map[string]uint64 {
	out := make(map[string]uint64, r.tbl.Len())
	r.tbl.Range(func(ck string, e *receiverEntry) bool {
		out[ck] = e.lastSeq
		return true
	})
	return out
}

// CheckInvariants audits the sender core's internal consistency:
//
//   - the live-key gauge equals the table's census of non-removing
//     entries, globally and per session (and per-session tabled counts —
//     the idle-eviction guard — match the table exactly);
//   - every entry's owning session is either registered in the peer
//     table or marked evicted;
//   - the armed-timer census matches the mechanisms: per-key refresh
//     mode arms exactly one refresh timer per live key, summary mode
//     arms none, and profiles without reliable delivery arm no
//     retransmit timers.
func (ss *Sessions) CheckInvariants() []string {
	var bad []string
	type tally struct{ tabled, live int64 }
	counts := make(map[*Session]*tally)
	var totalLive int64
	tblLen := 0
	ss.tbl.Range(func(_ string, e *senderEntry) bool {
		tblLen++
		c := counts[e.sess]
		if c == nil {
			c = &tally{}
			counts[e.sess] = c
		}
		c.tabled++
		if !e.removing {
			c.live++
			totalLive++
		}
		return true
	})
	if got := ss.live.Load(); got != totalLive {
		bad = append(bad, fmt.Sprintf("sender: live gauge %d, table holds %d non-removing entries", got, totalLive))
	}
	for _, s := range ss.Peers() {
		c := counts[s]
		if c == nil {
			c = &tally{}
		}
		if got := s.tabled.Load(); got != c.tabled {
			bad = append(bad, fmt.Sprintf("sender: session %d tabled counter %d, table holds %d of its entries", s.id, got, c.tabled))
		}
		if got := s.live.Load(); got != c.live {
			bad = append(bad, fmt.Sprintf("sender: session %d live counter %d, table holds %d of its live keys", s.id, got, c.live))
		}
		delete(counts, s)
	}
	for s, c := range counts {
		if !s.gone.Load() {
			bad = append(bad, fmt.Sprintf("sender: session %d owns %d entries but is missing from the peer table", s.id, c.tabled))
		}
	}

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
