package signal

import (
	"sync"
	"time"
)

// Datagram leases are the upper of the two tiers of summary renewal, in
// front of the walk through the index. A sender in steady state repeats each
// summary datagram's key list and its fold — the sum of wire.StateHash over
// the listed keys at the sender's versions — so once a list has come
// through the per-key path with every key found at the sender's version and
// renewed, the receiver files a lease under the list's fold and makes every
// entry it renewed a member. From then on a datagram carrying the same key
// count and fold extends the lease — one (tick, seq) store under the peer's
// lease mutex — and touches no entry, shard lock or timer node. The lease
// keeps no copy of the list: the fold names the keys and their versions
// both.
//
// Soft state needs only that state not re-announced within T disappears,
// and that is kept lazily, as the wheel keeps a renewed deadline: an entry's
// own state-timeout still fires where the per-key path last put it, and
// onTimeout re-arms it to its lease's tick instead of expiring it when the
// lease's sequence number passes the entry's staleness guard. An entry's
// deadline is the later of its own timer and its lease's tick, which is
// what per-key renewal by the same datagrams would have left.
//
// An intact lease's members are exactly the entries of its key list, at the
// versions the fold names: a lease is intact only while members == n,
// building one attaches only entries found under the list's keys, and any
// later change of membership — an entry dropped, or an accepted change of
// an entry's seq or value, which takes the entry out — breaks it. A broken
// lease is forgotten by fold at once, so its datagram falls back to the
// per-key path (which builds a new lease when the list settles again); its
// header stays, with the last deadline it was given, until its last member
// leaves.
//
// A sweep's datagrams arrive in the order the last sweep's did, so leases are
// expected in that order: a datagram is first compared with the lease
// extended after the last one last time, and only looked up by fold, and the
// successor corrected, if that fails.
//
// Hard state never sweeps, so only refresh profiles lease, and the entry
// names its lease in the word hard state counts probe misses in.

// lease is one key list's shared renewal. Every field is guarded by the
// owning peer's leaseSet.mu.
type lease struct {
	fold    uint64 // the list's fold, which byFold files it under while intact
	id      uint32 // what members' entries call it
	n       uint16 // keys in the list (at most wire.MaxSummaryKeys)
	members uint16 // entries naming id: at most one per distinct key of the list
	broken  bool
	// tick and seq are the newest covering datagram's deadline and sequence
	// number; renewedAt is when it came (metrics only, as in receiverEntry).
	tick      int64
	seq       uint64
	renewedAt time.Duration
	// next is the lease that was extended after this one last time, where the
	// peer's next datagram is looked for first; nil once broken.
	next *lease
}

// leaseSet is one peer's leases. mu is a leaf: it is taken under a state
// table shard lock (expiry, drops, attaching) or under nothing (extending),
// and nothing is taken under it.
type leaseSet struct {
	mu     sync.Mutex
	byID   []*lease          // by id, broken ones included; byID[0] is never used: 0 names no lease
	free   []uint32          // ids whose lease is gone
	byFold map[uint64]*lease // the intact ones, by fold
	last   *lease            // the one extended last, nil or intact
}

// file gives l an id and files it, replacing (and breaking) any lease
// already filed under its fold.
func (ls *leaseSet) file(l *lease) {
	if old := ls.byFold[l.fold]; old != nil {
		ls.breakLease(old)
	}
	if n := len(ls.free); n > 0 {
		l.id, ls.free = ls.free[n-1], ls.free[:n-1]
		ls.byID[l.id] = l
	} else {
		if ls.byID == nil {
			ls.byID, ls.byFold = make([]*lease, 1), make(map[uint64]*lease)
		}
		l.id = uint32(len(ls.byID))
		ls.byID = append(ls.byID, l)
	}
	ls.byFold[l.fold] = l
}

// breakLease unfiles l if it is intact, and forgets the lease altogether
// once no entry names it. A broken lease keeps no successor and is not the
// set's last, so broken headers never chain: an intact lease that still
// expects one keeps only it alive, until its own next extension.
func (ls *leaseSet) breakLease(l *lease) {
	if !l.broken {
		l.broken, l.next = true, nil
		delete(ls.byFold, l.fold)
		if ls.last == l {
			ls.last = nil
		}
	}
	if l.members == 0 && ls.byID[l.id] == l {
		ls.byID[l.id] = nil
		ls.free = append(ls.free, l.id)
	}
}

// holds reports whether l is an intact lease over a list of n keys with
// the given fold.
func (l *lease) holds(n int, fold uint64) bool {
	return l != nil && !l.broken && int(l.n) == n && l.fold == fold
}

// extendLease is the lease tier of handleSummaryFast: if p holds an intact
// lease for the datagram's key count and fold and its sequence number is not
// behind the lease's, the lease takes the datagram's deadline and the
// datagram is done. The lease is the successor of the one extended last if
// that holds the list, else the one filed under the fold, which becomes the
// successor. It reports whether that happened; the scratch carries the
// datagram's lifetime and clock reading.
func (r *Receiver) extendLease(sc *dispatchScratch, p *peer, seq, fold uint64, n int) bool {
	ls := &p.leases
	ls.mu.Lock()
	defer ls.mu.Unlock()
	var l *lease
	prev := ls.last
	if prev != nil {
		l = prev.next
	}
	if !l.holds(n, fold) {
		r.ctrs.summaryLeaseLookups.Add(1)
		if l = ls.byFold[fold]; !l.holds(n, fold) {
			return false
		}
		if prev != nil {
			prev.next = l
		}
	}
	if l.members != l.n || seq < l.seq {
		return false
	}
	ls.last = l
	l.tick, l.seq = sc.tick, seq
	if r.measure {
		r.histJitter.ObserveN(sc.now-l.renewedAt, int64(n))
		l.renewedAt = sc.now
	}
	return true
}

// fileLease files the lease the entries of a list of n keys with the given
// fold join while the walk that found them all at the sender's versions
// renews them, and returns it; nil if p holds it intact already (the
// datagram was only too old to extend it).
func (r *Receiver) fileLease(sc *dispatchScratch, p *peer, seq, fold uint64, n int) *lease {
	ls := &p.leases
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.byFold[fold].holds(n, fold) {
		return nil
	}
	l := &lease{fold: fold, n: uint16(n), tick: sc.tick, seq: seq, renewedAt: sc.now}
	ls.file(l)
	return l
}

// settleLease ends the walk that built l: the lease is usable only if the
// walk ended with one member per key. A list naming a key twice, or an
// entry dropped or overtaken by a newer trigger meanwhile, leaves it broken.
func (r *Receiver) settleLease(p *peer, l *lease) {
	ls := &p.leases
	ls.mu.Lock()
	if l.members != l.n {
		ls.breakLease(l)
	}
	ls.mu.Unlock()
}

// join is the building walk's per-entry step, under the entry's shard lock,
// for an entry the walk just renewed. An entry that joins leaves the lease
// it was in. Nothing of that lease's deadline is lost with it: the renewal
// put the entry's own timer at this datagram's deadline, and the lease it
// leaves was last extended by an earlier one.
func (r *Receiver) join(sc *dispatchScratch, e *receiverEntry) {
	l := sc.joining
	if e.aux == l.id {
		return
	}
	ls := &sc.peer.leases
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if l.broken {
		return // broken under the walk
	}
	if e.aux != 0 {
		ls.leave(e)
	}
	e.aux = l.id
	l.members++
}

// leave takes e out of the lease it names, which breaks that lease; mu and
// the entry's shard lock are held.
func (ls *leaseSet) leave(e *receiverEntry) {
	l := ls.byID[e.aux]
	e.aux = 0
	l.members--
	ls.breakLease(l)
}

// leased returns what e's lease last recorded: the deadline tick it extends
// e to, if its sequence number passes e's staleness guard (0 if not), and
// when its last covering datagram came. The entry's shard lock is held.
func (r *Receiver) leased(p *peer, e *receiverEntry) (tick int64, renewedAt time.Duration) {
	ls := &p.leases
	ls.mu.Lock()
	defer ls.mu.Unlock()
	l := ls.byID[e.aux]
	if l.seq >= e.lastSeq {
		tick = l.tick
	}
	return tick, l.renewedAt
}

// lastRenewal is when e was last renewed, by its own frames or through its
// lease (metrics only); 0 means never stamped.
func (r *Receiver) lastRenewal(p *peer, e *receiverEntry) time.Duration {
	at := e.renewedAt
	if r.prof.Refresh && e.aux != 0 {
		if _, leasedAt := r.leased(p, e); leasedAt > at {
			at = leasedAt
		}
	}
	return at
}
