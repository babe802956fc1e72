package signal

import (
	"encoding/binary"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"softstate/internal/statetable"
	"softstate/internal/wire"
)

// addrMap is the address-string → record table both ends keep their peers
// in — the sender's Session per destination, the receiver's peer record per
// source — sharded so high-rate demux lookups do not serialize on one lock.
// The zero value is ready to use.
const addrShardCount = 16

type addrMap[T any] struct {
	shards [addrShardCount]struct {
		mu sync.RWMutex
		m  map[string]*T
	}
}

func (am *addrMap[T]) get(addr string) *T {
	sh := &am.shards[statetable.Hash32(addr)%addrShardCount]
	sh.mu.RLock()
	v := sh.m[addr]
	sh.mu.RUnlock()
	return v
}

// getOrCreate returns addr's record, filing the one mk returns (under the
// shard's write lock) if there is none.
func (am *addrMap[T]) getOrCreate(addr string, mk func() *T) *T {
	if v := am.get(addr); v != nil {
		return v
	}
	sh := &am.shards[statetable.Hash32(addr)%addrShardCount]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	v := sh.m[addr]
	if v == nil {
		if sh.m == nil {
			sh.m = make(map[string]*T)
		}
		v = mk()
		sh.m[addr] = v
	}
	return v
}

// deleteIf removes every record evict, run under the shard's write lock, accepts.
func (am *addrMap[T]) deleteIf(evict func(v *T) bool) {
	for i := range am.shards {
		sh := &am.shards[i]
		sh.mu.Lock()
		for addr, v := range sh.m {
			if evict(v) {
				delete(sh.m, addr)
			}
		}
		sh.mu.Unlock()
	}
}

func (am *addrMap[T]) remove(addr string) {
	sh := &am.shards[statetable.Hash32(addr)%addrShardCount]
	sh.mu.Lock()
	delete(sh.m, addr)
	sh.mu.Unlock()
}

// len is an O(shard count) sum of map sizes: cheap enough for a gauge.
func (am *addrMap[T]) len() int {
	n := 0
	for i := range am.shards {
		sh := &am.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// all returns every record in no particular order.
func (am *addrMap[T]) all() []*T {
	var out []*T
	for i := range am.shards {
		sh := &am.shards[i]
		sh.mu.RLock()
		for _, v := range sh.m {
			out = append(out, v)
		}
		sh.mu.RUnlock()
	}
	return out
}

// idLen is the length of the record id heading a table key. Both ends key
// their state table alike: tableKey puts the 4-byte big-endian id of the
// owning record — the sender's Session, the receiver's peer — before the
// user key, so every (peer, key) pair has its own slot and timers, and an
// entry's owner is read from its key.
const idLen = 4

// tableKey is the table key of key under the record with the given id.
func tableKey(id uint32, key string) string {
	var p [idLen]byte
	binary.BigEndian.PutUint32(p[:], id)
	return string(p[:]) + key
}

// userKey strips the record id from a table key.
func userKey(ck string) string { return ck[idLen:] }

// ownerID reads the record id heading a table key.
func ownerID(ck string) uint32 { return binary.BigEndian.Uint32([]byte(ck[:idLen])) }

// peer is the receiver's record of one remote sender — the counterpart of
// the sender's Session. It exists while the address holds anything here:
// created by the first frame that installs state or queues an ack, reaped
// with the last entry and the last pending ack. Its id heads the table
// keys of its entries.
type peer struct {
	id   uint32
	addr net.Addr
	name string // addr.String(): its byAddr key, and the order records sort in
	// gone marks a reaped record: whoever remembered it looks the address
	// up again (as a Session's holder reattaches).
	gone atomic.Bool

	// Guarded by the owning table's mu.
	entries int            // installed entries under id
	pins    int            // installs between the id's lookup and their entry's filing
	fold    uint64         // Σ wire.StateHash of their (user key, seq, value), mod 2⁶⁴
	acks    []wire.AckItem // coalesced acknowledgements awaiting the next flush
	audit   audit          // hard-state pair disagreement (probe.go)

	// Hard-state liveness (probe.go): probe rounds since the sender last
	// answered, and when that was (clock offset + 1; metrics only). The
	// dispatch path clears both without mu.
	misses     atomic.Int32
	answeredAt atomic.Int64

	leases leaseSet // datagram leases over this peer's entries (lease.go)
}

// RKey names a (source, key) pair outside an endpoint — the key
// SeqSnapshot's map and the paper-metric hook use. Address strings contain
// no NUL byte on any supported transport, so the separator is unambiguous;
// a user key may itself contain NUL bytes.
func RKey(from net.Addr, key string) string { return from.String() + "\x00" + key }

// peerTable is the receiver's registry of peer records: by address for the
// dispatch path, by id for the entries.
// Records are filed and reaped under mu, so one found filed under it is
// live; byAddr's own shard locks serve the dispatch path, which reads it
// without mu. mu is a leaf under the state table's shard locks and is held
// across an address-shard lock, never the reverse.
type peerTable struct {
	byAddr addrMap[peer]

	mu     sync.RWMutex
	byID   map[uint32]*peer
	nextID uint32
	acking []*peer // records with pending acks

	// probing says a probe round is armed: under hard state (probe.go),
	// from the first entry installed until a round finds no record holding
	// one. Other profiles run no rounds, so nothing clears it.
	probing bool
}

// resolve returns the record whose id heads table key ck.
func (t *peerTable) resolve(ck string) *peer {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.byID[ownerID(ck)]
}

// lock takes mu and returns from's live record, creating it if the address
// has none; p is the record the caller remembers for from, if any. The
// caller gives the record a pin or an ack before unlocking.
func (t *peerTable) lock(p *peer, from net.Addr) *peer {
	t.mu.Lock()
	if p == nil || p.gone.Load() {
		addr := from.String()
		p = t.byAddr.getOrCreate(addr, func() *peer {
			t.nextID++
			np := &peer{id: t.nextID, addr: from, name: addr}
			t.byID[np.id] = np
			return np
		})
	}
	return p
}

// reap unfiles p if its last entry, last pin and last pending ack are
// gone; mu is held.
func (t *peerTable) reap(p *peer) {
	if p.entries == 0 && p.pins == 0 && len(p.acks) == 0 {
		p.gone.Store(true)
		delete(t.byID, p.id)
		t.byAddr.remove(p.name)
	}
}

// pin returns from's live record (p, if the caller remembers one), creating
// it if the address has none, and keeps it from being reaped until unpin:
// the caller is about to file an entry under its id.
func (t *peerTable) pin(p *peer, from net.Addr) *peer {
	p = t.lock(p, from)
	p.pins++
	t.mu.Unlock()
	return p
}

// unpin releases a pin, reaping the record if it holds nothing.
func (t *peerTable) unpin(p *peer) {
	t.mu.Lock()
	p.pins--
	t.reap(p)
	t.mu.Unlock()
}

// install counts one more entry under p, which the caller pinned, folding
// in hash, the StateHash of its user key, seq and value. arm reports that
// the entry is the first any record holds since the probe round last
// stopped: a hard-state caller arms the round.
func (t *peerTable) install(p *peer, hash uint64) (arm bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p.entries++
	p.fold += hash
	arm, t.probing = !t.probing, true
	return arm
}

// refold swaps one of p's entries' hash in its fold, after an accepted
// change of the entry's seq or value.
func (t *peerTable) refold(p *peer, old, hash uint64) {
	t.mu.Lock()
	p.fold += hash - old
	t.mu.Unlock()
}

// uninstall is install's inverse for p's entry with the given hash being
// dropped.
func (t *peerTable) uninstall(p *peer, hash uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p.entries--
	p.fold -= hash
	t.reap(p)
}

// sorted returns every record in address order: the order any-sender
// lookups try the senders in, so which of several holders of one key
// answers does not depend on arrival order.
func (t *peerTable) sorted() []*peer {
	all := t.byAddr.all()
	slices.SortFunc(all, comparePeers)
	return all
}

func comparePeers(a, b *peer) int { return strings.Compare(a.name, b.name) }

// queueAck files one acknowledgement under from's record and reports
// whether no record had any pending: the caller arms the flush on that
// transition, so nothing is armed while no replies are pending.
func (t *peerTable) queueAck(p *peer, from net.Addr, item wire.AckItem) (first bool) {
	p = t.lock(p, from)
	defer t.mu.Unlock()
	if len(p.acks) == 0 {
		first = len(t.acking) == 0
		t.acking = append(t.acking, p)
	}
	p.acks = append(p.acks, item)
	return first
}

// takeAcks hands every pending acknowledgement to send, one call per
// record in address order, so the reply sequence does not depend on
// arrival order (virtual runs replay byte for byte).
func (t *peerTable) takeAcks(send func(to net.Addr, items []wire.AckItem)) {
	t.mu.Lock()
	acking := t.acking
	t.acking = nil
	batches := make([][]wire.AckItem, len(acking))
	slices.SortFunc(acking, comparePeers)
	for i, p := range acking {
		batches[i], p.acks = p.acks, nil
		t.reap(p)
	}
	t.mu.Unlock()
	for i, p := range acking {
		send(p.addr, batches[i])
	}
}
