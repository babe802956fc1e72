package signal

import (
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"softstate/internal/clock"
	"softstate/internal/telemetry"
	"softstate/internal/wire"
)

// leaseCensus counts the receiver's lease state from both sides: the
// members its lease headers claim, the entries that name a lease, the
// headers kept, how many of them are intact, and the slots of the per-peer
// id tables.
type leaseCensus struct {
	members, naming, headers, intact, idSlots int
}

func (r *Receiver) leaseCensus() (c leaseCensus) {
	r.tbl.Range(func(_ string, e *receiverEntry) bool {
		if e.aux != 0 {
			c.naming++
		}
		return true
	})
	for _, p := range r.peers.byAddr.all() {
		ls := &p.leases
		ls.mu.Lock()
		c.idSlots += len(ls.byID)
		for _, l := range ls.byID {
			if l != nil {
				c.headers++
				c.members += int(l.members)
				if !l.broken {
					c.intact++
				}
			}
		}
		ls.mu.Unlock()
	}
	return c
}

// expiry is one EventExpired: whose key, and the virtual time it fired at.
type expiry struct {
	peer, key string
	at        time.Duration
}

func sortExpiries(es []expiry) {
	sort.Slice(es, func(i, j int) bool {
		a, b := es[i], es[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.peer != b.peer {
			return a.peer < b.peer
		}
		return a.key < b.key
	})
}

// leaseRig is a summaryRig that remembers when each entry expired.
type leaseRig struct {
	*summaryRig
	start   time.Time
	expired []expiry
}

func newLeaseRig(t *testing.T) *leaseRig {
	g := &leaseRig{}
	g.summaryRig = newSummaryRig(t, func(cfg *Config) {
		cfg.OnEvent = func(ev Event) {
			if ev.Kind == EventExpired {
				g.expired = append(g.expired, expiry{ev.Peer.String(), ev.Key, g.clk.Since(g.start)})
			}
		}
	})
	g.start = g.clk.Now()
	return g
}

func (g *leaseRig) now() time.Duration { return g.clk.Since(g.start) }

func (g *leaseRig) leasedKeys() int { return g.rcv.Stats().SummaryLeasedKeys }

// The lease model: a byte script drives two peers that share their user
// keys against one receiver, and a plain map of (peer, key) → (deadline,
// lastSeq, value) in the test applies the per-key rule to the same frames:
// a summary renews the keys it names unless the model holds every one of
// them and their versions fold to another fold than the datagram carries,
// when it renews none and is NACKed whole. Leases are an implementation of
// that rule, so after every operation the receiver must hold exactly the
// model's keys at the model's values, have NACKed exactly the keys the
// model did, have extended a lease only over a datagram the model renewed
// whole, and have expired exactly the model's entries at exactly the
// model's deadlines.

const modelKeys = 8

var modelPeers = [2]testAddr{"10.0.0.1:7000", "10.0.0.2:7000"}

// modelLists are the summary compositions a script picks from: two disjoint
// halves (the steady sweep), one shifted by a key, one reordered, one naming
// a key twice, and everything at once.
var modelLists = [][]int{
	{0, 1, 2, 3},
	{4, 5, 6, 7},
	{1, 2, 3, 4},
	{3, 2, 1, 0},
	{0, 1, 1, 3},
	{0, 1, 2, 3, 4, 5, 6, 7},
}

// modelSweep is the sweep the order-bearing operations deliver: four
// datagrams of two keys, so that "the datagram after this one" means
// something. The successor pointers are an implementation of "look the list
// up by its fold", as leases are of the per-key rule.
var modelSweep = [][]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}}

type modelEntry struct {
	deadline time.Duration
	lastSeq  uint64
	value    string
}

type modelKey struct {
	peer int
	key  string
}

type leaseModel struct {
	g      *leaseRig
	T      time.Duration
	held   map[modelKey]*modelEntry
	seq    [2]uint64       // each peer's newest sequence number
	replay [2]wire.Message // each peer's last summary, for replays
	swept  [2]int          // the modelSweep datagram each peer sent last
	op     int
	what   string
	// hashed makes the receiver forget its successor pointers before every
	// frame, so that every lease is found by its list's fold: the
	// reference the pointers are compared with.
	hashed bool
}

func modelKeyName(i int) string { return fmt.Sprintf("flow/%d", i) }

// Script operations, two bytes each: the operation, then its argument.
const (
	opSummary = iota
	opTrigger
	opRemoval
	opFalseRemoval
	opAdvance
	opSweep     // modelSweep from one peer: in order, permuted, one dropped or one repeated
	opBreakNext // the datagram a peer's sweep would send next loses a key and gets it back
	opNewValue  // a peer gives a key a new value, its trigger delivered or lost, and sweeps its half unchanged
	numOps
)

// Sweep deliveries.
const (
	sweepInOrder = iota
	sweepPermuted
	sweepDropOne
	sweepRepeatOne
)

// Summary sequence-number choices.
const (
	seqCurrent = iota // the peer's newest: what a sender in steady state stamps
	seqNewer          // one past it
	seqBehind         // one behind it: not behind a lease, behind a just-triggered key
	seqAncient        // older than every install
	numSeqs
)

func sumOp(peer, list, seq int) []byte {
	return []byte{opSummary, byte(peer | list<<1 | seq<<4)}
}
func replayOp(peer int) []byte { return []byte{opSummary, byte(peer | len(modelLists)<<1)} }
func trigOp(peer, key int, stale bool) []byte {
	b := byte(peer | key<<1)
	if stale {
		b |= 1 << 4
	}
	return []byte{opTrigger, b}
}
func remOp(peer, key int, stale bool) []byte {
	b := byte(peer | key<<1)
	if stale {
		b |= 1 << 4
	}
	return []byte{opRemoval, b}
}
func falseRemOp(key int) []byte { return []byte{opFalseRemoval, byte(key)} }
func advOp(ms int) []byte       { return []byte{opAdvance, byte(ms - 1)} }
func sweepOp(peer, how, pick int) []byte {
	return []byte{opSweep, byte(peer | how<<1 | pick<<3)}
}
func breakNextOp(peer int) []byte { return []byte{opBreakNext, byte(peer)} }
func newValueOp(peer, key int, lost bool) []byte {
	b := byte(peer | key<<1)
	if lost {
		b |= 1 << 4
	}
	return []byte{opNewValue, b}
}

func script(ops ...[]byte) []byte { return slices.Concat(ops...) }

func times(n int, ops ...[]byte) (out []byte) {
	for i := 0; i < n; i++ {
		out = append(out, slices.Concat(ops...)...)
	}
	return out
}

func installAll() []byte {
	var out []byte
	for p := range modelPeers {
		for k := 0; k < modelKeys; k++ {
			out = append(out, trigOp(p, k, false)...)
		}
	}
	return out
}

// steadySweep is both peers' two-datagram sweep at their current sequence
// numbers, interleaved, and 20 ms of time.
func steadySweep() []byte {
	return script(sumOp(0, 0, seqCurrent), sumOp(1, 0, seqCurrent), sumOp(0, 1, seqCurrent), sumOp(1, 1, seqCurrent), advOp(20))
}

// orderedSweep is both peers' four-datagram sweep in order, and 20 ms.
func orderedSweep() []byte {
	return script(sweepOp(0, sweepInOrder, 0), sweepOp(1, sweepInOrder, 0), advOp(20))
}

// runLeaseScript plays a script against a fresh receiver and model, twice:
// as the read loop would, and with every lease found by its fold. Both must
// agree with the model after every operation, and with each other on how
// many keys were renewed through a lease, which is returned.
func runLeaseScript(t *testing.T, sc []byte) int {
	t.Helper()
	play := func(hashed bool) Stats {
		m := &leaseModel{g: newLeaseRig(t), T: fastConfig(SS).Timeout, held: map[modelKey]*modelEntry{}, hashed: hashed}
		m.seq = [2]uint64{10, 10}
		for sc := sc; len(sc) >= 2; sc = sc[2:] {
			m.op++
			m.step(sc[0]%numOps, int(sc[1]))
			m.check()
		}
		return m.g.rcv.Stats()
	}
	got, want := play(false), play(true)
	if got.SummaryLeasedKeys != want.SummaryLeasedKeys || got.SummaryLeaseLookups > want.SummaryLeaseLookups {
		t.Fatalf("%d keys renewed through a lease with %d folds looked up; with every fold looked up (%d), %d",
			got.SummaryLeasedKeys, got.SummaryLeaseLookups, want.SummaryLeaseLookups, want.SummaryLeasedKeys)
	}
	return got.SummaryLeasedKeys
}

// frame delivers one frame, to a receiver that expects no lease in
// particular if the run is the hashed one.
func (m *leaseModel) frame(from net.Addr, msg wire.Message) {
	if m.hashed {
		for _, p := range m.g.rcv.peers.byAddr.all() {
			p.leases.mu.Lock()
			p.leases.last = nil
			p.leases.mu.Unlock()
		}
	}
	m.g.frame(from, msg)
}

// summary delivers one summary refresh to the receiver and the model,
// holds the receiver's NACKs against the model's, and returns them. A lease
// may renew the datagram only where the model renews all of it.
func (m *leaseModel) summary(peer int, d wire.Message) (nacked []string) {
	g := m.g
	var unknown []string
	var fold uint64
	for _, k := range d.Keys {
		if e := m.held[modelKey{peer, k}]; e == nil {
			unknown = append(unknown, k)
		} else {
			fold += wire.StateHash(k, e.lastSeq, []byte(e.value))
		}
	}
	whole := unknown == nil && fold == d.Fold
	if unknown == nil && !whole {
		unknown = d.Keys // every key held, some at another version: NACKed whole
	} else {
		for _, k := range d.Keys {
			if e := m.held[modelKey{peer, k}]; e != nil && d.Seq >= e.lastSeq {
				e.deadline = g.now() + m.T
			}
		}
	}
	leased := g.leasedKeys()
	m.frame(modelPeers[peer], d)
	if g.leasedKeys() != leased && !whole {
		g.t.Fatalf("op %d (%s): a lease renewed a datagram the model does not renew whole", m.op, m.what)
	}
	for _, c := range g.conn.take() {
		if c.m.Type != wire.TypeSummaryNack || c.to != modelPeers[peer] {
			g.t.Fatalf("op %d (%s): answered with a %v to %v", m.op, m.what, c.m.Type, c.to)
		}
		nacked = append(nacked, c.m.Keys...)
	}
	if !slices.Equal(nacked, unknown) {
		g.t.Fatalf("op %d (%s): NACKed %v, the model %v", m.op, m.what, nacked, unknown)
	}
	return nacked
}

// trigger delivers one trigger to the receiver and the model.
func (m *leaseModel) trigger(peer int, key string, seq uint64, value string) {
	mk := modelKey{peer, key}
	if e := m.held[mk]; e == nil {
		m.held[mk] = &modelEntry{deadline: m.g.now() + m.T, lastSeq: seq, value: value}
	} else if seq >= e.lastSeq {
		e.deadline, e.lastSeq, e.value = m.g.now()+m.T, seq, value
	}
	m.frame(modelPeers[peer], wire.Message{Type: wire.TypeTrigger, Seq: seq, Key: key, Value: []byte(value)})
}

func (m *leaseModel) step(op byte, arg int) {
	g := m.g
	peer := arg & 1
	from := modelPeers[peer]
	key := modelKeyName(arg >> 1 % modelKeys)
	mk := modelKey{peer, key}
	stale := arg>>4&1 == 1
	g.conn.take()
	switch op {
	case opSummary:
		var d wire.Message
		if list := arg >> 1 & 7 % (len(modelLists) + 1); list == len(modelLists) {
			d = m.replay[peer]
			if d.Keys == nil {
				m.what = "replay of nothing"
				return
			}
		} else {
			var keys []string
			for _, k := range modelLists[list] {
				keys = append(keys, modelKeyName(k))
			}
			var seq uint64
			switch arg >> 4 % numSeqs {
			case seqCurrent:
				seq = m.seq[peer]
			case seqNewer:
				m.seq[peer]++
				seq = m.seq[peer]
			case seqBehind:
				seq = m.seq[peer] - 1
			case seqAncient:
				seq = 3
			}
			d = g.refresh(summary{from, seq, keys})
		}
		m.replay[peer] = d
		m.what = fmt.Sprintf("summary from peer %d seq %d keys %v", peer, d.Seq, d.Keys)
		m.summary(peer, d)
	case opSweep:
		order := []int{0, 1, 2, 3}
		how, pick := arg>>1&3, arg>>3
		switch how {
		case sweepPermuted:
			// pick names an order by which of the datagrams left comes next.
			pool := slices.Clone(order)
			for i := range order {
				j := pick % len(pool)
				pick /= len(pool)
				order[i], pool = pool[j], slices.Delete(pool, j, j+1)
			}
		case sweepDropOne:
			order = slices.Delete(order, pick%4, pick%4+1)
		case sweepRepeatOne:
			order = slices.Insert(order, pick%4, pick%4)
		}
		m.what = fmt.Sprintf("sweep from peer %d, datagrams %v", peer, order)
		for _, i := range order {
			d := summary{from: from, seq: m.seq[peer]}
			for _, k := range modelSweep[i] {
				d.keys = append(d.keys, modelKeyName(k))
			}
			m.summary(peer, g.refresh(d))
			m.swept[peer] = i
		}
	case opBreakNext:
		next := modelSweep[(m.swept[peer]+1)%len(modelSweep)][0]
		m.step(opRemoval, peer|next<<1)
		m.step(opTrigger, peer|next<<1)
		m.what = fmt.Sprintf("peer %d loses and reinstalls %s, which its sweep names next", peer, modelKeyName(next))
	case opNewValue:
		// The peer's sweep list holding key is one of the two halves the
		// steady sweeps send.
		m.seq[peer]++
		seq, value, half := m.seq[peer], fmt.Sprintf("v%d", m.seq[peer]), modelLists[arg>>1%modelKeys/4]
		if stale { // the trigger is lost: only the sender knows the new value
			if g.sent[from.String()] == nil {
				g.sent[from.String()] = map[string]version{}
			}
			g.sent[from.String()][key] = version{seq, value}
		} else {
			m.trigger(peer, key, seq, value)
		}
		m.what = fmt.Sprintf("peer %d gives %s value %q (trigger lost: %v), then sweeps %v unchanged", peer, key, value, stale, half)
		var keys []string
		for _, k := range half {
			keys = append(keys, modelKeyName(k))
		}
		// The sender repairs what is NACKed with fresh triggers of what it
		// holds, and sweeps again: a list with keys the receiver lacks
		// renews the others at whatever version they are, so a lost value
		// can take a second sweep to come to light.
		for round := 0; ; round++ {
			leased := g.leasedKeys()
			nacked := m.summary(peer, g.refresh(summary{from, m.seq[peer], keys}))
			if round == 0 && g.leasedKeys() != leased {
				g.t.Fatalf("op %d (%s): a lease renewed the list over the key's old value", m.op, m.what)
			}
			if len(nacked) == 0 {
				break
			}
			if round == 2 {
				g.t.Fatalf("op %d (%s): still NACKed %v after two repairs", m.op, m.what, nacked)
			}
			for _, k := range nacked {
				m.seq[peer]++
				m.trigger(peer, k, m.seq[peer], g.sent[from.String()][k].value)
			}
		}
		if got, _ := g.rcv.GetFrom(from, key); string(got) != value {
			g.t.Fatalf("op %d (%s): %s holds %q", m.op, m.what, key, got)
		}
	case opTrigger:
		seq := m.seq[peer] - 2
		if !stale {
			m.seq[peer]++
			seq = m.seq[peer]
		}
		m.what = fmt.Sprintf("trigger from peer %d for %s seq %d", peer, key, seq)
		m.trigger(peer, key, seq, "v")
	case opRemoval:
		seq := m.seq[peer]
		if stale {
			seq = 1
		}
		m.what = fmt.Sprintf("removal from peer %d for %s seq %d", peer, key, seq)
		if e := m.held[mk]; e != nil && seq >= e.lastSeq {
			delete(m.held, mk)
		}
		m.frame(from, wire.Message{Type: wire.TypeRemoval, Seq: seq, Key: key})
	case opFalseRemoval:
		key = modelKeyName(arg % modelKeys)
		m.what = "false removal of " + key
		had := false
		for p := range modelPeers {
			if _, ok := m.held[modelKey{p, key}]; ok {
				had = true
				delete(m.held, modelKey{p, key})
			}
		}
		if got := g.rcv.InjectFalseRemoval(key); got != had {
			g.t.Fatalf("op %d (%s): reported %v, the model held it: %v", m.op, m.what, got, had)
		}
	case opAdvance:
		d := time.Duration(arg%64+1) * time.Millisecond
		m.what = fmt.Sprintf("%v pass", d)
		g.clk.Run(d)
	}
}

// check compares the receiver with the model after an operation.
func (m *leaseModel) check() {
	g := m.g
	g.t.Helper()
	fail := func(format string, args ...any) {
		g.t.Helper()
		g.t.Fatalf("op %d (%s) at %v: %s", m.op, m.what, g.now(), fmt.Sprintf(format, args...))
	}
	var want []expiry
	for mk, e := range m.held {
		if e.deadline <= g.now() {
			want = append(want, expiry{string(modelPeers[mk.peer]), mk.key, e.deadline})
			delete(m.held, mk)
		}
	}
	got := g.expired
	g.expired = nil
	sortExpiries(want)
	sortExpiries(got)
	if !slices.Equal(got, want) {
		fail("expired %v, the model expires %v", got, want)
	}
	for p, addr := range modelPeers {
		var keys []string
		for mk := range m.held {
			if mk.peer == p {
				keys = append(keys, mk.key)
			}
		}
		slices.Sort(keys)
		if held := g.held(addr); !slices.Equal(held, keys) {
			fail("peer %d holds %v, the model %v", p, held, keys)
		}
		for _, k := range keys {
			if got, _ := g.rcv.GetFrom(addr, k); string(got) != m.held[modelKey{p, k}].value {
				fail("peer %d's %s holds %q, the model %q", p, k, got, m.held[modelKey{p, k}].value)
			}
		}
	}
	if bad := g.rcv.CheckInvariants(); len(bad) != 0 {
		fail("%v", bad)
	}
	if c := g.rcv.leaseCensus(); c.members != c.naming || c.headers > c.naming {
		fail("leases count %d members in %d headers, %d entries name a lease", c.members, c.headers, c.naming)
	}
}

// leaseScripts are the scripts written by hand, each for one way a lease is
// built, used, overtaken or broken; leasedAtLeast is how many keys each must
// renew through a lease for the script to have tested what it was written
// for.
var leaseScripts = []struct {
	name          string
	script        []byte
	leasedAtLeast int
}{
	{"steady then silent", script(installAll(), times(6, steadySweep()), advOp(64), advOp(64)), 3 * 16},
	{"one peer goes quiet", script(installAll(), times(5, steadySweep()),
		times(6, sumOp(0, 0, seqCurrent), sumOp(0, 1, seqCurrent), advOp(20))), 16 + 6*8},
	{"a trigger overtakes the lease", script(installAll(), times(4, steadySweep()),
		trigOp(0, 1, false), // flow/1's lastSeq is now ahead of what the sweep stamps next
		times(5, sumOp(0, 0, seqBehind), sumOp(0, 1, seqBehind), advOp(20)),
		times(3, sumOp(0, 0, seqCurrent), sumOp(0, 1, seqCurrent), advOp(20)), advOp(64), advOp(64)), 8 + 7*8},
	{"stale, replayed and reordered datagrams", script(installAll(), times(4, steadySweep()),
		sumOp(0, 0, seqAncient), advOp(30), replayOp(0), sumOp(0, 0, seqCurrent), advOp(30),
		sumOp(0, 3, seqCurrent), sumOp(0, 0, seqCurrent), replayOp(0), advOp(30),
		sumOp(0, 0, seqNewer), sumOp(0, 0, seqBehind), advOp(64), advOp(64)), 16},
	{"a shifted list takes members away", script(installAll(), times(4, steadySweep()),
		times(3, sumOp(0, 2, seqCurrent), advOp(20)), times(3, steadySweep()), advOp(64), advOp(64)), 16},
	{"a list naming a key twice", script(installAll(), times(4, steadySweep()),
		times(4, sumOp(1, 4, seqCurrent), advOp(20)), times(3, steadySweep()), advOp(64), advOp(64)), 16},
	{"removal, reinstall and false removal", script(installAll(), times(4, steadySweep()),
		remOp(0, 2, false), steadySweep(), steadySweep(), trigOp(0, 2, false), times(4, steadySweep()),
		falseRemOp(5), steadySweep(), remOp(1, 6, true), trigOp(1, 5, false), trigOp(0, 5, true),
		times(4, steadySweep()), advOp(64), advOp(64)), 16},
	{"everything in one datagram", script(installAll(),
		times(5, sumOp(0, 5, seqCurrent), sumOp(1, 5, seqNewer), advOp(25)), advOp(64), advOp(64)), 2 * 16},
	{"a sweep out of order, short of a datagram, with one twice", script(installAll(), times(5, orderedSweep()),
		sweepOp(0, sweepPermuted, 23), sweepOp(1, sweepPermuted, 9), advOp(20), orderedSweep(),
		sweepOp(0, sweepDropOne, 2), sweepOp(1, sweepDropOne, 0), advOp(20), orderedSweep(),
		sweepOp(0, sweepRepeatOne, 1), sweepOp(1, sweepRepeatOne, 3), advOp(20), times(2, orderedSweep()),
		advOp(64), advOp(64)), 2*16 + 16 + 16 + 12 + 16 + 20 + 2*16},
	{"the lease expected next breaks", script(installAll(), times(5, orderedSweep()),
		sweepOp(0, sweepDropOne, 3), breakNextOp(0), sweepOp(0, sweepInOrder, 0), advOp(20), // the sweep's first, after its last
		times(4, orderedSweep()), breakNextOp(1), sweepOp(1, sweepDropOne, 0), breakNextOp(1), advOp(20),
		times(4, orderedSweep()), advOp(64), advOp(64)), 150},
	{"same list, new value", script(installAll(), times(4, steadySweep()),
		newValueOp(0, 2, false), times(3, steadySweep()), // the trigger arrives: the list's next datagram is walked and leased anew
		newValueOp(1, 6, true), times(3, steadySweep()), // the trigger is lost: the list is NACKed whole and re-triggered
		newValueOp(0, 5, true), newValueOp(0, 1, false), times(4, steadySweep()), advOp(64), advOp(64)), 12 * 16},
}

// TestLeaseModel plays the hand-written scripts, then a few hundred seeded
// random ones, against the model.
func TestLeaseModel(t *testing.T) {
	for _, s := range leaseScripts {
		t.Run(s.name, func(t *testing.T) {
			if got := runLeaseScript(t, s.script); got < s.leasedAtLeast {
				t.Fatalf("%d keys were renewed through a lease, want at least %d", got, s.leasedAtLeast)
			}
		})
	}
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(19))
		leased := 0
		for i := 0; i < 300; i++ {
			sc := installAll()
			for len(sc) < 600 {
				// Two thirds of the operations come from a steady sweep, so
				// that leases get built for the rest to break: two datagrams of
				// four keys in even scripts, four of two in odd ones.
				if rng.Intn(3) > 0 {
					if i%2 == 0 {
						sc = append(sc, sumOp(rng.Intn(2), rng.Intn(2), seqCurrent)...)
					} else {
						sc = append(sc, sweepOp(rng.Intn(2), sweepInOrder, 0)...)
					}
					sc = append(sc, advOp(1+rng.Intn(12))...)
				} else {
					sc = append(sc, byte(rng.Intn(numOps)), byte(rng.Intn(256)))
				}
			}
			leased += runLeaseScript(t, sc)
		}
		if leased == 0 {
			t.Fatal("no random script renewed a key through a lease")
		}
		t.Logf("%d keys renewed through a lease", leased)
	})
}

// FuzzLease is the same check with the fuzzer writing the script.
func FuzzLease(f *testing.F) {
	for _, s := range leaseScripts {
		f.Add(s.script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 1<<10 {
			t.Skip()
		}
		runLeaseScript(t, script)
	})
}

// TestLeaseFormsOnFirstCleanSighting: a walked datagram that found every one
// of its keys and renewed every one builds its lease there and then, so its
// repeat is leased and looks nothing up. A datagram short of that — one key
// unknown, one key the datagram is too old for, one key named twice — builds
// nothing its repeat could extend: the repeat is walked again, key for key.
func TestLeaseFormsOnFirstCleanSighting(t *testing.T) {
	g := newLeaseRig(t)
	p := testAddr("10.0.0.1:7000")
	keys := rigKeys(16)
	g.install(p, 5, keys...)
	g.install(p, 20, keys[9]) // ahead of what the summaries are stamped
	deliver := func(ks ...string) (lookups, leased int, nacked []string) {
		g.clk.Run(time.Millisecond)
		g.conn.take()
		before := g.rcv.Stats()
		g.frame(p, g.refresh(summary{p, 9, ks}))
		after := g.rcv.Stats()
		for _, c := range g.conn.take() {
			nacked = append(nacked, c.m.Keys...)
		}
		return after.SummaryIndexLookups - before.SummaryIndexLookups, after.SummaryLeasedKeys - before.SummaryLeasedKeys, nacked
	}
	clean := keys[:8]
	if lookups, leased, nacked := deliver(clean...); lookups != 8 || leased != 0 || nacked != nil {
		t.Fatalf("first sighting: %d lookups, %d leased, NACKed %v; want 8, 0 and none", lookups, leased, nacked)
	}
	if c := g.rcv.leaseCensus(); c.headers != 1 || c.members != 8 || c.naming != 8 {
		t.Fatalf("after one clean datagram: %+v, want one lease of 8 members", c)
	}
	for i := 0; i < 2; i++ {
		if lookups, leased, nacked := deliver(clean...); lookups != 0 || leased != 8 || nacked != nil {
			t.Fatalf("repeat %d: %d lookups, %d leased, NACKed %v; want 0, 8 and none", i, lookups, leased, nacked)
		}
	}
	intact := g.rcv.leaseCensus().intact
	for _, c := range []struct {
		name   string
		keys   []string
		nacked []string
	}{
		{"one unknown key", []string{keys[10], "flow/absent", keys[11]}, []string{"flow/absent"}},
		{"one stale key", []string{keys[8], keys[9], keys[12]}, nil},
		{"a key named twice", []string{keys[13], keys[14], keys[13]}, nil},
	} {
		for i := 0; i < 3; i++ {
			lookups, leased, nacked := deliver(c.keys...)
			if lookups != len(c.keys) || leased != 0 || !slices.Equal(nacked, c.nacked) {
				t.Fatalf("%s, sighting %d: %d lookups, %d leased, NACKed %v; want %d, 0 and %v",
					c.name, i+1, lookups, leased, nacked, len(c.keys), c.nacked)
			}
			if got := g.rcv.leaseCensus().intact; got != intact {
				t.Fatalf("%s, sighting %d: %d leases intact, want the clean datagram's %d", c.name, i+1, got, intact)
			}
		}
	}
	if bad := g.rcv.CheckInvariants(); len(bad) != 0 {
		t.Fatal(bad)
	}
}

// TestLeaseExpiresWithSweeps: leases change nothing about when state goes.
// Two datagrams are swept on different schedules until both are leased;
// then the sweeps stop, and every key expires exactly T after the last
// summary that covered it, although no entry's own timer was touched since
// its lease was built.
func TestLeaseExpiresWithSweeps(t *testing.T) {
	g := newLeaseRig(t)
	T := fastConfig(SS).Timeout
	p := testAddr("10.0.0.1:7000")
	keys := rigKeys(16)
	g.install(p, 5, keys...)
	lo, hi := summary{p, 9, keys[:8]}, summary{p, 9, keys[8:]}
	send := func(d summary) time.Duration {
		g.frame(d.from, g.refresh(d))
		return g.now()
	}
	var lastLo, lastHi time.Duration
	for i := 0; i < 8; i++ {
		g.clk.Run(17 * time.Millisecond)
		lastLo = send(lo)
		g.clk.Run(23 * time.Millisecond)
		lastHi = send(hi)
	}
	if got := g.leasedKeys(); got < 5*16 {
		t.Fatalf("%d keys renewed through a lease in 8 sweeps of 16, want at least %d", got, 5*16)
	}
	g.clk.Run(31 * time.Millisecond)
	lastLo = send(lo) // hi is not swept again
	if len(g.expired) != 0 {
		t.Fatalf("expired under refresh: %v", g.expired)
	}
	g.clk.Run(2 * T)
	var want []expiry
	for i, k := range keys {
		at := lastLo + T
		if i >= 8 {
			at = lastHi + T
		}
		want = append(want, expiry{string(p), k, at})
	}
	sortExpiries(want)
	sortExpiries(g.expired)
	if !slices.Equal(g.expired, want) {
		t.Fatalf("expired %v\nwant    %v", g.expired, want)
	}
	if c := g.rcv.leaseCensus(); c != (leaseCensus{idSlots: c.idSlots}) || g.rcv.NumPeers() != 0 {
		t.Fatalf("after the last expiry: %+v, %d peers", c, g.rcv.NumPeers())
	}
}

// TestLeaseKeepsPeersApart mirrors TestSummaryKeepsPeersApart one tier
// up: two peers install the same user keys and sweep them in byte-identical
// datagrams, so each peer's lease sits beside one of the other's over the
// same list. Extending a lease must renew its own peer's entries only: when
// one peer goes quiet its entries time out although the other's identical
// datagrams keep arriving, and its next summary is NACKed whole.
func TestLeaseKeepsPeersApart(t *testing.T) {
	g := newLeaseRig(t)
	a, b := testAddr("10.0.0.1:7000"), testAddr("10.0.0.2:7000")
	keys := rigKeys(16)
	lo, hi := keys[:8], keys[8:]
	g.install(a, 5, keys...)
	g.install(b, 5, keys...)
	both := []summary{{a, 9, lo}, {b, 9, lo}, {a, 9, hi}, {b, 9, hi}}
	for i := 0; i < 3; i++ {
		g.sweep(both...)
	}
	before := g.rcv.Stats()
	if nacked := g.sweep(both...); len(nacked) != 0 {
		t.Fatalf("leased sweep NACKed %v", nacked)
	}
	after := g.rcv.Stats()
	if r, l := after.SummaryRenewals-before.SummaryRenewals, after.SummaryLeasedKeys-before.SummaryLeasedKeys; r != 32 || l != 32 {
		t.Fatalf("a sweep of 32 keys counted %d renewals, %d of them leased; want 32 and 32", r, l)
	}
	g.expectHeld("both leased", a, keys)
	g.expectHeld("both leased", b, keys)
	// b goes quiet; a's datagrams are the bytes b's were.
	for i := 0; i < 2; i++ {
		g.sweep(summary{a, 9, lo}, summary{a, 9, hi})
	}
	g.expectHeld("only a refreshing", a, keys)
	g.expectHeld("only a refreshing", b, nil)
	if got := g.rcv.Stats().SummaryLeasedKeys - after.SummaryLeasedKeys; got != 32 {
		t.Fatalf("a's two sweeps renewed %d keys through its leases, want 32", got)
	}
	// b's next summary names keys it no longer holds: all NACKed, to b.
	nacked := g.sweep(summary{a, 9, lo}, summary{b, 9, lo}, summary{a, 9, hi})
	if want := map[net.Addr][]string{b: lo}; !reflect.DeepEqual(nacked, want) {
		t.Fatalf("NACKed %v, want %v", nacked, want)
	}
	g.expectHeld("after b's stale summary", a, keys)
	g.expectHeld("after b's stale summary", b, nil)
	if bad := g.rcv.CheckInvariants(); len(bad) != 0 {
		t.Fatal(bad)
	}
}

// TestLeaseKeepsJitterHistogram: with Config.Metrics on, the lease tier
// still runs, and the refresh-jitter histogram still gets one observation
// per key per sweep — n at once from an extended datagram — of the interval
// since that key's last renewal, whichever tier made it.
func TestLeaseKeepsJitterHistogram(t *testing.T) {
	g := newSummaryRig(t, func(cfg *Config) { cfg.Metrics = telemetry.NewRegistry() })
	p := testAddr("10.0.0.1:7000")
	keys := rigKeys(16)
	g.install(p, 5, keys...)
	d := []summary{{p, 9, keys[:8]}, {p, 9, keys[8:]}}
	const sweeps = 7
	for i := 0; i < sweeps; i++ {
		g.sweep(d...)
	}
	st := g.rcv.Stats()
	if st.SummaryRenewals != sweeps*16 || st.SummaryLeasedKeys < 4*16 {
		t.Fatalf("%d renewals, %d of them leased; want %d and at least %d", st.SummaryRenewals, st.SummaryLeasedKeys, sweeps*16, 4*16)
	}
	h := g.rcv.histJitter.Snapshot()
	if h.Count != sweeps*16 {
		t.Fatalf("%d jitter observations for %d renewals", h.Count, sweeps*16)
	}
	// The first sweep comes rigBefore after the installs, the rest a step apart.
	if want := 16 * (rigBefore + (sweeps-1)*(rigBefore+rigAfter)); time.Duration(h.SumNs) != want {
		t.Fatalf("observed intervals sum to %v, want %v", time.Duration(h.SumNs), want)
	}
	// A trigger between two extended datagrams is measured from the lease's
	// stamp, and the next per-key walk from the trigger's.
	g.clk.Run(10 * time.Millisecond)
	g.install(p, 6, keys[0])
	if got := g.rcv.histJitter.Snapshot(); got.Count != h.Count+1 || time.Duration(got.SumNs-h.SumNs) != rigAfter+10*time.Millisecond {
		t.Fatalf("the trigger observed %d intervals summing to %v", got.Count-h.Count, time.Duration(got.SumNs-h.SumNs))
	}
}

// TestLeaseBounded: the worst sender for leases is one whose datagram
// boundaries move every sweep, because every datagram is then a clean first
// sighting (so a lease is built for it) and is never seen again (so the
// lease is never used, and the next sweep takes its members away). Through
// 10,000 such sweeps the receiver keeps no more intact leases than its
// entries fill — an intact lease has one member per key of its list, and an
// entry is a member of one lease — and no more lease headers than entries.
func TestLeaseBounded(t *testing.T) {
	g := newLeaseRig(t)
	p := testAddr("10.0.0.1:7000")
	keys := rigKeys(40)
	g.install(p, 5, keys...)
	const perDatagram = 8
	built := 0
	for sweep := 0; sweep < 10_000; sweep++ {
		// This sweep's ring starts one key later than the last one's.
		ring := append(slices.Clone(keys[sweep%len(keys):]), keys[:sweep%len(keys)]...)
		g.clk.Run(time.Millisecond)
		for i := 0; i < len(ring); i += perDatagram {
			g.frame(p, g.refresh(summary{p, 9, ring[i : i+perDatagram]}))
		}
		c := g.rcv.leaseCensus()
		if c.intact*perDatagram > len(keys) || c.headers > len(keys) || c.idSlots > len(keys)+1 || c.members != c.naming {
			t.Fatalf("sweep %d: %+v with %d entries", sweep, c, len(keys))
		}
		if c.intact > 0 {
			built++
		}
	}
	if built < 9_000 {
		t.Fatalf("only %d of 10,000 sweeps left a lease behind: the bound was not under test", built)
	}
	g.expectHeld("after 10,000 shifting sweeps", p, keys)
	if got := g.leasedKeys(); got != 0 {
		t.Fatalf("%d keys renewed through a lease, though no datagram repeated", got)
	}
	// None of those leases was ever extended, so none expected a successor.
	// Now the sweep holds still long enough for its leases to be extended and
	// chained, then breaks them: all at once when its boundaries move by a
	// key, and one alone, between intact neighbours, when a key is removed and
	// put back. A broken lease is kept alive by the intact one that expects it
	// only until that one is next extended, so once the sweep has settled
	// again no broken lease is reachable from an intact one, and the bounds
	// hold throughout.
	settle := func(from int) {
		ring := append(slices.Clone(keys[from%len(keys):]), keys[:from%len(keys)]...)
		for i := 0; i < 6; i++ {
			g.clk.Run(time.Millisecond)
			for i := 0; i < len(ring); i += perDatagram {
				g.frame(p, g.refresh(summary{p, 9, ring[i : i+perDatagram]}))
			}
			c := g.rcv.leaseCensus()
			if c.intact*perDatagram > len(keys) || c.headers > len(keys) || c.idSlots > len(keys)+1 || c.members != c.naming {
				t.Fatalf("settling from key %d: %+v with %d entries", from, c, len(keys))
			}
		}
	}
	for round := 1; round <= 40; round++ {
		settle(round)
		g.frame(p, wire.Message{Type: wire.TypeRemoval, Seq: 9, Key: keys[(3*round)%len(keys)]})
		g.install(p, 9, keys[(3*round)%len(keys)])
		before := g.leasedKeys()
		settle(round)
		if got := g.leasedKeys() - before; got < 2*len(keys) {
			t.Fatalf("round %d: six sweeps of a settled ring renewed %d keys through leases", round, got)
		}
		ls := &g.rcv.peers.byAddr.get(string(p)).leases
		ls.mu.Lock()
		for _, l := range ls.byFold {
			if l.next == nil || l.next.broken {
				t.Fatalf("round %d: an intact lease of a settled sweep expects %+v next", round, l.next)
			}
		}
		ls.mu.Unlock()
	}
	g.expectHeld("after the settled rounds", p, keys)
	if bad := g.rcv.CheckInvariants(); len(bad) != 0 {
		t.Fatal(bad)
	}
}

// TestLeaseFollowsSweepOrder: a sweep that arrives as the last one did is
// absorbed without looking a fold up — every datagram is the lease the one
// before it expects next. A sweep that arrives otherwise (reversed, rotated,
// short of a datagram, with one twice) renews exactly the same keys through
// the same leases, found by at most one fold lookup per datagram, and the
// order is learned again within two sweeps.
func TestLeaseFollowsSweepOrder(t *testing.T) {
	g := newLeaseRig(t)
	p := testAddr("10.0.0.1:7000")
	keys := rigKeys(16)
	g.install(p, 5, keys...)
	deliver := func(order ...int) (leased, lookups int) {
		g.clk.Run(5 * time.Millisecond)
		before := g.rcv.Stats()
		for _, i := range order {
			g.frame(p, g.refresh(summary{p, 9, keys[4*i : 4*i+4]}))
		}
		after := g.rcv.Stats()
		return after.SummaryLeasedKeys - before.SummaryLeasedKeys, after.SummaryLeaseLookups - before.SummaryLeaseLookups
	}
	inOrder := []int{0, 1, 2, 3}
	for i := 0; i < 6; i++ {
		deliver(inOrder...)
	}
	for _, c := range []struct {
		name  string
		order []int
	}{
		{"reversed", []int{3, 2, 1, 0}},
		{"rotated", []int{2, 3, 0, 1}},
		{"one dropped", []int{0, 2, 3}},
		{"one repeated", []int{0, 1, 1, 2, 3}},
	} {
		if leased, lookups := deliver(inOrder...); leased != 16 || lookups != 0 {
			t.Fatalf("before %s: a settled sweep renewed %d keys through leases with %d folds looked up, want 16 and 0", c.name, leased, lookups)
		}
		if leased, lookups := deliver(c.order...); leased != 4*len(c.order) || lookups > len(c.order) {
			t.Fatalf("%s: %d keys renewed through leases with %d folds looked up, want %d and at most %d", c.name, leased, lookups, 4*len(c.order), len(c.order))
		}
		deliver(inOrder...)
		deliver(inOrder...)
	}
	if len(g.expired) != 0 {
		t.Fatalf("expired under refresh: %v", g.expired)
	}
	if bad := g.rcv.CheckInvariants(); len(bad) != 0 {
		t.Fatal(bad)
	}
}

// TestLeaseRaceExtendChurnExpire runs the three things that touch a lease
// at once, on the wall clock and under the race detector: one read loop
// extends four leases as fast as it can, a second removes and reinstalls a
// third of their keys (breaking the leases, which the first loop's per-key
// walks then rebuild), and the table's timer goroutines expire the keys of
// four more leases whose sweeps stop halfway. What was swept throughout and
// never removed must be held at the end, what stopped being swept must be
// gone, and the books must balance.
func TestLeaseRaceExtendChurnExpire(t *testing.T) {
	const T = 120 * time.Millisecond
	rcv, err := NewReceiver(newDiscardConn(), Config{Protocol: SS, RefreshInterval: T / 4, Timeout: T, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rcv.Close()
	p := testAddr("10.0.0.1:7000")
	encode := func(m wire.Message) []byte {
		data, err := m.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	const lists, perList = 8, 12
	keys := make([][]string, lists)
	// The sender's versions: a key's sequence number, which the churn takes
	// before it sends the trigger, as a sender does.
	var mu sync.Mutex
	versions := map[string]uint64{}
	fold := func(keys []string) (sum uint64) {
		mu.Lock()
		defer mu.Unlock()
		for _, k := range keys {
			sum += wire.StateHash(k, versions[k], []byte("v"))
		}
		return sum
	}
	setup := rcv.newDispatchScratch()
	for l := range keys {
		for k := 0; k < perList; k++ {
			key := fmt.Sprintf("flow/%d/%02d", l, k)
			keys[l] = append(keys[l], key)
			versions[key] = 1
			rcv.dispatch(encode(wire.Message{Type: wire.TypeTrigger, Seq: 1, Key: key, Value: []byte("v")}), p, setup)
		}
	}
	var seq atomic.Uint64
	seq.Store(10)
	var stop, halfway atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the sweep: lists 0–3 throughout, 4–7 until halfway
		defer wg.Done()
		sc := rcv.newDispatchScratch()
		for !stop.Load() {
			for l := range keys {
				if l >= lists/2 && halfway.Load() {
					break
				}
				s := seq.Load()
				rcv.dispatch(encode(wire.Message{Type: wire.TypeSummaryRefresh, Seq: s, Keys: keys[l], Fold: fold(keys[l])}), p, sc)
			}
		}
	}()
	go func() { // the churn: every third key of lists 0–3, removed and put back
		defer wg.Done()
		sc := rcv.newDispatchScratch()
		for !stop.Load() {
			for l := 0; l < lists/2; l++ {
				for k := 0; k < perList; k += 3 {
					s := seq.Add(1)
					mu.Lock()
					versions[keys[l][k]] = s
					mu.Unlock()
					rcv.dispatch(encode(wire.Message{Type: wire.TypeRemoval, Seq: s, Key: keys[l][k]}), p, sc)
					rcv.dispatch(encode(wire.Message{Type: wire.TypeTrigger, Seq: s, Key: keys[l][k], Value: []byte("v")}), p, sc)
				}
			}
			time.Sleep(time.Millisecond) // leave the sweep room to rebuild what this broke
		}
	}()
	time.Sleep(2 * T)
	halfway.Store(true)
	time.Sleep(3 * T)
	stop.Store(true)
	wg.Wait()
	leased := rcv.Stats().SummaryLeasedKeys
	rcv.Close() // no timer fires past this: the table can be audited at rest
	for l := range keys {
		for k, key := range keys[l] {
			_, held := rcv.GetFrom(p, key)
			if want := l < lists/2; held != want {
				t.Errorf("%s (list %d, key %d): held %v, want %v", key, l, k, held, want)
			}
		}
	}
	if bad := rcv.CheckInvariants(); len(bad) != 0 {
		t.Error(strings.Join(bad, "\n"))
	}
	if c := rcv.leaseCensus(); c.members != c.naming || c.headers > rcv.Len() {
		t.Errorf("%+v with %d entries", c, rcv.Len())
	}
	if leased == 0 {
		t.Error("no key was renewed through a lease")
	}
}

// BenchmarkReceiverSummary is one 64-key summary datagram absorbed through
// each of the two tiers, on a receiver holding 4,096 keys of one sender
// swept in 64 datagrams. leased/in-order: the sweep repeats, so every
// datagram extends the lease the one before it expects next. leased/shuffled:
// the sweep's datagrams repeat in an order that does not, so every lease is
// found by its fold. indexed: the same sweep stamped older than its leases,
// which declines them, so every key is looked up.
func BenchmarkReceiverSummary(b *testing.B) {
	const keys, perDatagram = 4096, 64
	for _, tier := range []string{"leased/in-order", "leased/shuffled", "indexed"} {
		b.Run(tier, func(b *testing.B) {
			rcv, err := NewReceiver(newDiscardConn(), Config{Protocol: SS, Timeout: time.Hour, Shards: 16, Clock: clock.NewVirtual()})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { rcv.Close() })
			sc := rcv.newDispatchScratch()
			from := discardAddr{}
			names := make([]string, keys)
			for i := range names {
				names[i] = fmt.Sprintf("flow/%012d", i)
				rcv.handle(wire.Message{Type: wire.TypeTrigger, Seq: 1, Key: names[i], Value: []byte("v")}, from, sc)
			}
			sweep := func(order []string, seq uint64) (out [][]byte) {
				for i := 0; i < len(order); i += perDatagram {
					m := wire.Message{Type: wire.TypeSummaryRefresh, Seq: seq, Keys: order[i : i+perDatagram]}
					for _, k := range m.Keys {
						m.Fold += wire.StateHash(k, 1, []byte("v"))
					}
					data, err := m.MarshalBinary()
					if err != nil {
						b.Fatal(err)
					}
					out = append(out, data)
				}
				return out
			}
			play := func(datagrams [][]byte) {
				for _, d := range datagrams {
					rcv.handleSummaryFast(d, from, sc)
				}
			}
			forward := sweep(names, 9)
			for i := 0; i < 4; i++ {
				play(forward) // build the leases, learn their order
			}
			sweeps := [][][]byte{forward}
			switch tier {
			case "leased/shuffled":
				// Two orders taken in turn, neither a rotation of the other or of
				// the sweep's own.
				rng := rand.New(rand.NewSource(20))
				sweeps = make([][][]byte, 2)
				for i := range sweeps {
					sweeps[i] = slices.Clone(forward)
					rng.Shuffle(len(forward), func(j, k int) { sweeps[i][j], sweeps[i][k] = sweeps[i][k], sweeps[i][j] })
				}
			case "indexed":
				sweeps[0] = sweep(names, 8)
			}
			before := rcv.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := sweeps[i/len(forward)%len(sweeps)]
				rcv.handleSummaryFast(s[i%len(forward)], from, sc)
			}
			b.StopTimer()
			after := rcv.Stats()
			renewed := float64(after.SummaryRenewals - before.SummaryRenewals)
			if renewed != float64(b.N)*perDatagram {
				b.Fatalf("%v keys renewed by %d datagrams", renewed, b.N)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/renewed, "ns/key")
			b.ReportMetric(float64(after.SummaryLeasedKeys-before.SummaryLeasedKeys)/renewed, "leased/key")
			b.ReportMetric(float64(after.SummaryIndexLookups-before.SummaryIndexLookups)/renewed, "lookups/key")
			b.ReportMetric(float64(after.SummaryLeaseLookups-before.SummaryLeaseLookups)/float64(b.N), "fold-lookups/datagram")
		})
	}
}
