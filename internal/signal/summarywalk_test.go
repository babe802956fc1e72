package signal

import (
	"fmt"
	"net"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"softstate/internal/clock"
	"softstate/internal/wire"
)

// captureConn is discardConn with a memory: every datagram written is
// decoded and kept with its destination.
type captureConn struct {
	*discardConn
	mu   sync.Mutex
	sent []capturedMsg
}

type capturedMsg struct {
	to net.Addr
	m  wire.Message
}

func newCaptureConn() *captureConn { return &captureConn{discardConn: newDiscardConn()} }

func (c *captureConn) WriteTo(p []byte, to net.Addr) (int, error) {
	var m wire.Message
	if err := m.UnmarshalBinary(p); err != nil {
		return 0, err
	}
	c.mu.Lock()
	c.sent = append(c.sent, capturedMsg{to: to, m: m})
	c.mu.Unlock()
	return len(p), nil
}

// take returns and forgets what was written since the last take.
func (c *captureConn) take() []capturedMsg {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.sent
	c.sent = nil
	return out
}

// summaryRig is one SS receiver on a virtual clock, fed hand-made frames
// through the read loop's own dispatch. Expiry is the oracle for which
// entry a renewal landed on: the timeout is 90 ms, a sweep is delivered
// 20 ms into its step and looked at 40 ms later, so sweeps are 60 ms apart
// and an entry is still there at the end of a step only if that step's
// sweep renewed it (the one before is 100 ms back by then).
type summaryRig struct {
	t    *testing.T
	clk  *clock.Virtual
	conn *captureConn
	rcv  *Receiver
	sc   *dispatchScratch
	// sent is the version of each key each peer last triggered, by address:
	// what an honest sender's summaries fold.
	sent map[string]map[string]version
}

// version is one key's sequence number and value.
type version struct {
	seq   uint64
	value string
}

const rigBefore, rigAfter = 20 * time.Millisecond, 40 * time.Millisecond

func newSummaryRig(t *testing.T, mutate ...func(*Config)) *summaryRig {
	t.Helper()
	g := &summaryRig{t: t, clk: clock.NewVirtual(), conn: newCaptureConn(), sent: map[string]map[string]version{}}
	cfg := fastConfig(SS)
	cfg.Clock = g.clk
	cfg.Shards = 4
	for _, m := range mutate {
		m(&cfg)
	}
	rcv, err := NewReceiver(g.conn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rcv.Close() })
	g.rcv, g.sc = rcv, rcv.newDispatchScratch()
	return g
}

// frame delivers m from from; a trigger newer than the key's last one is
// the sender's version of the key from then on.
func (g *summaryRig) frame(from net.Addr, m wire.Message) {
	g.t.Helper()
	if m.Type == wire.TypeTrigger {
		sent := g.sent[from.String()]
		if sent == nil {
			sent = map[string]version{}
			g.sent[from.String()] = sent
		}
		if v, ok := sent[m.Key]; !ok || m.Seq >= v.seq {
			sent[m.Key] = version{m.Seq, string(m.Value)}
		}
	}
	data, err := m.MarshalBinary()
	if err != nil {
		g.t.Fatal(err)
	}
	g.rcv.dispatch(data, from, g.sc)
}

func (g *summaryRig) install(from net.Addr, seq uint64, keys ...string) {
	for _, k := range keys {
		g.frame(from, wire.Message{Type: wire.TypeTrigger, Seq: seq, Key: k, Value: []byte("v")})
	}
}

// held lists the keys from holds, sorted.
func (g *summaryRig) held(from net.Addr) []string {
	var out []string
	prefix := RKey(from, "")
	g.rcv.tbl.Range(func(ck string, _ *receiverEntry) bool {
		if key, ok := strings.CutPrefix(ck, prefix); ok {
			out = append(out, key)
		}
		return true
	})
	slices.Sort(out)
	return out
}

// summary is one summary-refresh datagram of a sweep.
type summary struct {
	from net.Addr
	seq  uint64
	keys []string
}

// refresh is d as an honest sender sends it: its list's fold is the fold of
// the versions from last triggered (a key it never triggered adds nothing).
func (g *summaryRig) refresh(d summary) wire.Message {
	m := wire.Message{Type: wire.TypeSummaryRefresh, Seq: d.seq, Keys: d.keys}
	for _, k := range d.keys {
		if v, ok := g.sent[d.from.String()][k]; ok {
			m.Fold += wire.StateHash(k, v.seq, []byte(v.value))
		}
	}
	return m
}

// sweep is one step: it delivers the datagrams and returns the keys the
// receiver NACKed, per destination, in order.
func (g *summaryRig) sweep(datagrams ...summary) map[net.Addr][]string {
	g.t.Helper()
	g.clk.Run(rigBefore)
	g.conn.take()
	for _, d := range datagrams {
		g.frame(d.from, g.refresh(d))
	}
	nacked := map[net.Addr][]string{}
	for _, c := range g.conn.take() {
		if c.m.Type != wire.TypeSummaryNack {
			g.t.Fatalf("a summary refresh was answered with a %v", c.m.Type)
		}
		nacked[c.to] = append(nacked[c.to], c.m.Keys...)
	}
	g.clk.Run(rigAfter)
	return nacked
}

func (g *summaryRig) expectHeld(what string, from net.Addr, want []string) {
	g.t.Helper()
	want = slices.Clone(want)
	slices.Sort(want)
	if got := g.held(from); !slices.Equal(got, want) {
		g.t.Fatalf("%s: %v holds %d keys %v, want %d %v", what, from, len(got), got, len(want), want)
	}
}

func rigKeys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("flow/%02d", i)
	}
	return out
}

// TestSummaryKeepsPeersApart: two peers install the same user keys and
// their summaries interleave, so every entry one peer's sweep renews sits
// beside one of the other's with the same user key. A renewal must land on
// the (peer, key) it names: when one peer goes quiet its entries time out
// although the other keeps renewing every one of those keys.
func TestSummaryKeepsPeersApart(t *testing.T) {
	g := newSummaryRig(t)
	a, b := testAddr("10.0.0.1:7000"), testAddr("10.0.0.2:7000")
	keys := rigKeys(16)
	lo, hi := keys[:8], keys[8:]
	g.install(a, 5, keys...)
	g.install(b, 5, keys...)
	both := []summary{{a, 9, lo}, {b, 9, lo}, {a, 9, hi}, {b, 9, hi}}
	// The first sweep walks every datagram through the index and builds its
	// lease; from the second on none of them is walked at all.
	for i, want := range []int{32, 0, 0} {
		before := g.rcv.Stats()
		if nacked := g.sweep(both...); len(nacked) != 0 {
			t.Fatalf("sweep %d NACKed %v", i, nacked)
		}
		g.expectHeld("both refreshing", a, keys)
		g.expectHeld("both refreshing", b, keys)
		after := g.rcv.Stats()
		if got := after.SummaryRenewals - before.SummaryRenewals; got != 32 {
			t.Fatalf("sweep %d of 32 keys counted %d renewals", i, got)
		}
		if got := after.SummaryIndexLookups - before.SummaryIndexLookups; got != want {
			t.Fatalf("sweep %d: 4 interleaved datagrams cost %d index lookups, want %d", i, got, want)
		}
	}
	// b goes quiet; a renews the same user keys.
	g.sweep(summary{a, 9, lo}, summary{a, 9, hi})
	g.expectHeld("only a refreshing", a, keys)
	g.expectHeld("only a refreshing", b, nil)
	// b's next summary names keys it no longer holds: all NACKed, to b.
	nacked := g.sweep(summary{a, 9, lo}, summary{b, 9, lo}, summary{a, 9, hi})
	if want := map[net.Addr][]string{b: lo}; !reflect.DeepEqual(nacked, want) {
		t.Fatalf("NACKed %v, want %v", nacked, want)
	}
	g.expectHeld("after b's stale summary", a, keys)
	g.expectHeld("after b's stale summary", b, nil)
}

// TestSummarySurvivesLossReorderAndChurn walks one peer's sweep through
// everything that breaks the order and the leases the steady sweeps left —
// a datagram lost, two swapped, keys re-installed as new entries, a key
// removed from the middle of a list and put back, a replayed summary with a
// stale sequence number — and checks after every sweep that exactly the keys
// it named (and the receiver held) were renewed and exactly the ones it did
// not hold were NACKed.
func TestSummarySurvivesLossReorderAndChurn(t *testing.T) {
	g := newSummaryRig(t)
	p := testAddr("10.0.0.9:7000")
	keys := rigKeys(32)
	d := func(i int, seq uint64) summary { return summary{p, seq, keys[8*i : 8*i+8]} }
	without := func(ks []string, drop ...string) []string {
		return slices.DeleteFunc(slices.Clone(ks), func(k string) bool { return slices.Contains(drop, k) })
	}
	noNacks := func(what string, nacked map[net.Addr][]string) {
		t.Helper()
		if len(nacked) != 0 {
			t.Fatalf("%s: NACKed %v", what, nacked)
		}
	}
	g.install(p, 10, keys...)
	for i := 0; i < 3; i++ {
		noNacks("steady", g.sweep(d(0, 50), d(1, 50), d(2, 50), d(3, 50)))
		g.expectHeld("steady", p, keys)
	}
	lookups := func() int { return g.rcv.Stats().SummaryIndexLookups }
	base := lookups()
	noNacks("steady", g.sweep(d(0, 50), d(1, 50), d(2, 50), d(3, 50)))
	if got := lookups() - base; got != 0 {
		t.Fatalf("a leased sweep cost %d index lookups", got)
	}

	// The second datagram is lost: its keys, and only they, time out.
	noNacks("one lost", g.sweep(d(0, 50), d(2, 50), d(3, 50)))
	g.expectHeld("one lost", p, without(keys, keys[8:16]...))

	// The next sweep names them again: NACKed, in order, nothing else.
	nacked := g.sweep(d(0, 50), d(1, 50), d(2, 50), d(3, 50))
	if want := map[net.Addr][]string{p: keys[8:16]}; !reflect.DeepEqual(nacked, want) {
		t.Fatalf("NACKed %v, want %v", nacked, want)
	}
	g.expectHeld("after the NACK", p, without(keys, keys[8:16]...))

	// Re-triggered: new entries under the old keys. Then a sweep with two
	// datagrams swapped.
	g.install(p, 20, keys[8:16]...)
	noNacks("swapped", g.sweep(d(0, 50), d(2, 50), d(1, 50), d(3, 50)))
	g.expectHeld("swapped", p, keys)
	noNacks("back in order", g.sweep(d(0, 50), d(1, 50), d(2, 50), d(3, 50)))
	g.expectHeld("back in order", p, keys)

	// A key leaves the middle of a list; sweeps stop naming it.
	gone := keys[10]
	g.frame(p, wire.Message{Type: wire.TypeRemoval, Seq: 30, Key: gone})
	short := summary{p, 50, without(keys[8:16], gone)}
	for i := 0; i < 2; i++ {
		noNacks("one removed", g.sweep(d(0, 50), short, d(2, 50), d(3, 50)))
		g.expectHeld("one removed", p, without(keys, gone))
	}
	// A summary that still names it gets exactly that key NACKed.
	nacked = g.sweep(d(0, 50), d(1, 50), d(2, 50), d(3, 50))
	if want := map[net.Addr][]string{p: {gone}}; !reflect.DeepEqual(nacked, want) {
		t.Fatalf("NACKed %v, want %v", nacked, want)
	}
	// And it comes back, as a new entry, into the same place in its list.
	g.install(p, 40, gone)
	for i := 0; i < 2; i++ {
		noNacks("put back", g.sweep(d(0, 50), d(1, 50), d(2, 50), d(3, 50)))
		g.expectHeld("put back", p, keys)
	}

	// A replayed first datagram from before the re-triggers (seq 5 < every
	// accepted seq) is too old for its lease: it is walked, finds its eight
	// entries and must renew none. The other three are leased.
	base = lookups()
	noNacks("stale replay", g.sweep(d(0, 5), d(1, 50), d(2, 50), d(3, 50)))
	g.expectHeld("stale replay", p, without(keys, keys[:8]...))
	if got := lookups() - base; got != 8 {
		t.Fatalf("the stale replay cost %d index lookups, want its own 8 keys", got)
	}
}

// TestSummaryIndexLookupStats is the observability contract end to end,
// with a real sender sweeping 200 keys in four datagrams: a walked datagram
// counts every one of its keys and a leased one none, so a steady sweep costs
// no lookups, the sweep after membership changes re-walks only the datagrams
// whose lists changed, and the one after none.
func TestSummaryIndexLookupStats(t *testing.T) {
	const keys, perDatagram = 200, 64
	c := vEndpoints(t, SS, 0, func(cfg *Config) {
		cfg.SummaryRefresh = true
		cfg.SummaryMaxKeys = perDatagram
		cfg.Timeout = time.Minute // removed keys linger: SS removal is silent
	})
	R := fastConfig(SS).RefreshInterval
	for i := 0; i < keys; i++ {
		if err := c.snd.Install(fmt.Sprintf("k%03d", 2*i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	c.within(time.Second, "all installs", func() bool { return c.rcv.Len() == keys })
	// One refresh interval holds exactly one sweep.
	interval := func() (renewals, lookups int) {
		before := c.rcv.Stats()
		c.run(R)
		after := c.rcv.Stats()
		return after.SummaryRenewals - before.SummaryRenewals, after.SummaryIndexLookups - before.SummaryIndexLookups
	}
	c.run(2 * R) // the first sweep of the full key set is walked, and leased from
	for i := 0; i < 3; i++ {
		if renewals, lookups := interval(); renewals != keys || lookups != 0 {
			t.Fatalf("steady sweep %d: %d renewals, %d index lookups; want %d and 0", i, renewals, lookups, keys)
		}
	}
	// The sweep goes out in key order, so a key that leaves and one that
	// joins eleven places on move only the keys between them: two such
	// changes inside the first datagram's list and two inside the third's
	// leave the second's and the fourth's as they were.
	changed := []int{20, 100, 260, 340}
	for _, at := range changed {
		if err := c.snd.Remove(fmt.Sprintf("k%03d", at)); err != nil {
			t.Fatal(err)
		}
		if err := c.snd.Install(fmt.Sprintf("k%03d", at+21), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if renewals, lookups := interval(); renewals != keys || lookups != 2*perDatagram {
		t.Fatalf("sweep after %d removals and installs: %d renewals, %d index lookups; want %d and the %d keys of two datagrams",
			len(changed), renewals, lookups, keys, 2*perDatagram)
	}
	for i := 0; i < 2; i++ {
		if renewals, lookups := interval(); renewals != keys || lookups != 0 {
			t.Fatalf("healed sweep %d: %d renewals, %d index lookups; want %d and 0", i, renewals, lookups, keys)
		}
	}
}
