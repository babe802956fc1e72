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
	"unsafe"

	"softstate/internal/clock"
	"softstate/internal/wire"
)

// TestEntrySizes pins both table values inside their allocator size class:
// the state table adds 144 bytes to a value (TestEntryOverhead there), so a
// 48-byte receiverEntry — the sender named by a peer id sharing a word with
// the probe-miss count, not by a two-word net.Addr — lands in the 192-byte
// class and a 96-byte senderEntry in the 240-byte one. A word more on
// either is 16 bytes per installed key.
func TestEntrySizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes pinned for 64-bit targets")
	}
	if got := unsafe.Sizeof(receiverEntry{}); got > 48 {
		t.Errorf("receiverEntry is %d bytes, want at most 48", got)
	}
	if got := unsafe.Sizeof(senderEntry{}); got > 96 {
		t.Errorf("senderEntry is %d bytes, want at most 96", got)
	}
}

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
}

const rigBefore, rigAfter = 20 * time.Millisecond, 40 * time.Millisecond

func newSummaryRig(t *testing.T, mutate ...func(*Config)) *summaryRig {
	t.Helper()
	g := &summaryRig{t: t, clk: clock.NewVirtual(), conn: newCaptureConn()}
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

func (g *summaryRig) frame(from net.Addr, m wire.Message) {
	g.t.Helper()
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

// sweep is one step: it delivers the datagrams and returns the keys the
// receiver NACKed, per destination, in order.
func (g *summaryRig) sweep(datagrams ...summary) map[net.Addr][]string {
	g.t.Helper()
	g.clk.Run(rigBefore)
	g.conn.take()
	for _, d := range datagrams {
		g.frame(d.from, wire.Message{Type: wire.TypeSummaryRefresh, Seq: d.seq, Keys: d.keys})
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

// TestSummaryHintsKeepPeersApart: two peers install the same user keys and
// their summaries interleave, so every hint one peer's sweep leaves sits
// beside an entry of the other with the same user key. A renewal must land
// on the (peer, key) it names: when one peer goes quiet its entries time
// out although the other keeps renewing every one of those keys.
func TestSummaryHintsKeepPeersApart(t *testing.T) {
	g := newSummaryRig(t)
	a, b := testAddr("10.0.0.1:7000"), testAddr("10.0.0.2:7000")
	keys := rigKeys(16)
	lo, hi := keys[:8], keys[8:]
	g.install(a, 5, keys...)
	g.install(b, 5, keys...)
	both := []summary{{a, 9, lo}, {b, 9, lo}, {a, 9, hi}, {b, 9, hi}}
	for i := 0; i < 3; i++ { // taught, followed, then leased
		before := g.rcv.Stats()
		if nacked := g.sweep(both...); len(nacked) != 0 {
			t.Fatalf("sweep %d NACKed %v", i, nacked)
		}
		g.expectHeld("both refreshing", a, keys)
		g.expectHeld("both refreshing", b, keys)
		// The cursor starts over whenever the source changes, so an
		// interleaved datagram that follows the hints still costs one index
		// lookup, for its first key.
		if got := g.rcv.Stats().SummaryIndexLookups - before.SummaryIndexLookups; i == 1 && got != 4 {
			t.Fatalf("4 interleaved datagrams following the hints cost %d index lookups, want 4", got)
		}
	}
	before := g.rcv.Stats()
	g.sweep(both...)
	after := g.rcv.Stats()
	if got := after.SummaryRenewals - before.SummaryRenewals; got != 32 {
		t.Fatalf("a sweep of 32 keys counted %d renewals", got)
	}
	// The second sweep in one order built each datagram's lease, so from the
	// third on none of them is walked at all.
	if got := after.SummaryIndexLookups - before.SummaryIndexLookups; got != 0 {
		t.Fatalf("4 leased datagrams cost %d index lookups, want 0", got)
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

// TestSummaryHintsSurviveLossReorderAndChurn walks one peer's sweep through
// everything that breaks the order the hints were learnt in — a datagram
// lost, two swapped, keys re-installed as new entries under hints that
// still name the dead ones, a key removed from the middle of the chain and
// put back, a replayed summary with a stale sequence number — and checks
// after every sweep that exactly the keys it named (and the receiver held)
// were renewed and exactly the ones it did not hold were NACKed.
func TestSummaryHintsSurviveLossReorderAndChurn(t *testing.T) {
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
		t.Fatalf("a sweep in the learnt order cost %d index lookups", got)
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

	// Re-triggered: new entries under keys whose predecessors' hints still
	// name the dead ones. Then a sweep with two datagrams swapped.
	g.install(p, 20, keys[8:16]...)
	noNacks("swapped", g.sweep(d(0, 50), d(2, 50), d(1, 50), d(3, 50)))
	g.expectHeld("swapped", p, keys)
	noNacks("back in order", g.sweep(d(0, 50), d(1, 50), d(2, 50), d(3, 50)))
	g.expectHeld("back in order", p, keys)

	// A key leaves the middle of the chain; sweeps stop naming it.
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
	// And it comes back, as a new entry, into the same place in the order.
	g.install(p, 40, gone)
	for i := 0; i < 2; i++ {
		noNacks("put back", g.sweep(d(0, 50), d(1, 50), d(2, 50), d(3, 50)))
		g.expectHeld("put back", p, keys)
	}

	// A replayed first datagram from before the re-triggers (seq 5 < every
	// accepted seq) finds its entries through the hints and must renew none.
	base = lookups()
	noNacks("stale replay", g.sweep(d(0, 5), d(1, 50), d(2, 50), d(3, 50)))
	g.expectHeld("stale replay", p, without(keys, keys[:8]...))
	if got := lookups() - base; got != 0 {
		t.Fatalf("the stale replay cost %d index lookups: it did not follow the hints", got)
	}
}

// TestSummaryIndexLookupStats is the observability contract end to end,
// with a real sender sweeping: once the receiver has seen a sweep order it
// follows it without the index, k membership changes cost the next sweep a
// few lookups each, and the one after none.
func TestSummaryIndexLookupStats(t *testing.T) {
	const keys, changes = 200, 5
	c := vEndpoints(t, SS, 0, func(cfg *Config) {
		cfg.SummaryRefresh = true
		cfg.SummaryMaxKeys = 64
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
	c.run(3 * R) // learn the order, and the wrap from the last key to the first
	for i := 0; i < 3; i++ {
		if renewals, lookups := interval(); renewals != keys || lookups != 0 {
			t.Fatalf("steady sweep %d: %d renewals, %d index lookups; want %d and 0", i, renewals, lookups, keys)
		}
	}
	for i := 0; i < changes; i++ {
		if err := c.snd.Remove(fmt.Sprintf("k%03d", 80*i+20)); err != nil {
			t.Fatal(err)
		}
		if err := c.snd.Install(fmt.Sprintf("k%03d", 80*i+41), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	renewals, lookups := interval()
	if renewals != keys {
		t.Fatalf("sweep after %d removals and %d installs: %d renewals, want %d", changes, changes, renewals, keys)
	}
	// A removed key's successor is looked up once; a new key is looked up
	// and so is its successor.
	if lookups < changes || lookups > 3*changes {
		t.Fatalf("sweep after %d removals and %d installs: %d index lookups, want %d..%d", changes, changes, lookups, changes, 3*changes)
	}
	for i := 0; i < 2; i++ {
		if renewals, lookups := interval(); renewals != keys || lookups != 0 {
			t.Fatalf("healed sweep %d: %d renewals, %d index lookups; want %d and 0", i, renewals, lookups, keys)
		}
	}
}

// TestSweepCompositionUnchanged pins which keys ride in which summary
// datagram against the rule the sweep had before it stopped measuring the
// whole remaining list per datagram: the largest prefix of what is left
// that fits the wire limits, cut to SummaryMaxKeys. One session's short
// keys make the key cap bind, the other's long ones the byte budget.
func TestSweepCompositionUnchanged(t *testing.T) {
	const maxKeys = 64
	conn := newCaptureConn()
	ss := NewSessions(conn, Config{
		Protocol:        SS,
		RefreshInterval: time.Hour, // sweeps driven by hand
		Timeout:         3 * time.Hour,
		SummaryRefresh:  true,
		SummaryMaxKeys:  maxKeys,
		Clock:           clock.NewVirtual(),
	})
	t.Cleanup(func() { ss.Shutdown(); ss.CloseEvents() })
	short, long := testAddr("10.0.1.1:7000"), testAddr("10.0.1.2:7000")
	want := map[net.Addr][]string{}
	for i := 0; i < 150; i++ {
		want[short] = append(want[short], fmt.Sprintf("flow/%04d", i))
	}
	for i := 0; i < 70; i++ {
		want[long] = append(want[long], fmt.Sprintf("%0300d", i))
	}
	for peer, keys := range want {
		sess := ss.Session(peer)
		for _, k := range keys {
			if err := sess.Install(k, []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
	}
	conn.take()
	sent := ss.SummarySweep()
	got := map[net.Addr][][]string{}
	for _, c := range conn.take() {
		if c.m.Type != wire.TypeSummaryRefresh {
			t.Fatalf("the sweep wrote a %v", c.m.Type)
		}
		got[c.to] = append(got[c.to], c.m.Keys)
	}
	total := 0
	for peer, keys := range want {
		var ref [][]string
		for rest := keys; len(rest) > 0; {
			n := min(wire.SummaryFits(rest), maxKeys)
			ref = append(ref, rest[:n])
			rest = rest[n:]
		}
		if !reflect.DeepEqual(got[peer], ref) {
			t.Errorf("%v: datagrams of %v keys, want %v", peer, lens(got[peer]), lens(ref))
		}
		total += len(ref)
	}
	if l := lens(got[long]); len(l) == 0 || l[0] >= maxKeys {
		t.Fatalf("long keys: %v keys per datagram — the byte budget never bound", l)
	}
	if sent != total {
		t.Fatalf("SummarySweep reported %d datagrams, want %d", sent, total)
	}
}

func lens(dgs [][]string) []int {
	out := make([]int, len(dgs))
	for i, d := range dgs {
		out[i] = len(d)
	}
	return out
}
