package signal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"softstate/internal/clock"
	"softstate/internal/lossy"
	"softstate/internal/statetable"
	"softstate/internal/wire"
)

// vSummaryEndpoints builds a virtual-time connected pair with summary
// refresh enabled on the sender.
func vSummaryEndpoints(t *testing.T, proto Protocol, maxKeys int) *vctx {
	t.Helper()
	return vEndpoints(t, proto, 0, func(cfg *Config) {
		cfg.SummaryRefresh = true
		cfg.SummaryMaxKeys = maxKeys
	})
}

// TestSummaryRefreshKeepsStateAlive: with summary refresh on, no per-key
// refresh datagrams flow, yet state survives well past the timeout.
func TestSummaryRefreshKeepsStateAlive(t *testing.T) {
	c := vSummaryEndpoints(t, SS, 64)
	const keys = 100
	for i := 0; i < keys; i++ {
		if err := c.snd.Install(fmt.Sprintf("k%03d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	c.within(time.Second, "all installs", func() bool { return c.rcv.Len() == keys })
	c.run(4 * fastConfig(SS).Timeout)
	if got := c.rcv.Len(); got != keys {
		t.Fatalf("receiver holds %d of %d keys after summary-refresh window", got, keys)
	}
	st := c.snd.Stats()
	if st.Sent["refresh"] != 0 {
		t.Fatalf("summary mode sent %d per-key refreshes", st.Sent["refresh"])
	}
	if st.Sent["summary-refresh"] == 0 {
		t.Fatal("no summary refreshes sent")
	}
	if c.rcv.Stats().Received["summary-refresh"] == 0 {
		t.Fatal("receiver saw no summary refreshes")
	}
}

// TestSummaryRefreshReducesDatagrams is the paper-facing claim (and the
// acceptance bar): at 64 keys per summary, refresh traffic drops at least
// 10× against per-key refreshes for the same key count and interval. In
// virtual time the ten-interval window is measured exactly, not slept.
func TestSummaryRefreshReducesDatagrams(t *testing.T) {
	const keys = 256
	window := 10 * fastConfig(SS).RefreshInterval

	countRefreshes := func(summary bool) int {
		c := vEndpoints(t, SS, 0, func(cfg *Config) {
			cfg.Timeout = time.Minute // isolate refresh traffic from expiry
			cfg.SummaryRefresh = summary
			cfg.SummaryMaxKeys = 64
		})
		for i := 0; i < keys; i++ {
			if err := c.snd.Install(fmt.Sprintf("k%03d", i), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		c.run(window)
		st := c.snd.Stats()
		if summary {
			return st.Sent["summary-refresh"]
		}
		return st.Sent["refresh"]
	}

	perKey := countRefreshes(false)
	summaries := countRefreshes(true)
	if perKey == 0 || summaries == 0 {
		t.Fatalf("no refresh traffic: per-key %d, summaries %d", perKey, summaries)
	}
	if ratio := float64(perKey) / float64(summaries); ratio < 10 {
		t.Fatalf("summary refresh reduced datagrams only %.1f× (%d → %d), want ≥10×",
			ratio, perKey, summaries)
	}
}

// TestSummaryNackRepairsUnknownKey: a receiver that does not hold a
// summarized key NACKs it and the sender re-triggers, reinstalling the
// state end to end.
func TestSummaryNackRepairsUnknownKey(t *testing.T) {
	c := vSummaryEndpoints(t, SS, 64)
	if err := c.snd.Install("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	c.within(time.Second, "install", func() bool { _, ok := c.rcv.Get("k"); return ok })
	// Tear the state down at the receiver only: expiry is silent for SS
	// (no notify), so only the summary NACK path can repair it.
	for _, ck := range c.rcv.matches("k") {
		c.rcv.tbl.Update(ck, func(e *receiverEntry, tc statetable.TimerControl[receiverEntry]) {
			c.rcv.drop(e, tc, EventExpired)
		})
	}
	if _, ok := c.rcv.Get("k"); ok {
		t.Fatal("test setup: key still installed")
	}
	c.within(time.Second, "NACK-driven reinstall", func() bool { _, ok := c.rcv.Get("k"); return ok })
	if c.snd.Stats().Received["summary-nack"] == 0 {
		t.Fatal("sender saw no summary NACK")
	}
	if c.rcv.Stats().Sent["summary-nack"] == 0 {
		t.Fatal("receiver sent no summary NACK")
	}
}

// TestSummaryChunking: more keys than SummaryMaxKeys are spread across
// several datagrams per sweep, all of which renew state.
func TestSummaryChunking(t *testing.T) {
	c := vSummaryEndpoints(t, SS, 8)
	const keys = 50 // ⌈50/8⌉ = 7 datagrams per sweep
	for i := 0; i < keys; i++ {
		if err := c.snd.Install(fmt.Sprintf("k%02d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	c.within(time.Second, "all installs", func() bool { return c.rcv.Len() == keys })
	sent := c.snd.ss.SummarySweep()
	if want := (keys + 7) / 8; sent != want {
		t.Fatalf("sweep sent %d datagrams, want %d", sent, want)
	}
	c.run(4 * fastConfig(SS).Timeout)
	if got := c.rcv.Len(); got != keys {
		t.Fatalf("receiver holds %d of %d keys", got, keys)
	}
}

// TestSummaryRemovedKeyNotRenewed: a key being removed must not ride
// along in summary sweeps and spuriously survive at the receiver.
func TestSummaryRemovedKeyNotRenewed(t *testing.T) {
	c := vSummaryEndpoints(t, SS, 64)
	c.snd.Install("stay", []byte("v"))
	c.snd.Install("go", []byte("v"))
	c.within(time.Second, "installs", func() bool { return c.rcv.Len() == 2 })
	if err := c.snd.Remove("go"); err != nil {
		t.Fatal(err)
	}
	// SS removal is silent: the receiver must time "go" out even while
	// summaries keep renewing "stay".
	c.within(time.Second, "timeout of removed key", func() bool { _, ok := c.rcv.Get("go"); return !ok })
	if _, ok := c.rcv.Get("stay"); !ok {
		t.Fatal("summary stopped renewing the surviving key")
	}
}

// TestStaleSummaryDoesNotRenew: a replayed or delayed summary whose Seq
// predates the state's latest per-key message must not renew the timeout
// (mirroring the stale-trigger guard), so state whose owner stopped
// refreshing still expires under a stream of stale summaries.
func TestStaleSummaryDoesNotRenew(t *testing.T) {
	v := clock.NewVirtual() // receiver-only: this test writes raw datagrams
	a, b, err := lossy.Pipe(lossy.Config{Clock: v})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	cfg := fastConfig(SS)
	cfg.Clock = v
	rcv, err := NewReceiver(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rcv.Close()
	a.WriteTo(mustEncode(t, 5, "k", []byte("v")), nil)
	if !v.RunUntil(func() bool { _, ok := rcv.Get("k"); return ok }, time.Millisecond, time.Second) {
		t.Fatal("install never landed")
	}
	// The summary names the version held, so only its sequence number, not
	// its fold, keeps it from renewing.
	staleMsg := wire.Message{Type: wire.TypeSummaryRefresh, Seq: 4, Keys: []string{"k"}, Fold: wire.StateHash("k", 5, []byte("v"))}
	stale, err := staleMsg.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Keep replaying the stale summary; the state must still time out.
	ok := v.RunUntil(func() bool {
		a.WriteTo(stale, nil)
		_, held := rcv.Get("k")
		return !held
	}, time.Millisecond, time.Second)
	if !ok {
		t.Fatal("state survived on stale summaries alone")
	}
	if rcv.Stats().Received["summary-refresh"] == 0 {
		t.Fatal("test delivered no summaries")
	}
}

// TestSummaryRefreshCrossesProtocols: summary refresh composes with
// reliable-trigger protocols (acks still flow for triggers).
func TestSummaryRefreshCrossesProtocols(t *testing.T) {
	c := vSummaryEndpoints(t, SSRT, 64)
	c.snd.Install("k", []byte("v"))
	c.within(time.Second, "install+ack", func() bool {
		return c.snd.Stats().Received["ack"] > 0 && c.rcv.Len() == 1
	})
	c.run(4 * fastConfig(SSRT).Timeout)
	if c.rcv.Len() != 1 {
		t.Fatal("state expired under SSRT summary refresh")
	}
}

// TestSummaryWireLimitRespected: sweeps never construct a datagram the
// codec rejects, even with maximum-length keys.
func TestSummaryWireLimitRespected(t *testing.T) {
	a, b, err := lossy.Pipe(lossy.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	cfg := fastConfig(SS)
	cfg.SummaryRefresh = true
	cfg.SummaryMaxKeys = wire.MaxSummaryKeys // byte budget, not count, binds
	snd, err := NewSender(a, b.LocalAddr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer snd.Close()
	long := make([]byte, wire.MaxKeyLen)
	for i := range long {
		long[i] = 'x'
	}
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("%s/%04d", long[:wire.MaxKeyLen-5], i)
		if err := snd.Install(key, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if sent := snd.ss.SummarySweep(); sent < 2 {
		t.Fatalf("oversized key set fit %d datagrams, expected chunking", sent)
	}
}

// dropTriggerConn forwards what the sender writes, except that, while
// armed, it drops the next trigger and disarms.
type dropTriggerConn struct {
	net.PacketConn
	armed atomic.Bool
}

func (c *dropTriggerConn) WriteTo(p []byte, to net.Addr) (int, error) {
	if wire.PeekType(p) == wire.TypeTrigger && c.armed.CompareAndSwap(true, false) {
		return len(p), nil
	}
	return c.PacketConn.WriteTo(p, to)
}

// TestSummaryRepairsLostUpdate: refresh repairs what the receiver got
// wrong in summary mode too. An Update's trigger is lost under a profile
// that does not retransmit it, so the receiver still holds the old value
// while every key of the list is there; the next summary carries the fold
// of the new version, which the held one does not match, so it renews
// nothing and is NACKed whole, and the re-triggers install the new value
// within the state timeout. The other keys of the list stay held
// throughout.
func TestSummaryRepairsLostUpdate(t *testing.T) {
	for _, proto := range []Protocol{SS, SSER} {
		t.Run(proto.String(), func(t *testing.T) {
			v := clock.NewVirtual()
			a, b, err := lossy.Pipe(lossy.Config{Delay: time.Millisecond, Seed: 99, Clock: v})
			if err != nil {
				t.Fatal(err)
			}
			cfg := fastConfig(proto)
			cfg.Clock, cfg.SummaryRefresh = v, true
			drop := &dropTriggerConn{PacketConn: a}
			snd, err := NewSender(drop, b.LocalAddr(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer snd.Close()
			rcv, err := NewReceiver(b, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer rcv.Close()
			keys := rigKeys(8)
			for _, k := range keys {
				if err := snd.Install(k, []byte("old")); err != nil {
					t.Fatal(err)
				}
			}
			v.Run(3 * cfg.RefreshInterval) // installed, swept and leased
			if rcv.Len() != len(keys) || rcv.Stats().SummaryLeasedKeys == 0 {
				t.Fatalf("before the update: %d keys held, %d renewed through a lease", rcv.Len(), rcv.Stats().SummaryLeasedKeys)
			}
			drop.armed.Store(true)
			if err := snd.Update(keys[3], []byte("new")); err != nil {
				t.Fatal(err)
			}
			v.Run(2 * time.Millisecond)
			if got, _ := rcv.GetFrom(a.LocalAddr(), keys[3]); string(got) != "old" || drop.armed.Load() {
				t.Fatalf("the update's trigger was not lost: %q held", got)
			}
			repaired := v.RunUntil(func() bool {
				got, _ := rcv.GetFrom(a.LocalAddr(), keys[3])
				return string(got) == "new"
			}, time.Millisecond, cfg.Timeout)
			if !repaired {
				got, _ := rcv.GetFrom(a.LocalAddr(), keys[3])
				t.Fatalf("%v after the lost update: the receiver holds %q", cfg.Timeout, got)
			}
			if st := rcv.Stats(); st.SummaryFoldMismatches == 0 {
				t.Fatalf("repaired without a fold mismatch: %+v", st)
			}
			v.Run(3 * cfg.Timeout)
			if got, _ := rcv.GetFrom(a.LocalAddr(), keys[3]); rcv.Len() != len(keys) || string(got) != "new" {
				t.Fatalf("after %v more: %d keys held, %s at %q", 3*cfg.Timeout, rcv.Len(), keys[3], got)
			}
			if bad := append(rcv.CheckInvariants(), snd.CheckInvariants()...); len(bad) != 0 {
				t.Fatal(bad)
			}
		})
	}
}

// TestSummaryOldLayoutRefused: summary-mode endpoints upgrade together. A
// summary refresh in the key list layout before front coding ({2: key
// length, key} per key) whose sorted keys share a prefix is refused whole
// — counted as a decode error, nothing looked up, nothing renewed, nothing
// NACKed — and the same list front-coded renews every key.
func TestSummaryOldLayoutRefused(t *testing.T) {
	v := clock.NewVirtual() // receiver-only: this test writes raw datagrams
	a, b, err := lossy.Pipe(lossy.Config{Clock: v})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	cfg := fastConfig(SS)
	cfg.Clock = v
	rcv, err := NewReceiver(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rcv.Close()
	keys := []string{"flow/1", "flow/2", "flow/3"}
	m := wire.Message{Type: wire.TypeSummaryRefresh, Seq: 3, Keys: keys}
	for i, k := range keys {
		a.WriteTo(mustEncode(t, uint64(i+1), k, []byte("v")), nil)
		m.Fold += wire.StateHash(k, uint64(i+1), []byte("v"))
	}
	if !v.RunUntil(func() bool { return rcv.Len() == len(keys) }, time.Millisecond, time.Second) {
		t.Fatal("installs never landed")
	}
	old := []byte{wire.Version, byte(wire.TypeSummaryRefresh), 0, 0, 0, 0, 0, 0, 0, 3, 0, 0}
	block := binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint16(nil, uint16(len(keys))), m.Fold)
	for _, k := range keys {
		block = append(binary.BigEndian.AppendUint16(block, uint16(len(k))), k...)
	}
	old = append(binary.BigEndian.AppendUint32(old, uint32(len(block))), block...)
	old = binary.BigEndian.AppendUint32(old, crc32.ChecksumIEEE(old))
	a.WriteTo(old, nil)
	v.Run(10 * time.Millisecond)
	st := rcv.Stats()
	if st.DecodeErrors != 1 || st.Received["summary-refresh"] != 0 || st.SummaryIndexLookups != 0 || st.SummaryRenewals != 0 || st.Sent["summary-nack"] != 0 {
		t.Fatalf("the old layout: %d decode errors, %d received, %d looked up, %d renewed, %d NACKs",
			st.DecodeErrors, st.Received["summary-refresh"], st.SummaryIndexLookups, st.SummaryRenewals, st.Sent["summary-nack"])
	}
	data, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	a.WriteTo(data, nil)
	v.Run(10 * time.Millisecond)
	if st := rcv.Stats(); st.DecodeErrors != 1 || st.SummaryRenewals != len(keys) {
		t.Fatalf("front-coded: %d decode errors, %d of %d keys renewed", st.DecodeErrors, st.SummaryRenewals, len(keys))
	}
}
