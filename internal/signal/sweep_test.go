package signal

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"softstate/internal/clock"
	"softstate/internal/wire"
)

// rawConn is discardConn remembering, while record is set, the bytes of
// every summary refresh written and where it went.
type rawConn struct {
	*discardConn
	record atomic.Bool
	mu     sync.Mutex
	sent   []rawDatagram
}

type rawDatagram struct {
	to   net.Addr
	data []byte
}

func newRawConn() *rawConn {
	c := &rawConn{discardConn: newDiscardConn()}
	c.record.Store(true)
	return c
}

func (c *rawConn) WriteTo(p []byte, to net.Addr) (int, error) {
	if c.record.Load() && wire.PeekType(p) == wire.TypeSummaryRefresh {
		c.mu.Lock()
		c.sent = append(c.sent, rawDatagram{to, bytes.Clone(p)})
		c.mu.Unlock()
	}
	return len(p), nil
}

func (c *rawConn) take() []rawDatagram {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.sent
	c.sent = nil
	return out
}

// encoderFrames is the sweep the codec would write from scratch: each
// session's live keys, sorted, chunked by SummaryFits under maxKeys and
// encoded by Message.Append with the session's current sequence number and
// the fold of the keys' versions, the sessions in id order.
func encoderFrames(t *testing.T, sessions []*Session, maxKeys int) (out []rawDatagram) {
	t.Helper()
	sessions = slices.Clone(sessions)
	slices.SortFunc(sessions, func(a, b *Session) int { return int(a.id) - int(b.id) })
	for _, sess := range sessions {
		if sess.gone.Load() {
			continue
		}
		keys := sess.keys()
		slices.Sort(keys)
		for len(keys) > 0 {
			n, _ := wire.SummaryFits(keys[:min(len(keys), maxKeys)])
			m := wire.Message{Type: wire.TypeSummaryRefresh, Seq: sess.seq.Load(), Keys: keys[:n]}
			for _, k := range m.Keys {
				e, _ := sess.ss.tbl.Get(sess.key(k))
				m.Fold += wire.StateHash(k, e.seq, e.value)
			}
			data, err := m.Append(nil)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, rawDatagram{sess.peer, data})
			keys = keys[n:]
		}
	}
	return out
}

// expectSweep sweeps and holds every datagram written against the
// encoder's, byte for byte, and against the copying decoder.
func expectSweep(t *testing.T, what string, ss *Sessions, conn *rawConn, sessions []*Session) int {
	t.Helper()
	conn.take()
	want := encoderFrames(t, sessions, ss.cfg.SummaryMaxKeys)
	if n := ss.SummarySweep(); n != len(want) {
		t.Fatalf("%s: the sweep reports %d datagrams, the encoder makes %d", what, n, len(want))
	}
	got := conn.take()
	if len(got) != len(want) {
		t.Fatalf("%s: the sweep wrote %d datagrams, the encoder makes %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].to != want[i].to || !bytes.Equal(got[i].data, want[i].data) {
			t.Fatalf("%s: datagram %d of %d to %v differs from the encoder's to %v\n got %x\nwant %x",
				what, i, len(want), got[i].to, want[i].to, got[i].data, want[i].data)
		}
		var m wire.Message
		if err := m.UnmarshalBinary(got[i].data); err != nil {
			t.Fatalf("%s: datagram %d does not decode: %v", what, i, err)
		}
	}
	return len(want)
}

// TestSweepFramesMatchEncoder: whatever happened to the sessions between two
// sweeps — keys installed, removed or updated, keys re-triggered (the
// sequence number moves, the membership does not), a session evicted idle
// and returning — every datagram a sweep writes from its cached frames is
// the datagram Message.Append makes of the same keys, the session's current
// sequence number and the fold of the keys' versions, and frames are
// encoded exactly when a session took a sequence number since the last
// sweep. Key lengths run from 1 to MaxKeyLen and the key counts across the
// per-datagram key limit and the 8 KB block limit.
func TestSweepFramesMatchEncoder(t *testing.T) {
	for _, proto := range []Protocol{SS, SSRTR} {
		for _, maxKeys := range []int{1, 7, 64, 1024} {
			t.Run(fmt.Sprintf("%v/%d", proto, maxKeys), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(20 + maxKeys)))
				clk := clock.NewVirtual()
				conn := newRawConn()
				ss := NewSessions(conn, Config{
					Protocol: proto, Clock: clk, Shards: 4, SummaryRefresh: true, SummaryMaxKeys: maxKeys,
					RefreshInterval: 24 * time.Hour, Timeout: 72 * time.Hour, // sweeps are made by hand
					PeerIdleTimeout: time.Minute,
				})
				defer ss.Shutdown()
				sessions := make([]*Session, 3)
				held := make([][]string, len(sessions))
				for i := range sessions {
					sessions[i] = ss.Session(testAddr(fmt.Sprintf("10.0.0.%d:7000", i+1)))
				}
				used := map[string]bool{}
				newKey := func() string {
					for {
						n := 1 + rng.Intn(wire.MaxKeyLen)
						if rng.Intn(2) == 0 {
							n = 1 + rng.Intn(24) // short keys, so key counts reach the per-datagram limits
						}
						b := make([]byte, n)
						rng.Read(b)
						if k := string(b); !used[k] {
							used[k] = true
							return k
						}
					}
				}
				install := func(i, n int) {
					for ; n > 0; n-- {
						k := newKey()
						if err := sessions[i].Install(k, []byte("v")); err != nil {
							t.Fatal(err)
						}
						held[i] = append(held[i], k)
					}
				}
				remove := func(i, n int) {
					for ; n > 0 && len(held[i]) > 0; n-- {
						j := rng.Intn(len(held[i]))
						if err := sessions[i].Remove(held[i][j]); err != nil {
							t.Fatal(err)
						}
						held[i] = slices.Delete(held[i], j, j+1)
					}
				}
				stats := func() (sent, encoded int) {
					st := ss.Stats()
					return st.SummaryFramesSent, st.SummaryFramesEncoded
				}

				install(0, 150)
				install(1, 70)
				expectSweep(t, "first sweep", ss, conn, sessions) // session 2 holds nothing yet
				for round := 0; round < 12; round++ {
					what := fmt.Sprintf("round %d", round)
					sent0, encoded0 := stats()
					moved := false // whether a session's keys or their versions change this round and leave it keys to encode
					switch i := rng.Intn(len(sessions)); round % 4 {
					case 0:
						install(i, 1+rng.Intn(200))
						moved = true
					case 1:
						remove(i, 1+rng.Intn(100))
						moved = len(held[i]) > 0
					case 2: // values and sequence numbers move, membership does not
						for _, k := range held[i] {
							if rng.Intn(4) == 0 {
								if err := sessions[i].Update(k, []byte("w")); err != nil {
									t.Fatal(err)
								}
								moved = true
							}
						}
					case 3: // the receiver lost keys: re-triggers, by notify and by summary NACK
						if len(held[i]) > 0 {
							sessions[i].Handle(wire.Message{Type: wire.TypeNotify, Key: held[i][rng.Intn(len(held[i]))]})
							sessions[i].Handle(wire.Message{Type: wire.TypeSummaryNack, Keys: held[i][:min(3, len(held[i]))]})
							moved = true
						}
					}
					n := expectSweep(t, what, ss, conn, sessions)
					sent1, encoded1 := stats()
					if sent1-sent0 != n || (encoded1 != encoded0) != moved {
						t.Fatalf("%s: %d datagrams counted %d sent and %d encoded (keys or versions moved: %v)", what, n, sent1-sent0, encoded1-encoded0, moved)
					}
					// The same sweep again: nothing is encoded, the bytes repeat.
					if expectSweep(t, what+", repeated", ss, conn, sessions); ss.Stats().SummaryFramesEncoded != encoded1 {
						t.Fatalf("%s: a repeated sweep encoded frames", what)
					}
				}
				if proto != SS {
					return // a removal stays tabled until it is acknowledged, and a tabled session is not evicted
				}
				// Session 0 lets everything go, is evicted idle, and returns
				// through the handle the test kept.
				remove(0, len(held[0]))
				expectSweep(t, "session 0 emptied", ss, conn, sessions)
				clk.Run(3 * time.Minute)
				if !sessions[0].gone.Load() {
					t.Fatalf("session 0 was not evicted: %d peers", ss.NumPeers())
				}
				expectSweep(t, "session 0 evicted", ss, conn, sessions)
				install(0, 90)
				if sessions[0].gone.Load() {
					t.Fatal("session 0 did not reattach")
				}
				expectSweep(t, "session 0 returned", ss, conn, sessions)
			})
		}
	}
}

// TestSweepCacheFootprint: what a session keeps between sweeps is its
// encoded datagrams and nothing else — exactly the bytes the encoder makes
// of its keys, in a buffer with no slack when it was sized for them (a
// buffer kept from a larger key set has the slack of that set, never more)
// — and the key strings a rebuild sorted are gone when the sweep returns.
func TestSweepCacheFootprint(t *testing.T) {
	conn := newRawConn()
	ss := NewSessions(conn, Config{Protocol: SS, Clock: clock.NewVirtual(), SummaryRefresh: true, SummaryMaxKeys: 64,
		RefreshInterval: time.Hour, Timeout: 3 * time.Hour})
	defer ss.Shutdown()
	sessions := []*Session{ss.Session(testAddr("10.0.0.1:7000")), ss.Session(testAddr("10.0.0.2:7000"))}
	footprint := func(what string, slack []int) {
		t.Helper()
		n := expectSweep(t, what, ss, conn, sessions)
		want := make([]int, len(sessions))
		for _, d := range encoderFrames(t, sessions, 64) {
			want[slices.IndexFunc(sessions, func(s *Session) bool { return s.peer == d.to })] += len(d.data)
		}
		frames := 0
		for i, sess := range sessions {
			f := &sess.frames
			if len(f.buf) != want[i] || cap(f.buf)-len(f.buf) != slack[i] {
				t.Errorf("%s: session %d caches %d bytes in a buffer of %d, want %d and %d of slack", what, i, len(f.buf), cap(f.buf), want[i], slack[i])
			}
			if len(f.ends) > 0 && f.ends[len(f.ends)-1] != len(f.buf) {
				t.Errorf("%s: session %d's last frame ends at %d of %d bytes", what, i, f.ends[len(f.ends)-1], len(f.buf))
			}
			frames += len(f.ends)
		}
		if frames != n {
			t.Errorf("%s: %d frames cached for a sweep of %d datagrams", what, frames, n)
		}
		if sc := ss.sweepScratch.cks[:cap(ss.sweepScratch.cks)]; cap(sc) > sweepScratchCap || slices.ContainsFunc(sc, func(s string) bool { return s != "" }) {
			t.Errorf("%s: the rebuild scratch keeps %d strings, some of them keys", what, cap(sc))
		}
	}
	for i := 0; i < 1000; i++ {
		sessions[0].Install(fmt.Sprintf("flow/%06d", i), nil)
		if i < 100 {
			sessions[1].Install(fmt.Sprintf("flow/%06d", i), nil)
		}
	}
	footprint("first build", []int{0, 0})
	before := len(sessions[0].frames.buf)
	for i := 0; i < 500; i++ {
		sessions[0].Remove(fmt.Sprintf("flow/%06d", i))
	}
	footprint("after half of session 0 left", []int{before - encoderLen(t, sessions[:1]), 0})
	for i := 1000; i < 1000+sweepScratchCap+5000; i++ { // a rebuild larger than the scratch kept
		sessions[1].Install(fmt.Sprintf("flow/%06d", i), nil)
	}
	footprint("after session 1 grew", []int{before - encoderLen(t, sessions[:1]), 0})

	for _, typ := range []reflect.Type{reflect.TypeOf(Session{}), reflect.TypeOf(sweepFrames{})} {
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.Type == reflect.TypeOf([]string(nil)) {
				t.Errorf("%v.%s is a []string: the sweep cache is the encoded frames", typ, f.Name)
			}
		}
	}
}

// encoderLen is how many bytes the encoder's sweep of sessions takes.
func encoderLen(t *testing.T, sessions []*Session) (n int) {
	for _, d := range encoderFrames(t, sessions, 64) {
		n += len(d.data)
	}
	return n
}

// TestSweepRaceInstallRemove runs sweeps against everything that moves a
// session's membership or sequence number at once, on the wall clock and
// under the race detector: per session one goroutine installing and removing
// keys and one handing it the receiver's notifies, while a third kind
// sweeps as fast as it can. A frame is only ever written under sweepMu, so
// the detector has nothing to report; and once everything stops, one more
// sweep writes exactly the encoder's datagrams for what is left.
func TestSweepRaceInstallRemove(t *testing.T) {
	conn := newRawConn()
	conn.record.Store(false)
	ss := NewSessions(conn, Config{Protocol: SSRTR, Shards: 4, SummaryRefresh: true, SummaryMaxKeys: 7,
		RefreshInterval: time.Hour, Timeout: 3 * time.Hour, Retransmit: time.Hour})
	defer ss.Shutdown()
	sessions := make([]*Session, 3)
	for i := range sessions {
		sessions[i] = ss.Session(testAddr(fmt.Sprintf("10.0.0.%d:7000", i+1)))
		for k := 0; k < 40; k++ {
			sessions[i].Install(fmt.Sprintf("base/%02d", k), []byte("v"))
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for _, sess := range sessions {
		wg.Add(2)
		go func() { // churn: the upper keys come and go, and are acknowledged gone
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				key := fmt.Sprintf("churn/%02d", i%25)
				sess.Install(key, []byte("v"))
				if i%3 != 0 {
					sess.Remove(key)
					sess.Handle(wire.Message{Type: wire.TypeRemovalAck, Seq: sess.seq.Load(), Key: key})
				}
			}
		}()
		go func() { // the receiver keeps losing base keys: re-triggers move the sequence number only
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				sess.Handle(wire.Message{Type: wire.TypeNotify, Key: fmt.Sprintf("base/%02d", i%40)})
			}
		}()
	}
	sweeps := 0
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); sweeps++ {
		if ss.SummarySweep() < len(sessions)*40/7 {
			t.Error("a sweep wrote fewer datagrams than the keys that never left need")
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	st := ss.Stats()
	if st.SummaryFramesSent == 0 || st.SummaryFramesEncoded == 0 {
		t.Fatalf("%d sweeps sent %d frames and encoded %d", sweeps, st.SummaryFramesSent, st.SummaryFramesEncoded)
	}
	conn.record.Store(true)
	expectSweep(t, "at rest", ss, conn, sessions)
	if bad := ss.CheckInvariants(); len(bad) != 0 {
		t.Error(bad)
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
		// A leading byte of its own, so front coding shares nothing and
		// every key costs its 300 bytes.
		want[long] = append(want[long], fmt.Sprintf("%c%0299d", '0'+i, i))
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
			n, _ := wire.SummaryFits(rest)
			n = min(n, maxKeys)
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
